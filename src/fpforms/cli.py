"""Command-line front end.

    fpforms --p 3 --n 2 d "x^2*y dx + x dy"
    fpforms --p 3 --n 2 --json integrate "(x^2 + y^2) dx^dy"
    fpforms check --seed 42

Exit codes: 0 success, 1 parse or usage error, 2 violated mathematical
precondition, 3 internal error.  Form arguments may be '-' to read the
expression from stdin.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartier import cartier, class_representative, gamma0, same_class
from .errors import FpFormsError, MathDomainError, ParseError, PrimeOutOfRange
from .forms import wedge
from .operators import (
    is_p_closed,
    phi,
    split_complete_restricted,
    split_rational_irrational,
)
from .parser import parse_form
from .poincare import exactness_oracle, integrate
from .poly import degree_limit, max_degree_limit
from .printer import form_to_doc, form_to_text

_AUDIT_PRIMES = (2, 3, 5, 7)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our codes
    def error(self, message):
        raise _UsageError(message)


# every form subcommand in parser order: its number of form arguments and
# its operation; each lambda looks its name up when it runs, so that a
# name patched on this module takes effect
_COMMANDS = {
    "d": (1, lambda f: f.d()),
    "closed": (1, lambda f: f.is_closed()),
    "pclosed": (1, lambda f: is_p_closed(f)),
    "integrate": (1, lambda f: integrate(f)),
    "split-ri": (1, lambda f: split_rational_irrational(f)._asdict()),
    "split-ct": (1, lambda f: split_complete_restricted(f)._asdict()),
    "phi": (1, lambda f: phi(f)),
    "cartier": (1, lambda f: cartier(f)),
    "gamma0": (1, lambda f: gamma0(f)),
    "class": (1, lambda f: class_representative(f)._asdict()),
    "wedge": (2, lambda f, g: wedge(f, g)),
    "same-class": (2, lambda f, g: same_class(f, g)),
}

_CHOICES = (*_COMMANDS, "oracle", "check")


def build_parser() -> argparse.ArgumentParser:
    # one parser read by parse_intermixed_args, so that flags may come
    # before, between or after the command and its forms
    parser = _Parser(prog="fpforms", description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, help="prime characteristic")
    parser.add_argument("--n", type=int, help="number of variables")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of text")
    # check alone reads these; it resolves their defaults from the audit
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--max-degree", type=int,
                        help="per-variable exponent cap")
    parser.add_argument("--margin", type=int,
                        help="oracle only: degrees the potential may exceed "
                             "the form by (default p); any value >= 1 asks "
                             "the unbounded question, 0 alone differs")
    parser.add_argument("command", nargs="?", choices=_CHOICES)
    parser.add_argument("forms", nargs="*")
    return parser


def _read_form(text: str, p, n):
    if text == "-":
        text = sys.stdin.read()
    if p is None or n is None:
        raise _UsageError("--p and --n are required for form commands")
    return parse_form(text, p, n)


def _leaf(value, as_json):
    if isinstance(value, bool):
        return value if as_json else ("true" if value else "false")
    return form_to_doc(value) if as_json else form_to_text(value)


def _emit(value, as_json, out):
    """Print a form, a bool, or a dict of labelled forms and bools."""
    if isinstance(value, dict):
        doc = {label: _leaf(v, as_json) for label, v in value.items()}
    elif as_json and isinstance(value, bool):
        doc = {"result": value}
    else:
        doc = _leaf(value, as_json)
    if as_json:
        doc = json.dumps(doc, indent=2)
    elif isinstance(doc, dict):
        doc = "\n".join("%s: %s" % item for item in doc.items())
    print(doc, file=out)


def _dispatch(args, out) -> int:
    cmd, texts = args.command, args.forms
    if cmd is None:
        raise _UsageError("a subcommand is required (try: d, integrate, check)")
    # oracle takes one form and check none; the messages are argparse's own
    arity = _COMMANDS[cmd][0] if cmd in _COMMANDS else int(cmd == "oracle")
    if len(texts) < arity:
        raise _UsageError("the following arguments are required: %s"
                          % ", ".join(("form", "other")[len(texts):arity]))
    if len(texts) > arity:
        raise _UsageError("unrecognized arguments: %s" % " ".join(texts[arity:]))
    if args.margin is not None:
        if cmd != "oracle":
            raise _UsageError("--margin is an oracle option")
        if args.margin < 0:
            raise _UsageError("--margin must be a nonnegative integer")
    if cmd == "check":
        # only check audits: the audit and its samplers load here
        from . import audit

        primes = audit.DEFAULT_PRIMES
        if args.p is not None:
            if args.p not in _AUDIT_PRIMES:
                raise _UsageError(
                    "check audits small primes only: %s" % (_AUDIT_PRIMES,)
                )
            primes = (args.p,)
        max_n = audit.DEFAULT_MAX_N
        if args.n is not None:
            if not 1 <= args.n <= 4:
                raise _UsageError("check supports --n between 1 and 4")
            max_n = args.n
        trials = audit.DEFAULT_TRIALS if args.trials is None else args.trials
        if trials < 1:
            raise _UsageError("--trials must be a positive integer")
        seed = audit.DEFAULT_SEED if args.seed is None else args.seed
        report = audit.run_audit(seed=seed, trials=trials, primes=primes, max_n=max_n)
        if args.json:
            print(json.dumps(report, indent=2), file=out)
        else:
            print(audit.report_to_text(report), file=out)
        return 2 if report["regressions"] else 0
    forms = [_read_form(text, args.p, args.n) for text in texts]
    if cmd == "oracle":
        eta = exactness_oracle(*forms, degree_margin=args.margin)
        if args.json:
            doc = None if eta is None else form_to_doc(eta)
            print(json.dumps({"potential": doc}, indent=2), file=out)
        else:
            print("none" if eta is None else form_to_text(eta), file=out)
        return 0
    _emit(_COMMANDS[cmd][1](*forms), args.json, out)
    return 0


def run_command(argv, out=None, err=None) -> int:
    """Run one invocation; prints to out/err and returns the exit code.

    A --max-degree cap holds for this invocation, in this thread, only;
    without it the cap in force in the caller's context holds.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        # parse_intermixed_args would drop a -- that comes before the
        # command and read the flags after it as flags
        if "--" in argv and not set(argv[: argv.index("--")]) & set(_CHOICES):
            raise _UsageError("-- may only come after the command")
        args = parser.parse_intermixed_args(argv)
        cap = max_degree_limit() if args.max_degree is None else args.max_degree
        if cap < 1:
            raise _UsageError("--max-degree must be a positive integer")
        with degree_limit(cap):
            return _dispatch(args, out)
    except (_UsageError, ParseError, PrimeOutOfRange) as exc:
        print("error: %s" % exc, file=err)
        return 1
    except MathDomainError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=err)
        return 2
    except FpFormsError as exc:  # InternalError and any other kernel fault
        print("internal error: %s" % exc, file=err)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
