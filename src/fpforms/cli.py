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

from .audit import (
    DEFAULT_MAX_N,
    DEFAULT_PRIMES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    report_to_text,
    run_audit,
)
from .cartier import cartier, class_representative, gamma0, same_class
from .errors import (
    FpFormsError,
    InternalError,
    MathDomainError,
    ParseError,
    PrimeOutOfRange,
)
from .forms import wedge
from .operators import (
    is_p_closed,
    phi,
    split_complete_restricted,
    split_rational_irrational,
)
from .parser import parse_form
from .poincare import exactness_oracle, integrate
from .poly import max_degree_limit, set_max_degree
from .printer import form_to_doc, form_to_text

_AUDIT_PRIMES = (2, 3, 5, 7)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our codes
    def error(self, message):
        raise _UsageError(message)


_DEFAULTS = {
    "p": None,
    "n": None,
    "json": False,
    "seed": DEFAULT_SEED,
    "trials": DEFAULT_TRIALS,
    "max_degree": None,
}


def _global_options() -> argparse.ArgumentParser:
    # shared by the root parser and every subcommand, so that flags work
    # both before and after the subcommand name; SUPPRESS keeps a missing
    # flag from clobbering one given in the other position
    g = _Parser(add_help=False)
    g.add_argument("--p", type=int, default=argparse.SUPPRESS,
                   help="prime characteristic")
    g.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help="number of variables")
    g.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="emit JSON instead of text")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    g.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    g.add_argument("--max-degree", type=int, default=argparse.SUPPRESS,
                   help="per-variable exponent cap")
    return g


def build_parser() -> argparse.ArgumentParser:
    shared = _global_options()
    parser = _Parser(
        prog="fpforms",
        description=__doc__.splitlines()[0],
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command")
    one = ("d", "closed", "pclosed", "integrate", "split-ri", "split-ct",
           "phi", "cartier", "gamma0", "class")
    for name in one:
        cmd = sub.add_parser(name, parents=[shared])
        cmd.add_argument("form")
    two = sub.add_parser("wedge", parents=[shared])
    two.add_argument("form")
    two.add_argument("other")
    twoc = sub.add_parser("same-class", parents=[shared])
    twoc.add_argument("form")
    twoc.add_argument("other")
    orc = sub.add_parser("oracle", parents=[shared])
    orc.add_argument("form")
    orc.add_argument("--margin", type=int, default=None)
    sub.add_parser("check", parents=[shared])
    return parser


def _read_form(text: str, p, n):
    if text == "-":
        text = sys.stdin.read()
    if p is None or n is None:
        raise _UsageError("--p and --n are required for form commands")
    return parse_form(text, p, n)


def _emit_form(form, as_json, out):
    if as_json:
        print(json.dumps(form_to_doc(form), indent=2), file=out)
    else:
        print(form_to_text(form), file=out)


def _emit_bool(value, as_json, out):
    if as_json:
        print(json.dumps({"result": bool(value)}, indent=2), file=out)
    else:
        print("true" if value else "false", file=out)


def _emit_pair(labels, forms, as_json, out):
    if as_json:
        doc = {label: form_to_doc(f) for label, f in zip(labels, forms)}
        print(json.dumps(doc, indent=2), file=out)
    else:
        for label, f in zip(labels, forms):
            print("%s: %s" % (label, form_to_text(f)), file=out)


def _dispatch(args, out) -> int:
    cmd = args.command
    if cmd is None:
        raise _UsageError("a subcommand is required (try: d, integrate, check)")
    if cmd == "check":
        primes = DEFAULT_PRIMES
        if args.p is not None:
            if args.p not in _AUDIT_PRIMES:
                raise _UsageError(
                    "check audits small primes only: %s" % (_AUDIT_PRIMES,)
                )
            primes = (args.p,)
        max_n = DEFAULT_MAX_N
        if args.n is not None:
            if not 1 <= args.n <= 4:
                raise _UsageError("check supports --n between 1 and 4")
            max_n = args.n
        report = run_audit(
            seed=args.seed, trials=args.trials, primes=primes, max_n=max_n
        )
        if args.json:
            print(json.dumps(report, indent=2), file=out)
        else:
            print(report_to_text(report), file=out)
        return 2 if report["regressions"] else 0

    form = _read_form(args.form, args.p, args.n)
    if cmd == "d":
        _emit_form(form.d(), args.json, out)
    elif cmd == "wedge":
        other = _read_form(args.other, args.p, args.n)
        _emit_form(wedge(form, other), args.json, out)
    elif cmd == "closed":
        _emit_bool(form.is_closed(), args.json, out)
    elif cmd == "pclosed":
        _emit_bool(is_p_closed(form), args.json, out)
    elif cmd == "integrate":
        _emit_form(integrate(form), args.json, out)
    elif cmd == "split-ri":
        split = split_rational_irrational(form)
        _emit_pair(
            ("rational", "irrational"),
            (split.rational, split.irrational),
            args.json,
            out,
        )
    elif cmd == "split-ct":
        split = split_complete_restricted(form)
        _emit_pair(
            ("complete", "restricted"),
            (split.complete, split.restricted),
            args.json,
            out,
        )
    elif cmd == "phi":
        _emit_form(phi(form), args.json, out)
    elif cmd == "cartier":
        _emit_form(cartier(form), args.json, out)
    elif cmd == "gamma0":
        _emit_form(gamma0(form), args.json, out)
    elif cmd == "class":
        witness = class_representative(form)
        if args.json:
            doc = {
                "representative": form_to_doc(witness.representative),
                "difference_p_closed": witness.exact_difference_check,
            }
            print(json.dumps(doc, indent=2), file=out)
        else:
            print(
                "representative: %s" % form_to_text(witness.representative),
                file=out,
            )
            print(
                "difference_p_closed: %s"
                % ("true" if witness.exact_difference_check else "false"),
                file=out,
            )
    elif cmd == "same-class":
        other = _read_form(args.other, args.p, args.n)
        _emit_bool(same_class(form, other), args.json, out)
    elif cmd == "oracle":
        eta = exactness_oracle(form, degree_margin=args.margin)
        if eta is None:
            if args.json:
                print(json.dumps({"potential": None}, indent=2), file=out)
            else:
                print("none", file=out)
        else:
            if args.json:
                print(json.dumps({"potential": form_to_doc(eta)}, indent=2), file=out)
            else:
                print(form_to_text(eta), file=out)
    else:  # pragma: no cover - argparse rejects unknown commands
        raise _UsageError("unknown command %r" % cmd)
    return 0


def run_command(argv, out=None, err=None) -> int:
    """Run one invocation; prints to out/err and returns the exit code.

    A --max-degree cap holds for this invocation only; the previous
    process-wide cap is restored on the way out.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    previous_cap = max_degree_limit()
    try:
        args = parser.parse_args(argv)
        for name, value in _DEFAULTS.items():
            if not hasattr(args, name):
                setattr(args, name, value)
        if args.max_degree is not None:
            set_max_degree(args.max_degree)
        return _dispatch(args, out)
    except (_UsageError, ParseError, PrimeOutOfRange) as exc:
        print("error: %s" % exc, file=err)
        return 1
    except MathDomainError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=err)
        return 2
    except InternalError as exc:
        print("internal error: %s" % exc, file=err)
        return 3
    except FpFormsError as exc:  # pragma: no cover - safety net
        print("internal error: %s" % exc, file=err)
        return 3
    finally:
        set_max_degree(previous_cap)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
