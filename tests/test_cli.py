import argparse
import io
import json
import sys
import threading

import pytest

from fpforms import (
    MAX_VARIABLES,
    InternalError,
    degree_limit,
    max_degree_limit,
    parse_form,
)
from fpforms.cli import run_command
from fpforms.printer import form_to_doc
from test_fuzz import invocations


def run(argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_d_command():
    code, out, err = run(["--p", "3", "--n", "2", "d", "x^2*y dx + x dy"])
    assert (code, err) == (0, "")
    assert out == "(2*z1^2 + 1) dz1^dz2\n"


def test_flags_accepted_after_subcommand():
    before = run(["--p", "3", "--n", "2", "d", "x dy"])
    after = run(["d", "--p", "3", "--n", "2", "x dy"])
    assert before == after == (0, "dz1^dz2\n", "")


def test_integrate_and_verify():
    code, out, err = run(["--p", "3", "--n", "2", "integrate", "(x^2 + y^2) dx^dy"])
    assert code == 0
    theta = parse_form(out.strip(), 3, 2)
    assert theta.d() == parse_form("(x^2 + y^2) dx^dy", 3, 2)


def test_boolean_commands():
    assert run(["--p", "3", "--n", "1", "pclosed", "z^2 dz"]) == (0, "false\n", "")
    assert run(["--p", "2", "--n", "1", "pclosed", "z^2 dz"]) == (0, "true\n", "")
    assert run(["--p", "3", "--n", "2", "closed", "y dx"]) == (0, "false\n", "")


def test_wedge_command():
    code, out, _ = run(["--p", "5", "--n", "2", "wedge", "x dx", "y dy"])
    assert code == 0 and out == "z1*z2 dz1^dz2\n"


def test_phi_cartier_gamma0():
    assert run(["--p", "3", "--n", "1", "phi", "x^2 dx"])[1] == "2 dz1\n"
    assert run(["--p", "3", "--n", "1", "cartier", "z^2 dz"])[1] == "dz1\n"
    assert run(["--p", "3", "--n", "1", "gamma0", "dz"])[1] == "z1^2 dz1\n"


def test_split_commands():
    code, out, _ = run(["--p", "3", "--n", "1", "split-ri", "(z^2 + z) dz"])
    assert code == 0
    assert out == "rational: z1 dz1\nirrational: z1^2 dz1\n"
    code, out, _ = run(["--p", "3", "--n", "2", "split-ct", "(x^2*y + x) dx"])
    assert code == 0
    assert out == "complete: z1 dz1\nrestricted: z1^2*z2 dz1\n"


def test_class_and_same_class():
    code, out, _ = run(["--p", "3", "--n", "1", "class", "(z^2 + z) dz"])
    assert code == 0
    assert out == "representative: z1^2 dz1\ndifference_p_closed: true\n"
    assert run(["--p", "3", "--n", "1", "same-class", "(z^2 + z) dz", "z^2 dz"])[1] == "true\n"
    assert run(["--p", "3", "--n", "1", "same-class", "z^2 dz", "0 dz"])[1] == "false\n"


def test_oracle_command():
    assert run(["--p", "3", "--n", "1", "oracle", "z^2 dz"]) == (0, "none\n", "")
    code, out, _ = run(["--p", "3", "--n", "1", "oracle", "z dz"])
    assert code == 0
    eta = parse_form(out.strip(), 3, 1)
    assert eta.d() == parse_form("z dz", 3, 1)
    # small weight blocks in a large bounded space are answered
    form = "z1^20*z2^13 dz1^dz2"
    assert run(["--p", "7", "--n", "4", "oracle", form]) == (0, "none\n", "")
    assert run(["--p", "7", "--n", "4", "pclosed", form]) == (0, "false\n", "")


def test_json_output():
    code, out, _ = run(["--p", "3", "--n", "2", "--json", "d", "x dy"])
    assert code == 0
    assert json.loads(out) == form_to_doc(parse_form("dx^dy", 3, 2))
    code, out, _ = run(["--p", "3", "--n", "1", "--json", "pclosed", "z^2 dz"])
    assert json.loads(out) == {"result": False}
    code, out, _ = run(["--p", "3", "--n", "1", "--json", "oracle", "z^2 dz"])
    assert json.loads(out) == {"potential": None}


def test_stdin_dash(monkeypatch):
    code, out, err = run(["--p", "3", "--n", "2", "d", "-"],
                         stdin="x dy", monkeypatch=monkeypatch)
    assert (code, out, err) == (0, "dz1^dz2\n", "")


def test_usage_errors_exit_1():
    for argv in (
        [],
        ["d", "x dx"],  # missing --p/--n
        ["--p", "4", "--n", "1", "d", "z dz"],  # composite characteristic
        ["--p", "3", "--n", "2", "d", "q dx"],  # parse error
        ["--p", "3", "--n", "2", "d", "w dw"],  # variable out of range
        ["--p", "3", "--n", "2", "frobnicate", "x"],  # unknown command
        ["--p", "11", "check"],  # audit restricted to small primes
        ["--n", "9", "check"],
        # numerals int() refuses and nesting past the recursion limit
        ["--p", "3", "--n", "1", "d", "z^" + "9" * 5000 + " dz"],
        ["--p", "3", "--n", "1", "d", "(" * 400 + "z" + ")" * 400 + " dz"],
        ["--p", "3", "--n", "1", "d", "z" + "9" * 5000 + " dz"],
    ):
        code, out, err = run(argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    # the overlong variable index, the last case, is one typed line
    assert err == (
        "error: variable index of 5000 digits is outside 1..1"
        " at line 1, column 1\n"
    )


def test_max_degree_holds_for_one_invocation_only():
    before = max_degree_limit()
    code, _, err = run(["--p", "3", "--n", "1", "--max-degree", "4", "d", "z^5 dz"])
    assert code == 2 and "DegreeOverflow" in err
    assert run(["--p", "3", "--n", "1", "--max-degree", "4", "d", "z^2 dz"])[0] == 0
    assert max_degree_limit() == before
    assert str(parse_form("z^5 dz", 3, 1)) == "z1^5 dz1"


def test_caller_cap_holds_unless_max_degree_overrides_it():
    p3n1 = ["--p", "3", "--n", "1"]
    with degree_limit(8):
        assert run(p3n1 + ["d", "z^9 dz"]) == (
            2, "", "error: DegreeOverflow: exponent 9 of z1 exceeds the degree limit 8\n"
        )
        assert run(p3n1 + ["--max-degree", "16", "d", "z^9 dz"]) == (0, "0\n", "")
        assert max_degree_limit() == 8


def test_cap_does_not_cross_threads(monkeypatch):
    # one invocation holds --max-degree 4 while this thread keeps the default
    entered, release = threading.Event(), threading.Event()
    caps, results = [], []

    def held(form):
        caps.append(max_degree_limit())
        entered.set()
        release.wait(timeout=30)
        return form

    monkeypatch.setattr("fpforms.cli.integrate", held)
    argv = ["--p", "3", "--n", "1", "--max-degree", "4", "integrate", "z dz"]
    worker = threading.Thread(target=lambda: results.append(run(argv)))
    worker.start()
    try:
        assert entered.wait(timeout=30)
        assert str(parse_form("z^5 dz", 3, 1)) == "z1^5 dz1"
        assert max_degree_limit() == 64
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert caps == [4]
    assert results == [(0, "z1 dz1\n", "")]


def test_max_degree_below_one_is_a_usage_error():
    before = max_degree_limit()
    for value in ("0", "-3"):
        for argv in (
            ["--max-degree", value, "check"],
            ["--p", "3", "--n", "1", "d", "--max-degree", value, "z dz"],
        ):
            code, out, err = run(argv)
            assert (code, out) == (1, ""), argv
            assert err == "error: --max-degree must be a positive integer\n"
    assert max_degree_limit() == before


def test_check_trials_below_one_is_a_usage_error():
    # no trial would run, and every verified claim would read PASS
    for value in ("0", "-3"):
        for argv in (
            ["--trials", value, "check"],
            ["check", "--p", "2", "--n", "1", "--trials", value],
        ):
            code, out, err = run(argv)
            assert (code, out) == (1, ""), argv
            assert err == "error: --trials must be a positive integer\n"


def test_bad_prime_message():
    code, _, err = run(["--p", "4", "--n", "1", "d", "z dz"])
    assert code == 1 and "4 is not prime" in err


def test_math_domain_errors_exit_2():
    code, out, err = run(["--p", "3", "--n", "1", "integrate", "z^2 dz"])
    assert code == 2
    assert err == "error: NotPClosed: obstructed at I=(1)\n"
    code, _, err = run(["--p", "3", "--n", "2", "split-ri", "y dx"])
    assert code == 2 and "NotClosed" in err
    for n in (MAX_VARIABLES + 1, 10**6, sys.maxsize + 1, "9" * 4000):
        assert run(["--p", "3", "--n", str(n), "d", "x dy"]) == (
            2, "", "error: ArityMismatch: n exceeds the variable limit 1000\n"
        )


def test_internal_errors_exit_3(monkeypatch):
    def boom(form):
        raise InternalError("boom")

    monkeypatch.setattr("fpforms.cli.integrate", boom)
    code, _, err = run(["--p", "3", "--n", "1", "integrate", "z dz"])
    assert code == 3 and err == "internal error: boom\n"


def test_check_is_deterministic_and_green():
    first = run(["check", "--seed", "42", "--trials", "10"])
    second = run(["--seed", "42", "--trials", "10", "check"])
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "summary:" in out and " 0 regressions" in out


def test_check_restricted_configuration():
    code, out, _ = run(["--p", "2", "--n", "2", "check", "--trials", "8"])
    assert code == 0
    assert "regressions" in out


def test_check_json_report():
    code, out, _ = run(["--json", "check", "--trials", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["regressions"] == 0
    assert {c["id"] for c in report["claims"]} >= {
        "thm-poincare-roundtrip",
        "prop-decomp-c",
    }


def test_check_exits_2_on_regression(monkeypatch):
    fake = {"regressions": 1, "claims": [], "seed": 0, "trials": 0}
    monkeypatch.setattr("fpforms.audit.run_audit", lambda **kw: fake)
    monkeypatch.setattr("fpforms.audit.report_to_text", lambda report: "forced")
    code, out, _ = run(["check"])
    assert code == 2 and out == "forced\n"


_CHOICES = (
    "(choose from 'd', 'closed', 'pclosed', 'integrate', 'split-ri', "
    "'split-ct', 'phi', 'cartier', 'gamma0', 'class', 'wedge', "
    "'same-class', 'oracle', 'check')"
)


def test_flag_placement_and_usage_edges():
    p3n1 = ["--p", "3", "--n", "1"]
    empty_2form = '{\n  "format": 1,\n  "p": 3,\n  "n": 1,\n  "degree": 2,\n  "terms": []\n}\n'
    cases = [
        # global flags on both sides of the subcommand
        (["--p", "3", "d", "--n", "2", "x dy"], (0, "dz1^dz2\n", "")),
        # a repeated flag: the later one wins (d(x^3 dy) is 0 at p = 3 only)
        (["--p", "5", "--n", "2", "d", "--p", "3", "x^3 dy"], (0, "0\n", "")),
        (p3n1 + ["d", "z^2 dz", "--json"], (0, empty_2form, "")),
        (p3n1 + ["oracle", "--margin", "0", "z dz"], (0, "none\n", "")),
        (p3n1 + ["oracle", "z dz", "--margin", "0"], (0, "none\n", "")),
        (
            p3n1 + ["oracle", "--margin", "-1", "z dz"],
            (1, "", "error: --margin must be a nonnegative integer\n"),
        ),
        (p3n1 + ["d", "9" * 5000 + " dz"], (0, "0\n", "")),
        # omega ^ omega = 0, though its pair products pass the cap and cancel
        (
            ["--p", "3", "--n", "2", "wedge", "x^64 dx + x dy", "x^64 dx + x dy"],
            (0, "0\n", ""),
        ),
        # --margin may come anywhere, but belongs to oracle alone
        (p3n1 + ["--margin", "0", "oracle", "z dz"], (0, "none\n", "")),
        (p3n1 + ["d", "--margin", "0", "z dz"], (1, "", "error: --margin is an oracle option\n")),
        (
            p3n1 + ["oracle", "--m", "4", "z dz"],
            (1, "", "error: ambiguous option: --m could match --max-degree, --margin\n"),
        ),
        (
            p3n1 + ["--max", "4", "d", "z^5 dz"],
            (2, "", "error: DegreeOverflow: exponent 5 of z1 exceeds the degree limit 4\n"),
        ),
        (
            p3n1 + ["frobnicate", "z dz"],
            (1, "", "error: argument command: invalid choice: 'frobnicate' %s\n" % _CHOICES),
        ),
        (p3n1 + ["d"], (1, "", "error: the following arguments are required: form\n")),
        (p3n1 + ["wedge", "z dz"], (1, "", "error: the following arguments are required: other\n")),
        (
            p3n1 + ["wedge"],
            (1, "", "error: the following arguments are required: form, other\n"),
        ),
        (p3n1 + ["d", "z dz", "z dz"], (1, "", "error: unrecognized arguments: z dz\n")),
        (p3n1 + ["wedge", "z", "z", "z", "--json"], (1, "", "error: unrecognized arguments: z\n")),
        (["check", "extra"], (1, "", "error: unrecognized arguments: extra\n")),
        (["check", "a", "--p", "2", "b"], (1, "", "error: unrecognized arguments: a b\n")),
        (
            ["--margin", "-1"] + p3n1 + ["oracle", "z dz"],
            (1, "", "error: --margin must be a nonnegative integer\n"),
        ),
        (["check", "--margin", "1"], (1, "", "error: --margin is an oracle option\n")),
        (p3n1 + ["wedge", "z dz", "--margin", "0", "z dz"], (1, "", "error: --margin is an oracle option\n")),
        (p3n1 + ["d", "--", "z^2 dz"], (0, "0\n", "")),
        # after the command, -- makes the rest forms; before it, -- is refused
        (
            p3n1 + ["d", "--", "--json"],
            (1, "", "error: unexpected - at line 1, column 2 "
                    "(expected a coefficient or a differential)\n"),
        ),
        (["--", "--p", "3", "--n", "1", "d", "z dz"], (1, "", "error: -- may only come after the command\n")),
        (p3n1 + ["--", "d", "z dz"], (1, "", "error: -- may only come after the command\n")),
        (["--", "check"], (1, "", "error: -- may only come after the command\n")),
    ]
    for argv, expected in cases:
        assert run(argv) == expected, argv


# the transcript has no two-form command, oracle or check
EXTRA_INVOCATIONS = [
    ["--p", "5", "--n", "2", "wedge", "x dx", "y dy"],
    ["--json", "--p", "3", "--n", "1", "same-class", "(z^2 + z) dz", "z^2 dz"],
    ["--p", "3", "--n", "1", "--margin", "0", "oracle", "z dz"],
    ["--json", "--p", "3", "--n", "1", "--margin", "1", "oracle", "z dz"],
    ["--seed", "5", "--trials", "2", "--p", "2", "--n", "1", "check"],
]


def split_invocation(argv):
    """(flag units, command, forms) of an argv whose flags all come first;
    a unit is --json alone, or a flag and its value."""
    units, k = [], 0
    while argv[k].startswith("--"):
        width = 1 if argv[k] == "--json" else 2
        units.append(argv[k : k + width])
        k += width
    return units, argv[k], argv[k + 1 :]


def test_flags_anywhere_for_every_command():
    commands = set()
    for argv in [*invocations(), *EXTRA_INVOCATIONS]:
        units, cmd, forms = split_invocation(argv)
        commands.add(cmd)
        half = len(units) // 2
        flags = [arg for unit in units for arg in unit]
        before = [arg for unit in units[:half] for arg in unit]
        after = [arg for unit in units[half:] for arg in unit]
        expected = run(argv)
        for moved in (
            [cmd] + flags + forms,
            [cmd] + forms + flags,
            before + [cmd] + after + forms,
            before + [cmd] + forms + after,
        ):
            assert run(moved) == expected, moved
    assert commands >= {"d", "integrate", "wedge", "same-class", "oracle", "check"}


def test_one_parser_per_call(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["--p", "3", "--n", "1", "d", "z dz"]) == (0, "0\n", "")
    assert len(built) == 1
    assert run(["frobnicate"])[0] == 1
    assert len(built) == 2
