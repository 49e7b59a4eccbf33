import io
import json

import pytest

from fpforms import InternalError, max_degree_limit, parse_form
from fpforms.cli import run_command
from fpforms.printer import form_to_doc


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
    ):
        code, out, err = run(argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv


def test_max_degree_holds_for_one_invocation_only():
    before = max_degree_limit()
    code, _, err = run(["--p", "3", "--n", "1", "--max-degree", "4", "d", "z^5 dz"])
    assert code == 2 and "DegreeOverflow" in err
    assert run(["--p", "3", "--n", "1", "--max-degree", "4", "d", "z^2 dz"])[0] == 0
    assert max_degree_limit() == before
    assert str(parse_form("z^5 dz", 3, 1)) == "z1^5 dz1"


def test_bad_prime_message():
    code, _, err = run(["--p", "4", "--n", "1", "d", "z dz"])
    assert code == 1 and "4 is not prime" in err


def test_math_domain_errors_exit_2():
    code, out, err = run(["--p", "3", "--n", "1", "integrate", "z^2 dz"])
    assert code == 2
    assert err == "error: NotPClosed: obstructed at I=(1)\n"
    code, _, err = run(["--p", "3", "--n", "2", "split-ri", "y dx"])
    assert code == 2 and "NotClosed" in err


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
    monkeypatch.setattr("fpforms.cli.run_audit", lambda **kw: fake)
    monkeypatch.setattr("fpforms.cli.report_to_text", lambda report: "forced")
    code, out, _ = run(["check"])
    assert code == 2 and out == "forced\n"
