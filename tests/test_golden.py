"""Byte-for-byte golden outputs of the CLI, pinned across commits.

test_check_is_deterministic_and_green compares two runs of the same code;
the files under tests/data pin the output itself, so a refactor of the
kernel that changes any canonical text, JSON document or audit report
fails here.  To rewrite the files after a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from pathlib import Path

import pytest

from fpforms.cli import run_command

DATA = Path(__file__).parent / "data"

# (p, n, command, form); closed forms wherever the command needs them, and
# p-closed ones for integrate
FORMS = [
    (2, 2, "phi", "(x + x*y) dx + y^3 dy"),
    (3, 2, "phi", "x^2*y dx + x dy"),
    (5, 3, "phi", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz + y^9 dy^dz"),
    (13, 2, "phi", "x^12 dx + y^25 dy + x^12*y^12 dy"),
    (3, 1, "split-ri", "(z^2 + z) dz"),
    (3, 2, "split-ri", "x^2*y^3 dx + y^2 dy + 2*x*y dx + x^2 dy"),
    (5, 3, "split-ri", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz"),
    (3, 1, "split-ri", "(z^2/(z^3 + 1)) dz + (1/z^2) dz"),
    (2, 2, "split-ct", "(x + x*y) dx + y^3 dy"),
    (3, 2, "split-ct", "(x^2*y + x) dx + x^2*y^2 dy"),
    (5, 3, "split-ct", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz + x^4*y^4*z^4 dy^dz"),
    (3, 1, "cartier", "(z^2 + z^5 + z^8) dz"),
    (3, 2, "cartier", "x^2*y^3 dx + y^2 dy + 2*x*y dx + x^2 dy"),
    (5, 3, "cartier", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz"),
    (13, 2, "cartier", "x^12 dx + y^25 dy"),
    (2, 3, "gamma0", "y*z dy^dz + x dx^dy"),
    (3, 2, "gamma0", "(x*y + 2) dx + dy"),
    (5, 2, "gamma0", "y dx^dy"),
    (3, 2, "gamma0", "(x/y) dx + (1/(x + y^3)) dy"),
    (3, 1, "class", "(z^2 + z) dz"),
    (3, 2, "class", "x^2*y^3 dx + y^2 dy + 2*x*y dx + x^2 dy"),
    (5, 3, "class", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz"),
    (2, 3, "d", "x*y*z dx + (y^2 + x^3*z) dy + x*z dz"),
    (3, 4, "d", "z1*z2^2*z4 dz3^dz2 + z3^2*z4 dz1^dz4 + z1^2*z2*z3 dz4^dz2"
     " + z2^2*z4^2 dz1^dz3"),
    (5, 3, "d", "(x^4*y^3 + z) dx + x*y*z^2 dy + y^5 dz"),
    (13, 2, "d", "x^12*y^13 dx + (x^5 + y^12) dy"),
    (3, 2, "d", "(x/y) dx + (1/(x + y^3)) dy"),
    (2, 2, "closed", "y dx + x dy"),
    (3, 2, "closed", "x^2*y dx + x dy"),
    (5, 3, "closed", "(x^4*y^4*z^5 + x*y) dx^dy + z^4 dx^dz"),
    (13, 1, "closed", "z^12 dz"),
    (2, 2, "pclosed", "y dx + x dy"),
    (3, 1, "pclosed", "z^2 dz"),
    (5, 3, "pclosed", "(x*y) dx^dy + z^4 dx^dz"),
    (13, 2, "pclosed", "x^12 dx + y^25 dy"),
    (13, 2, "pclosed", "x^12 dx + y^25 dy + x*y^3 dx"),
    (2, 3, "integrate", "y*z dx + x*z dy + x*y dz"),
    (2, 3, "integrate", "(x^2*z + x*z) dx^dy + (x*y + z) dx^dz + x^3 dy^dz"),
    (3, 2, "integrate", "(x^2 + y^2) dx^dy"),
    (3, 4, "integrate", "(2*z2^2*z4 + z2*z4^2) dz1^dz2^dz3 + z1*z2*z3 dz1^dz2^dz4"
     " + (2*z2^2*z4 + z3*z4) dz1^dz3^dz4 + (z1^2*z2 + 2*z1*z2^2) dz2^dz3^dz4"),
    (5, 3, "integrate", "(4*x^3*y^2 + y*z) dx + (2*x^4*y + x*z) dy + x*y dz"),
    (5, 3, "integrate", "(2*x^4*y^2 + y*z^2) dx^dy + 4 dx^dz + 3*x*y*z dy^dz"),
    (13, 2, "integrate", "(x^13 + y) dx + (x + 3*y^2) dy"),
    (13, 2, "integrate", "x^12*y^5 dx^dy"),
    (3, 2, "integrate", "(y/(x^3 + 1)) dx + (x/(x^3 + 1)) dy"),
    # p-closed forms at p in {3, 5, 13}; all but the first have monomials
    # z_i^(p-1) dz_i ^ ..., whose weight is 0 (mod p) in z_i
    (5, 2, "integrate", "(x^2 + y^2) dx^dy"),
    (5, 2, "integrate", "(x^64 + y^64) dx^dy"),
    (5, 3, "integrate", "2*x^4*y*z dx^dy + x^4*y^2 dx^dz"),
    (3, 3, "integrate", "(2*z1^4*z2 + z1^2*z2*z3) dz1^dz2"
     " + (2*z1^2*z2^2 + z2^2*z3^2) dz1^dz3 + 2*z1*z2*z3^2 dz2^dz3"),
    (3, 4, "integrate", "z1^2*z2^2*z3 dz1^dz2^dz3 + z1^2*z4^2 dz1^dz2^dz4"),
    (13, 3, "integrate", "x^12*y^12*z^3 dx^dy^dz"),
    # rational forms at larger p; d clears the two distinct denominators
    # of each of the first three to one lam
    (5, 2, "d", "(y/(x + 1)) dx + (x/(y + 2)) dy"),
    (5, 3, "d", "(x/(y + 1)) dx^dz + (y/(x*z + 2)) dx^dy"),
    (13, 2, "d", "(y/(x + 1)) dx + (x/(y + 2)) dy"),
    (13, 3, "d", "(z/(x + 2)) dy + (y/(z + 1)) dz"),
    (5, 3, "pclosed", "(x/y) dx + (1/(z + 4)) dy"),
    (13, 2, "pclosed", "(1/(x + 1)) dy + (x/y^13) dx"),
    (13, 3, "pclosed", "(z1*z2^11/z2^13) dz1^dz2 + (1/(z + 4)) dx^dz"),
    (5, 2, "integrate",
     "(z1^5*z2^4 + 3*z1^5*z2^3 + 4*z1^5*z2^2 + 2*z1^5*z2 + z1^5"
     " + 4*z1^4*z2^5 + 3*z1^4 + z1^3*z2^5 + 2*z1^3 + 4*z1^2*z2^5"
     " + 3*z1^2 + z1*z2^5 + 2*z1 + 4*z2^5 + z2^4 + 3*z2^3 + 4*z2^2"
     " + 2*z2 + 4/z1^5*z2^5 + 2*z1^5 + z2^5 + 2) dz1^dz2"),
    (5, 3, "integrate",
     "(z1*z2^3/z2^5) dz1^dz2 + (z3^3 + 2*z3^2 + 3*z3 + 4/z3^5 + 4) dz2^dz3"),
    (13, 2, "integrate",
     "(z1^14*z2^11 + 12*z1^11*z2^13 + 8*z1^10*z2^13 + 4*z1^9*z2^13"
     " + 9*z1^8*z2^13 + 7*z1^7*z2^13 + 8*z1^6*z2^13 + 6*z1^5*z2^13"
     " + 6*z1^4*z2^13 + 12*z1^3*z2^13 + 3*z1^2*z2^13 + 5*z1*z2^13"
     " + 4*z1*z2^11 + 3*z2^13/z1^13*z2^13 + 4*z2^13) dz1^dz2"),
    (13, 3, "integrate",
     "(z1*z2^11/z2^13) dz1^dz2 + (z3^11 + 5*z3^10 + 9*z3^9 + 4*z3^8"
     " + 6*z3^7 + 5*z3^6 + 7*z3^5 + 7*z3^4 + z3^3 + 10*z3^2 + 8*z3"
     " + 10/z3^13 + 4) dz2^dz3"),
    # d of a rational 1-form whose denominators z1^13 + 11 and
    # z1^26 + 4*z1^13 + 7 multiply to a lam of z1-degree 39; the residual
    # is checked over lam, below the default cap
    (13, 3, "integrate",
     "(11*z1^11*z2 + 5*z1^10*z2 + 2*z1^9*z2 + z1^8*z2 + 9*z1^7*z2"
     " + 6*z1^6*z2 + z1^5*z2 + 6*z1^4*z2 + 7*z1^3*z2 + 4*z1^2*z2 + z1*z2"
     " + z2/z1^13 + 11) dz1^dz2 + (12*z1^26 + 9*z1^25 + 8*z1^24*z3^2"
     " + 10*z1^24 + 2*z1^23*z3^2 + z1^23 + 2*z1^22*z3^2 + 4*z1^22"
     " + 9*z1^21*z3^2 + 3*z1^21 + z1^20*z3^2 + 12*z1^20 + 6*z1^19*z3^2"
     " + 9*z1^19 + 9*z1^18*z3^2 + 10*z1^18 + 5*z1^17*z3^2 + z1^17"
     " + 7*z1^16*z3^2 + 4*z1^16 + 10*z1^15*z3^2 + 3*z1^15 + 3*z1^14*z3^2"
     " + 12*z1^14 + z1^13*z3^2 + 5*z1^13 + 7*z1^12 + 7*z1^11*z3^2"
     " + 2*z1^11 + 5*z1^10*z3^2 + 8*z1^10 + 5*z1^9*z3^2 + 6*z1^9"
     " + 3*z1^8*z3^2 + 11*z1^8 + 9*z1^7*z3^2 + 5*z1^7 + 2*z1^6*z3^2"
     " + 7*z1^6 + 3*z1^5*z3^2 + 2*z1^5 + 6*z1^4*z3^2 + 8*z1^4"
     " + 11*z1^3*z3^2 + 6*z1^3 + 12*z1^2*z3^2 + 11*z1^2 + z1*z3^2 + 5*z1"
     " + 9*z3^2/z1^26 + 4*z1^13 + 7) dz1^dz3"),
    # x^26 divides x^39, so the clearing takes lam = z1^39, not z1^65
    (13, 2, "integrate", "(1/x^39) dx + (1/x^26) dy"),
]

# (flags, p, n, command, form) invocations that must fail: the transcript
# records their exit code and stderr, so a change of which inputs fail, or
# of what they say, fails here as well
FAILURES = [
    # d clears two denominators in z1 past a lowered cap
    (["--max-degree", "20"], 13, 2, "d", "(y/(x + 1)) dx + (x/(x + y)) dy"),
    # the p-th-power normal form of 1/y outgrows a lowered cap while parsing
    (["--max-degree", "12"], 13, 2, "pclosed", "(x/y) dx"),
    (["--json"], 5, 2, "integrate", "(x/(y + 1)) dx"),
    ([], 3, 1, "d", "(1/(z - z)) dz"),
    # potentials that outgrow the cap: the first names z2; the second has
    # a z1 and a z3 overflow and names the one of the monomial whose
    # weight is 0 (mod p) in z1
    ([], 3, 3, "integrate", "z1^2*z2^64 dz1^dz2"),
    ([], 3, 3, "integrate", "z1^64 dz1^dz2 + z1^2*z3^64 dz1^dz3"),
    # p-closed rational forms that still overflow inside integrate: the
    # first while clear_denominators builds lam = z1^39 * (z1 + 1)^26 of
    # coprime factors, the second in the potential of the cleared form
    # z1^64 dz1
    ([], 13, 2, "integrate", "(1/x^39) dx + (1/(x^26 + 2*x^13 + 1)) dy"),
    ([], 3, 1, "integrate", "(z^64/z^3) dz"),
]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    code, out, err = _invoke(argv)
    assert (code, err) == (0, ""), argv
    return out


def _cli_transcript():
    # the rational forms also go through --json, which pins FormDocuments
    runs = [([], f) for f in FORMS] + [(["--json"], f) for f in FORMS if "/" in f[3]]
    blocks = []
    for flags, (p, n, cmd, form) in runs:
        argv = flags + ["--p", str(p), "--n", str(n), cmd, form]
        blocks.append("$ fpforms %s\n%s" % (" ".join(map(repr, argv)), _run(argv)))
    for flags, p, n, cmd, form in FAILURES:
        argv = flags + ["--p", str(p), "--n", str(n), cmd, form]
        code, out, err = _invoke(argv)
        assert code != 0, argv
        blocks.append(
            "$ fpforms %s\n%sexit %d\n%s" % (" ".join(map(repr, argv)), out, code, err)
        )
    return "".join(blocks)


GOLDEN = {
    "check_seed42.txt": lambda: _run(["check", "--seed", "42"]),
    "check_seed42.json": lambda: _run(["check", "--seed", "42", "--json"]),
    # reach what seed 42 never does: the max_n < 2 early exit of
    # operator-o-commute-outside, and the fallback to an odd prime
    "check_seed7_p2_n1.txt": lambda: _run(
        ["check", "--seed", "7", "--p", "2", "--n", "1"]
    ),
    "check_seed7_p7_n4.txt": lambda: _run(
        ["check", "--seed", "7", "--p", "7", "--n", "4", "--trials", "30"]
    ),
    "cli_operators.txt": _cli_transcript,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    expected = (DATA / name).read_text(encoding="utf-8")
    assert GOLDEN[name]() == expected


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, render in GOLDEN.items():
        (DATA / name).write_text(render(), encoding="utf-8")
