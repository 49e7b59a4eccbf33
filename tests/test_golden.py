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

# (p, n, command, form); closed forms wherever the command needs them
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
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _cli_transcript():
    # the rational forms also go through --json, which pins FormDocuments
    runs = [([], f) for f in FORMS] + [(["--json"], f) for f in FORMS if "/" in f[3]]
    blocks = []
    for flags, (p, n, cmd, form) in runs:
        argv = flags + ["--p", str(p), "--n", str(n), cmd, form]
        blocks.append("$ fpforms %s\n%s" % (" ".join(map(repr, argv)), _run(argv)))
    return "".join(blocks)


GOLDEN = {
    "check_seed42.txt": lambda: _run(["check", "--seed", "42"]),
    "check_seed42.json": lambda: _run(["check", "--seed", "42", "--json"]),
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
