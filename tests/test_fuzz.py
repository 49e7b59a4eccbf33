"""Seeded, grammar-aware fuzzing of the command line.

Every invocation of run_command must end in a documented exit code, 0 to
3, without raising; a failing one prints exactly one line to stderr, and a
successful --json one prints a JSON document.  The cases mutate the
invocations pinned in tests/data/cli_operators.txt.  Hostile fragments
(5000-digit runs, non-ASCII digits, NUL, 101-deep nesting, truncation and
empty input) go into the numeric slots of a form, its coefficients,
exponents and variable indices, and into the values of --p, --n,
--margin, --trials, --max-degree and --seed.  --n also takes values above
MAX_VARIABLES: 10**6, one past sys.maxsize and 4000 nines.  Each form also
goes through oracle with a hostile --margin.

Left out on purpose: valid --trials values above 1, which only make check
run longer.
"""

import io
import json
import random
import re
import shlex
import sys
from pathlib import Path

from fpforms.cli import run_command

TRANSCRIPT = Path(__file__).parent / "data" / "cli_operators.txt"
LONG = "7" * 5000
# fragments for a digit run of a form, and for anywhere in a form
DIGITS = (LONG, "0", "00", "٣", "３", "²", "")
FRAGMENTS = ("\x00", "(" * 101, ")", "^", "*", "+", "-", "/", "dz", "z0",
             "dz9", " ", "^" + LONG, "z" + LONG, "٣")
# values for a numeric flag; in-range ones are small or, where the flag
# allows it, huge
HOSTILE = (LONG, "-" + LONG, "-1", "0", "٣", "²", "", "x", "1e3")
MARGINS = HOSTILE + ("1", "40", "9" * 4000)
MAX_DEGREES = HOSTILE + ("1", "3", "9" * 4000)
ARITIES = HOSTILE + (str(10**6), str(sys.maxsize + 1), "9" * 4000)


def invocations():
    for line in TRANSCRIPT.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ fpforms "):
            yield shlex.split(line[len("$ fpforms "):])


def mutate_form(rng, text):
    kind = rng.randrange(5)
    runs = list(re.finditer(r"\d+", text))
    if kind == 0 and runs:
        m = rng.choice(runs)
        return text[: m.start()] + rng.choice(DIGITS) + text[m.end() :]
    k = rng.randint(0, len(text))
    if kind == 1:
        return text[:k] + rng.choice(FRAGMENTS) + text[k:]
    if kind == 2:
        return text[:k]
    if kind == 3:
        depth = rng.choice((100, 101))
        return "(" * depth + text + ")" * depth
    return text[:k] + text[rng.randint(k, len(text)) :]


def cases(rng):
    for argv in invocations():
        at = argv.index("--n") + 2  # the command; its forms follow
        head, cmd, forms = argv[:at], argv[at], argv[at + 1 :]
        for _ in range(2):
            mutated = list(forms)
            slot = rng.randrange(len(mutated))
            mutated[slot] = mutate_form(rng, mutated[slot])
            yield head + [cmd] + mutated
        flags = list(head)
        flag = rng.choice(("--p", "--n", "--max-degree"))
        if flag in flags:
            values = ARITIES if flag == "--n" else HOSTILE
            flags[flags.index(flag) + 1] = rng.choice(values)
        else:
            flags += [flag, rng.choice(MAX_DEGREES)]
        yield flags + [cmd] + forms
        form = forms[0] if rng.random() < 0.5 else mutate_form(rng, forms[0])
        yield head + ["oracle", "--margin", rng.choice(MARGINS), form]
    for value in HOSTILE + ("1",):
        yield ["check", "--p", "2", "--n", "1", "--trials", value]
        yield ["check", "--p", "2", "--n", "1", "--trials", "1", "--seed", value]


def short(argv):
    return [a if len(a) < 40 else a[:20] + "...(%d chars)" % len(a) for a in argv]


def test_every_fuzzed_invocation_ends_in_a_documented_exit_code():
    rng = random.Random(1212)
    codes = {}
    for argv in cases(rng):
        if rng.random() < 0.3:
            argv = ["--json"] + argv
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, out=out, err=err)
        assert code in (0, 1, 2, 3), short(argv)
        err = err.getvalue()
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, (short(argv), err)
        else:
            assert err == "", (short(argv), err)
            if argv[0] == "--json":
                json.loads(out.getvalue())
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach past the parser into the kernel and out again
    assert codes.get(0, 0) >= 40 and codes.get(1, 0) >= 100 and codes.get(2, 0) >= 10
