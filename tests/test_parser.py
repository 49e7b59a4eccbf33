import random

import pytest

from fpforms import (
    DiffForm,
    MultiPoly,
    ParseError,
    PrimeOutOfRange,
    VariableOutOfRange,
    parse_form,
    variables,
)
from fpforms.printer import form_to_text
from fpforms.sampling import random_form

TRIALS = 150


def test_alias_letters():
    got = parse_form("x^2*y dx + x dy", 3, 2)
    x, y = variables(3, 2)
    assert got == DiffForm(3, 2, 1, {(1,): x * x * y, (2,): x})
    assert parse_form("w dw", 2, 4) == parse_form("z4 dz4", 2, 4)


def test_z_means_z1_in_one_variable():
    assert parse_form("z^2 dz", 3, 1) == parse_form("z1^2 dz1", 3, 1)
    # with two or more variables z stays the third letter
    assert parse_form("z dz", 5, 3) == parse_form("z3 dz3", 5, 3)


def test_wedge_reordering_sign():
    assert form_to_text(parse_form("dz2^dz1", 5, 2)) == "4 dz1^dz2"
    assert form_to_text(parse_form("dx^dx", 3, 2)) == "0"


def test_star_is_optional_and_coefficients_reduce():
    assert parse_form("x y dx", 3, 2) == parse_form("x*y dx", 3, 2)
    assert form_to_text(parse_form("7 dx", 5, 1)) == "2 dz1"
    assert form_to_text(parse_form("0 dx", 3, 2)) == "0"


def test_constants_and_functions():
    assert form_to_text(parse_form("2", 3, 2)) == "2"
    assert form_to_text(parse_form("x*y", 3, 2)) == "z1*z2"


def test_leading_and_binary_minus():
    assert form_to_text(parse_form("- x dx", 3, 2)) == "2*z1 dz1"
    assert parse_form("x dx - y dy", 3, 2) == parse_form("x dx + 2 y dy", 3, 2)


def test_parenthesized_ratio_binds_the_whole_sum():
    got = parse_form("(x + y/y^3) dx", 3, 2)
    same = parse_form("(x/y^3) dx + (y/y^3) dx", 3, 2)
    assert got == same


def test_ratio_requires_parentheses():
    with pytest.raises(ParseError):
        parse_form("x/y^3 dx", 3, 2)


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_form("x\n+ q", 3, 2)
    assert info.value.line == 2 and info.value.column == 3
    with pytest.raises(ParseError) as info:
        parse_form("x +", 3, 2)
    assert "end of input" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_form("", 3, 2)
    assert "empty" in str(info.value)


def test_variable_out_of_range():
    with pytest.raises(VariableOutOfRange) as info:
        parse_form("w dw", 3, 3)
    assert "z4" in str(info.value) and "1..3" in str(info.value)
    with pytest.raises(VariableOutOfRange):
        parse_form("z9 dz1", 3, 2)
    with pytest.raises(VariableOutOfRange):
        parse_form("dz0", 3, 2)


def test_malformed_expressions():
    for text in ("x dx^", "(x dx", "x^ dx", "q dx", "x ^^ dx"):
        with pytest.raises(ParseError):
            parse_form(text, 3, 2)


def test_hostile_numerals_and_nesting_are_typed_errors():
    # int() refuses numerals over 4300 digits; coefficients reduce mod p anyway
    assert form_to_text(parse_form("9" * 5000 + " dz", 3, 1)) == "0"
    for p in (3, 7, 2**31 - 1):
        # the repunit (10^5000 - 1) / 9, reduced mod p without int()
        residue = (pow(10, 5000, 9 * p) - 1) // 9 % p
        assert parse_form("1" * 5000 + " dz", p, 1) == parse_form("%d dz" % residue, p, 1)
    for text, column in (("z^", 3), ("(z)^", 5)):
        with pytest.raises(ParseError) as info:
            parse_form(text + "9" * 5000 + " dz", 3, 1)
        assert str(info.value) == (
            "exponent of 5000 digits is too large at line 1, column %d" % column
        )
    # so do variable indices, which are outside 1..n at any such length
    for text in ("z" + "9" * 5000 + " dz", "dz" + "9" * 5000):
        with pytest.raises(VariableOutOfRange) as info:
            parse_form(text, 3, 1)
        assert str(info.value) == (
            "variable index of 5000 digits is outside 1..1 at line 1, column 1"
        )
    nested = "(" * 100 + "z" + ")" * 100 + " dz"
    assert parse_form(nested, 3, 1) == parse_form("z dz", 3, 1)
    for depth in (101, 400):
        text = "(" * depth + "z" + ")" * depth + " dz"
        with pytest.raises(ParseError) as info:
            parse_form(text, 3, 1)
        assert str(info.value) == (
            "parentheses nest deeper than 100 levels at line 1, column 101"
        )
    # digits that are not decimal (superscripts) are not numerals
    for text in ("z\u00b2 dz", "\u00b2 dz"):
        with pytest.raises(ParseError):
            parse_form(text, 3, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(PrimeOutOfRange):
        parse_form("x dx", 4, 2)


def test_text_round_trip_random():
    rng = random.Random(8001)
    for t in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        f = random_form(rng, p, n, r, rational=(t % 2 == 0))
        assert parse_form(form_to_text(f), p, n) == f


def test_round_trip_is_canonical_text():
    # printing a reparsed canonical string is a fixed point
    rng = random.Random(8002)
    for t in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        f = random_form(rng, p, n, rng.randint(0, n), rational=(t % 3 == 0))
        text = form_to_text(f)
        assert form_to_text(parse_form(text, p, n)) == text
