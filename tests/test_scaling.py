"""Work-count scaling guards for the parser and for form +.

Each guard sums N, 2N and 4N terms and counts the work done: the
monomials built through MultiPoly's constructor and its unchecked
_trusted one, plus the length of the canonical text of the result.  A
count may grow at most 2.5 times per doubling of the terms, so a sum
whose denominator is multiplied in again at every term, or whose total
is copied at every term, fails.  No clock is read.

The four parser routes are polynomial terms, terms over one denominator,
polynomial terms after a rational one, and terms whose denominators
alternate.  Each term brings a new monomial, so the result grows with
the terms, and a parser that copies its running total at every term
does work quadratic in them.  Form + copies its operands, as forms are
immutable, so its guard adds terms whose numerators repeat: the total
stays as small as its denominator lets it.

Exact division, which meets two denominators, finds one leading term of
the dividend per quotient monomial; its guard counts the entries that
the ordering builtins and insertions of fpforms.ratfun examine to find
them, for quotients of 200, 400 and 800 monomials.
"""

import bisect
import io
import random

import pytest

from fpforms import (
    DegreeOverflow,
    MultiPoly,
    degree_limit,
    max_degree_limit,
    parse_form,
)
from fpforms import ratfun
from fpforms.cli import run_command
from fpforms.printer import form_to_text

N = 16
GROWTH = 2.5


def _monomial(k):
    """A different monomial for each k; its z3-exponent grows as k / 8."""
    return "z1^%d*z3^%d" % (k % 8, k // 8)


ROUTES = {
    "polynomial": lambda k: "%d*%s dz1" % (k % 2 + 1, _monomial(k)),
    "one denominator": lambda k: "(%s/(z2 + 1)) dz1" % _monomial(k),
    "polynomial after rational": lambda k: (
        "(1/(z2 + 1)) dz1" if k == 0 else "%s dz1" % _monomial(k)
    ),
    "alternating denominators": lambda k: (
        "(%s/(z2^%d + 1)) dz1" % (_monomial(k), k % 2 + 1)
    ),
}


def _work(monkeypatch, build):
    """Monomials built by build(), plus its result's text length."""
    built = []
    init, trusted = MultiPoly.__init__, MultiPoly._trusted.__func__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.terms))

    def counted_trusted(cls, p, n, terms):
        built.append(len(terms))
        return trusted(cls, p, n, terms)

    with monkeypatch.context() as patch:
        patch.setattr(MultiPoly, "__init__", counted_init)
        patch.setattr(MultiPoly, "_trusted", classmethod(counted_trusted))
        form = build()
    return sum(built) + len(form_to_text(form))


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_parse_work_grows_linearly_in_the_terms(monkeypatch, route):
    term = ROUTES[route]
    counts = []
    for size in (N, 2 * N, 4 * N):
        text = " + ".join(term(k) for k in range(size))
        counts.append(_work(monkeypatch, lambda: parse_form(text, 3, 3)))
    for before, after in zip(counts, counts[1:]):
        assert after <= GROWTH * before, (route, counts)


def _alternating(k):
    """The k-th term of the alternating sums: over z2 + 1 or z2^2 + 1."""
    return "(z1^%d/(z2^%d + 1)) dz1" % (k, k % 2 + 1)


def test_form_sums_with_alternating_denominators_grow_linearly(monkeypatch):
    counts = []
    for size in (N, 2 * N, 4 * N):
        forms = [parse_form(_alternating(k % 8), 3, 3) for k in range(size)]
        counts.append(_work(monkeypatch, lambda: sum(forms[1:], forms[0])))
    for before, after in zip(counts, counts[1:]):
        assert after <= GROWTH * before, counts


def test_form_sums_meet_each_denominator_once():
    # adding the parser's alternating terms one form at a time keeps the
    # z2-degree of the product of the two denominators
    assert max_degree_limit() == 64
    total = parse_form(_alternating(0), 3, 4)
    for k in range(1, 40):
        total = total + parse_form(_alternating(k), 3, 4)
        if k + 1 in (10, 20, 40):
            (coeff,) = total.terms.values()
            assert coeff.den.max_var_degree() == 9, k + 1


def test_alternating_denominators_meet_once():
    # z2 + 1 and z2^2 + 1 become (z2 + 1)^3 and (z2^2 + 1)^3 at p = 3, and
    # their product has z2-degree 9, however often they alternate
    assert max_degree_limit() == 64
    for size in (15, 40):
        text = " + ".join(_alternating(k) for k in range(size))
        (coeff,) = parse_form(text, 3, 4).terms.values()
        assert coeff.den.max_var_degree() == 9
        if size == 15:
            out, err = io.StringIO(), io.StringIO()
            assert run_command(["--p", "3", "--n", "4", "d", text], out, err) == 0


def test_the_cap_holds_for_the_product_of_the_denominators():
    # (z2 + 1)^3 times (z2^8 + 1)^3 has z2-degree 27; no term passes 26
    text = "(1/(z2 + 1)) dz1 + (1/(z2^8 + 1)) dz1 + (z1/(z2 + 1)) dz1"
    with degree_limit(26), pytest.raises(DegreeOverflow):
        parse_form(text, 3, 2)
    with degree_limit(27):
        (coeff,) = parse_form(text, 3, 2).terms.values()
    assert coeff.den.max_var_degree() == 27


def _leading_term_work(monkeypatch, divide):
    """(divide(), entries it examined through ratfun's ordering routines):
    k for max or min over k entries, k times k.bit_length() for sorted,
    and k.bit_length() for an insertion by bisection into k."""
    examined = []

    def counted(real, cost):
        def wrapper(entries, *args, **kwargs):
            examined.append(cost(len(entries)))
            return real(entries, *args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for name, real, cost in (
            ("max", max, lambda k: k),
            ("min", min, lambda k: k),
            ("sorted", sorted, lambda k: k * k.bit_length()),
            ("insort", bisect.insort, int.bit_length),
        ):
            patch.setattr(ratfun, name, counted(real, cost), raising=False)
        quotient = divide()
    return quotient, sum(examined)


def test_exact_division_finds_its_leading_terms_in_linear_time(monkeypatch):
    # a rescan of the dividend for every leading term grows 4 times per
    # doubling of the quotient
    rng = random.Random(8801)
    exponents = [(a, b, c) for a in range(20) for b in range(20) for c in range(20)]
    rng.shuffle(exponents)
    g = MultiPoly(3, 3, {(1, 1, 0): 1, (0, 0, 1): 2, (0, 0, 0): 1})
    counts = []
    for size in (200, 400, 800):
        f = MultiPoly(3, 3, {e: rng.randint(1, 2) for e in exponents[:size]})
        product = f * g
        quotient, work = _leading_term_work(
            monkeypatch, lambda: ratfun._quotient(product, g)
        )
        assert quotient == f
        counts.append(work)
    for before, after in zip(counts, counts[1:]):
        assert after <= GROWTH * before, counts
