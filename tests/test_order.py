"""Results do not depend on the order of a polynomial's monomials.

A MultiPoly keeps its terms in the order they were made, and the
validating constructor keeps the order it is given.  Each seeded form
below is built twice, once with every coefficient's monomials in sorted
order and once in reverse.  The two builds must agree by value under
every operator, print the same text and documents byte for byte, hash
alike, and raise the same error with the same text under a low degree
cap: an error that names a monomial or an exponent names the one that
the sorted order meets first.
"""

import json
import random

import pytest

from fpforms import (
    DiffForm,
    FpFormsError,
    MultiPoly,
    RatFun,
    cartier,
    clear_denominators,
    degree_limit,
    form_to_doc,
    form_to_text,
    gamma0,
    integrate,
    split_complete_restricted,
    split_rational_irrational,
    wedge,
)
from fpforms.sampling import (
    random_closed_form,
    random_exact_form,
    random_form,
    random_p_closed_form,
    random_poly,
)

PRIMES = (2, 3, 5, 13)


def rebuilt(f, reverse):
    """f by the validating constructor, its monomials sorted or reversed."""
    return MultiPoly(f.p, f.n, dict(sorted(f.terms.items(), reverse=reverse)))


def rebuilt_form(form, reverse):
    terms = {}
    for index, c in form.terms.items():
        if isinstance(c, RatFun):
            terms[index] = RatFun(rebuilt(c.num, reverse), rebuilt(c.den, reverse))
        else:
            terms[index] = rebuilt(c, reverse)
    return DiffForm(form.p, form.n, form.r, terms)


def both(form):
    return rebuilt_form(form, False), rebuilt_form(form, True)


def over_a_pth_power(rng, form):
    """form with every coefficient divided by one differential constant."""
    lam = random_poly(rng, form.p, form.n, 2, 2, nonzero=True).substitute_pth()
    return form * RatFun(MultiPoly.constant(form.p, form.n, 1), lam)


def outcome(thunk):
    """The value of thunk, or the type and text of its FpFormsError."""
    try:
        return "ok", thunk()
    except FpFormsError as exc:
        return type(exc).__name__, str(exc)


def seeded_forms(p):
    """(kind, form) pairs: closed, p-closed and arbitrary, polynomial and
    rational."""
    rng = random.Random(2626 + p)
    for _ in range(12):
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        yield "closed", random_closed_form(rng, p, n, r)
        yield "pclosed", random_p_closed_form(rng, p, n, r)
        yield "any", random_form(rng, p, n, r, max_degree=2 * p, max_terms=6)
        yield "rational", random_form(rng, p, n, r, max_degree=3, rational=True)
        exact = random_exact_form(rng, p, n, r, max_degree=2 * p, max_terms=5)
        yield "rational-exact", over_a_pth_power(rng, exact)


def assert_reversal_shows(pairs):
    # the two builds differ in order somewhere, or the test shows nothing
    assert any(
        list(a.terms) != list(b.terms)
        for s, t in pairs
        for i, c in s.terms.items()
        for a, b in (
            [(c, t.terms[i])]
            if isinstance(c, MultiPoly)
            else [(c.num, t.terms[i].num)]
        )
    )


@pytest.mark.parametrize("p", PRIMES)
def test_operators_agree_by_value(p):
    # gamma0 multiplies exponents by p: raise the cap above every result
    with degree_limit(8 * p * p):
        pairs = compare_operators(p)
    assert_reversal_shows(pairs)


def compare_operators(p):
    pairs = []
    for kind, form in seeded_forms(p):
        s, t = both(form)
        pairs.append((s, t))
        assert s == t
        assert form_to_text(s) == form_to_text(t)
        assert json.dumps(form_to_doc(s)) == json.dumps(form_to_doc(t))
        for i, c in s.terms.items():
            polys = [(c, t.terms[i])] if isinstance(c, MultiPoly) else [
                (c.num, t.terms[i].num),
                (c.den, t.terms[i].den),
            ]
            for a, b in polys:
                assert a == b and hash(a) == hash(b)
        results = [
            lambda f: f.d(),
            lambda f: f + f,
            lambda f: (f + f) - f,
            lambda f: wedge(f, f),
            gamma0,
            lambda f: clear_denominators(f)[1],
        ]
        if kind != "any" and kind != "rational":
            results.append(lambda f: split_rational_irrational(f).rational)
            results.append(lambda f: split_rational_irrational(f).irrational)
        if kind in ("closed", "pclosed"):
            results.append(cartier)
        if kind in ("pclosed", "rational-exact"):
            results.append(integrate)
        if not kind.startswith("rational"):
            results.append(lambda f: split_complete_restricted(f).complete)
            results.append(lambda f: split_complete_restricted(f).restricted)
        for op in results:
            u, v = op(s), op(t)
            assert u == v
            assert form_to_text(u) == form_to_text(v)
            assert json.dumps(form_to_doc(u)) == json.dumps(form_to_doc(v))
        assert clear_denominators(s)[0] == clear_denominators(t)[0]
        assert hash(clear_denominators(s)[0]) == hash(clear_denominators(t)[0])
    return pairs


@pytest.mark.parametrize("p", PRIMES)
def test_polynomial_errors_name_the_same_offender(p):
    rng = random.Random(2727 + p)
    raised = {}
    for _ in range(150):
        n = rng.randint(1, 3)
        cap = rng.randint(2, 2 * p + 2)
        with degree_limit(4 * p + 8):
            f = random_poly(rng, p, n, max_degree=cap + 2, max_terms=8)
            g = random_poly(rng, p, n, max_degree=cap + 2, max_terms=8)
        fs, fr = rebuilt(f, False), rebuilt(f, True)
        gs, gr = rebuilt(g, False), rebuilt(g, True)
        i = rng.randint(1, n)
        k = rng.randint(2, 4)
        with degree_limit(cap):
            for op in (
                lambda a, b: a * b,
                lambda a, b: b * a,
                lambda a, b: a**k,
                lambda a, b: a.antiderivative(i),
                lambda a, b: a.substitute_pth(),
                lambda a, b: a.unsubstitute_pth(),
                lambda a, b: a.substitute_pth().unsubstitute_pth(),
            ):
                got = outcome(lambda: op(fs, gs))
                assert got == outcome(lambda: op(fr, gr))
                raised[got[0]] = raised.get(got[0], 0) + 1
    assert {"ok", "DegreeOverflow", "NotPthPower"} <= set(raised)
    assert raised["DegreeOverflow"] >= 50
    if p > 2:
        assert "ObstructedAntiderivative" in raised


@pytest.mark.parametrize("p", PRIMES)
def test_form_errors_name_the_same_offender(p):
    rng = random.Random(2828 + p)
    raised = {}
    for _ in range(40):
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        cap = rng.randint(2, 2 * p + 2)
        with degree_limit(4 * p + 8):
            a = random_form(rng, p, n, r, max_degree=cap + 1, max_terms=6)
            b = random_form(rng, p, n, n - r, max_degree=cap + 1, max_terms=6)
            exact = random_exact_form(rng, p, n, r, max_degree=cap + 1, max_terms=6)
        a2, b2, exact2 = both(a), both(b), both(exact)
        with degree_limit(cap):
            for thunk in (
                lambda s: wedge(a2[s], b2[s]),
                lambda s: integrate(exact2[s]),
                lambda s: integrate(a2[s]),
            ):
                got = outcome(lambda: thunk(0))
                assert got == outcome(lambda: thunk(1))
                raised[got[0]] = raised.get(got[0], 0) + 1
    assert {"ok", "DegreeOverflow"} <= set(raised)
