"""The seeded generators against the validating construction they replaced.

random_poly and random_form check their arguments once per call and
build their results from trusted parts.  The reference below is the
earlier code, which sent every draw through the validating MultiPoly,
RatFun and DiffForm constructors.  On one seed both must draw the same
stream, build the same terms in the same order, and refuse a bad
characteristic, a bad arity or an exponent above the cap with the same
typed error.  The generators draw their integers through _randint, from
rng.getrandbits; the reference draws them with rng.randint, so these
tests also pin randint's stream and generator state after every draw.
"""

import random
from itertools import combinations

import pytest

from fpforms import (
    MAX_VARIABLES,
    ArityMismatch,
    DegreeOverflow,
    DiffForm,
    MultiPoly,
    Prime,
    PrimeOutOfRange,
    RatFun,
    degree_limit,
    gamma0,
    split_rational_irrational,
)
from fpforms.sampling import (
    _randint,
    random_closed_form,
    random_exact_form,
    random_form,
    random_p_closed_form,
    random_poly,
    random_ratfun,
)

PRIMES = (2, 3, 5, 13)
TRIALS = 100


# ----------------------------------------------------------------------
# the validating construction, as the generators were written before


def ref_exps(rng, n, max_degree):
    return tuple(rng.randint(0, max_degree) for _ in range(n))


def ref_poly(rng, p, n, max_degree=4, max_terms=3, nonzero=False):
    pint = int(p)
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        terms[ref_exps(rng, n, max_degree)] = rng.randint(1, pint - 1)
    f = MultiPoly(p, n, terms)
    if nonzero and f.is_zero():
        return MultiPoly.constant(p, n, rng.randint(1, pint - 1))
    return f


def ref_ratfun(rng, p, n, max_degree=2, max_terms=2):
    num = ref_poly(rng, p, n, max_degree, max_terms)
    den = ref_poly(rng, p, n, max_degree, max_terms, nonzero=True)
    return RatFun(num, den)


def ref_form(rng, p, n, r, max_degree=4, max_terms=3, rational=False):
    all_indices = list(combinations(range(1, n + 1), r))
    terms = {}
    for index in all_indices:
        if rng.random() < 0.4:
            continue
        if rational:
            terms[index] = ref_ratfun(rng, p, n, max_degree=max_degree)
        else:
            terms[index] = ref_poly(rng, p, n, max_degree, max_terms)
    return DiffForm(p, n, r, terms)


def ref_exact_form(rng, p, n, r, max_degree=4, max_terms=3):
    return ref_form(rng, p, n, r - 1, max_degree, max_terms).d()


def ref_gamma0_image(rng, p, n, r, max_degree=3):
    return gamma0(ref_form(rng, p, n, r, max_degree=max_degree, max_terms=2))


def ref_closed_form(rng, p, n, r, max_degree=3):
    return ref_exact_form(rng, p, n, r, max_degree) + ref_gamma0_image(
        rng, p, n, r, max_degree=max(1, max_degree - 1)
    )


def ref_p_closed_form(rng, p, n, r, max_degree=3):
    closed = ref_closed_form(rng, p, n, r, max_degree)
    rational_part = split_rational_irrational(closed).rational
    return ref_exact_form(rng, p, n, r, max_degree) + rational_part


# ----------------------------------------------------------------------


def shape(value):
    """Everything a result is made of, in its own order."""

    def poly(f):
        return (type(f.p), f.p.p, f.n, list(f.terms.items()))

    if isinstance(value, MultiPoly):
        return poly(value)
    if isinstance(value, RatFun):
        return ("ratfun", poly(value.num), poly(value.den))
    return (
        value.p.p,
        value.n,
        value.r,
        [(index, shape(c)) for index, c in value.terms.items()],
    )


def outcome(build, rng):
    try:
        return shape(build(rng))
    except (PrimeOutOfRange, ArityMismatch, DegreeOverflow) as exc:
        return (type(exc), str(exc))


def assert_same(new, ref, seed):
    """new and ref draw from one seed: same results, same stream after."""
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    assert outcome(new, new_rng) == outcome(ref, ref_rng)
    assert new_rng.getstate() == ref_rng.getstate()


def test_sampler_builds_what_the_validating_constructors_built():
    rng = random.Random(1414)
    for t in range(TRIALS):
        p = rng.choice(PRIMES)
        # the Prime is passed down from a form; callers pass an int
        arg = Prime(p) if t % 2 else p
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        d = rng.choice((1, 2, 2 * p))
        k = rng.randint(0, 6)
        pairs = [
            (random_poly, ref_poly, (arg, n, d, k)),
            (random_poly, ref_poly, (arg, n, d, k + 1, True)),
            (random_ratfun, ref_ratfun, (arg, n, d, k + 1)),
            (random_form, ref_form, (arg, n, r - 1, d, k)),
            (random_form, ref_form, (arg, n, r, min(d, 3), k, True)),
            (random_exact_form, ref_exact_form, (arg, n, r, d, k)),
            (random_closed_form, ref_closed_form, (arg, n, r, min(d, 3))),
            (random_p_closed_form, ref_p_closed_form, (arg, n, r, min(d, 3))),
        ]
        for new, ref, args in pairs:
            seed = rng.getrandbits(32)
            assert_same(
                lambda g: new(g, *args), lambda g: ref(g, *args), seed
            )


WIDTHS = (1, 2, 3, 4, 5) + tuple(
    w for k in (3, 4, 7, 8, 16, 31, 32, 33, 64, 100) for w in (2**k, 2**k + 1)
)


def test_randint_draws_randints_stream():
    for seed in range(10):
        new, ref = random.Random(seed), random.Random(seed)
        for width in WIDTHS:
            for a in (0, 1, -7):
                b = a + width - 1
                assert _randint(new, a, b) == ref.randint(a, b)
                assert new.getstate() == ref.getstate()
            assert _randint(new, 0, width - 1) == ref.randrange(width)
            assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("a, b", ((0, -1), (1, 0), (3, 1)))
def test_randint_refuses_an_empty_range_before_any_draw(a, b):
    rng = random.Random(9)
    state = rng.getstate()
    with pytest.raises(ValueError) as new:
        _randint(rng, a, b)
    with pytest.raises(ValueError) as ref:
        random.Random(9).randint(a, b)
    assert str(new.value) == str(ref.value)
    assert rng.getstate() == state


@pytest.mark.parametrize("p", PRIMES)
def test_samplers_draw_randints_stream_draw_by_draw(p):
    # one pair of generators runs through many draws, so a drift in any
    # one draw shows in every later one
    for n in range(1, 5):
        new, ref = random.Random(p * 10 + n), random.Random(p * 10 + n)
        for r in range(n + 1):
            for build, oracle, args in (
                (random_poly, ref_poly, (p, n, 2 * p, 4)),
                (random_poly, ref_poly, (p, n, 1, 3, True)),
                (random_form, ref_form, (p, n, r)),
                (random_form, ref_form, (p, n, r, 2, 2, True)),
                (random_closed_form, ref_closed_form, (p, n, max(r, 1), 2)),
            ):
                assert shape(build(new, *args)) == shape(oracle(ref, *args))
                assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("p", (4, 9, 2**31, "3", 3.0))
def test_a_bad_characteristic_is_refused_as_before(p):
    for new, ref, args in (
        (random_poly, ref_poly, (p, 2, 3, 4)),
        (random_form, ref_form, (p, 3, 1)),
        (random_form, ref_form, (p, 2, 1, 2, 2, True)),
        (random_exact_form, ref_exact_form, (p, 2, 2)),
    ):
        for seed in range(5):
            with pytest.raises(PrimeOutOfRange):
                new(random.Random(seed), *args)
            with pytest.raises(PrimeOutOfRange):
                ref(random.Random(seed), *args)


@pytest.mark.parametrize("p", (0, 1))
def test_a_characteristic_below_two_is_refused_before_any_draw(p):
    # the earlier code drew a residue from 1..p-1 first, an empty range
    rng = random.Random(5)
    state = rng.getstate()
    for build in (
        lambda: random_poly(rng, p, 2, nonzero=True),
        lambda: random_form(rng, p, 2, 1),
    ):
        with pytest.raises(PrimeOutOfRange):
            build()
    assert rng.getstate() == state


@pytest.mark.parametrize("n", (0, MAX_VARIABLES + 1))
def test_a_bad_arity_is_refused_as_before(n):
    for new, ref, args in (
        (random_poly, ref_poly, (3, n, 2, 2)),
        (random_form, ref_form, (3, n, 1, 2, 2)),
        (random_form, ref_form, (3, n, 0, 2, 2, True)),
        (random_exact_form, ref_exact_form, (3, n, 1, 2, 2)),
    ):
        for seed in range(3):
            with pytest.raises(ArityMismatch):
                new(random.Random(seed), *args)
            with pytest.raises(ArityMismatch):
                ref(random.Random(seed), *args)


def test_a_max_degree_above_the_cap_is_refused_as_before():
    raised = built = 0
    with degree_limit(5):
        for seed in range(60):
            for new, ref, args in (
                (random_poly, ref_poly, (3, 2, 7, 3)),
                (random_form, ref_form, (5, 3, 1, 6, 2)),
                (random_form, ref_form, (2, 2, 1, 6, 2, True)),
            ):
                assert_same(
                    lambda g: new(g, *args), lambda g: ref(g, *args), seed
                )
                try:
                    new(random.Random(seed), *args)
                    built += 1
                except DegreeOverflow:
                    raised += 1
    # both outcomes occur, so the cap scan is exercised either way
    assert raised > 20 and built > 20
