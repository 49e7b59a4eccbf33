import random

import pytest

from fpforms import (
    ArityMismatch,
    DegreeOverflow,
    IndexOutOfRange,
    MultiPoly,
    ObstructedAntiderivative,
    NotPthPower,
    PrimeMismatch,
    o_operator,
    p_operator,
    set_max_degree,
    variables,
)
from fpforms.sampling import random_poly

TRIALS = 150
PRIMES = (2, 3, 5, 7)


def rand_pair(rng):
    p = rng.choice(PRIMES)
    n = rng.randint(1, 3)
    return p, n


def test_construction_normalizes():
    f = MultiPoly(3, 2, {(1, 0): 4, (0, 1): 3, (2, 2): 0})
    # coefficients reduce mod p, zero coefficients drop
    assert f.terms == {(1, 0): 1}
    assert MultiPoly(3, 2, {}).is_zero()
    assert MultiPoly.constant(5, 1, 10).is_zero()
    assert MultiPoly.variable(5, 3, 2) == MultiPoly.monomial(5, 3, (0, 1, 0))


def test_construction_guards():
    with pytest.raises(DegreeOverflow):
        MultiPoly(3, 1, {(10_000,): 1})
    f = MultiPoly.variable(3, 2, 1)
    g = MultiPoly.variable(5, 2, 1)
    with pytest.raises(PrimeMismatch):
        f + g
    with pytest.raises(ArityMismatch):
        f + MultiPoly.variable(3, 3, 1)
    with pytest.raises(IndexOutOfRange):
        f.partial(3)


def test_max_degree_limit_is_adjustable():
    previous = set_max_degree(8)
    try:
        with pytest.raises(DegreeOverflow):
            MultiPoly.variable(3, 1, 1) ** 9
        assert (MultiPoly.variable(3, 1, 1) ** 8).max_var_degree() == 8
    finally:
        assert set_max_degree(previous) == 8


def test_ring_laws_random():
    rng = random.Random(2001)
    for _ in range(TRIALS):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n)
        g = random_poly(rng, p, n)
        h = random_poly(rng, p, n)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f - f == MultiPoly.zero(p, n)
        assert f * MultiPoly.constant(p, n, 1) == f


def test_power_matches_repeated_product():
    rng = random.Random(2002)
    for _ in range(40):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=3)
        acc = MultiPoly.constant(p, n, 1)
        for k in range(5):
            assert f**k == acc
            acc = acc * f


def test_partial_product_rule():
    rng = random.Random(2003)
    for _ in range(TRIALS):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n)
        g = random_poly(rng, p, n)
        i = rng.randint(1, n)
        assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


def test_partials_commute():
    rng = random.Random(2004)
    for _ in range(TRIALS):
        p, n = rand_pair(rng)
        if n == 1:
            continue
        f = random_poly(rng, p, n)
        i, j = rng.sample(range(1, n + 1), 2)
        assert f.partial(i).partial(j) == f.partial(j).partial(i)


def test_pth_derivative_vanishes():
    rng = random.Random(2005)
    for _ in range(60):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=2 * p)
        i = rng.randint(1, n)
        assert f.partial_pow(i, p).is_zero()
        assert f.partial_pow(i, 3 * p + 1).is_zero()


def test_partial_pow_fast_agrees_with_iterated_partial():
    # dual route: literally repeated partial vs partial_pow, its alias
    # partial_pow_fast, and at k = p-1 the closed form of residue_mask
    rng = random.Random(2006)
    for _ in range(TRIALS):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=2 * p + 1)
        i = rng.randint(1, n)
        k = rng.randint(0, p + 2)
        slow = f
        for _ in range(k):
            slow = slow.partial(i)
        assert f.partial_pow_fast(i, k) == slow
        assert f.partial_pow(i, k) == slow
        if k == p - 1:
            assert f.partial_multi((i,)) == slow


def test_partial_multi_is_mixed_p_minus_1_derivative():
    rng = random.Random(2007)
    for _ in range(60):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=2 * p)
        index = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        slow = f
        for i in index:
            slow = slow.partial_pow(i, p - 1)
        assert f.partial_multi(index) == slow
    # every residue-mask operator checks its index, even on the zero
    # polynomial: entries must lie in 1..n and must not repeat
    for f in (MultiPoly.monomial(3, 2, (2, 2)), MultiPoly.zero(3, 2)):
        for bad in ((0,), (3,), (1, "2"), (1, 1), (2, 1, 2)):
            with pytest.raises(IndexOutOfRange):
                f.partial_multi(bad)
            with pytest.raises(IndexOutOfRange):
                p_operator(f, bad)
            with pytest.raises(IndexOutOfRange):
                o_operator(f, bad)


def test_antiderivative_inverts_partial():
    rng = random.Random(2008)
    hits = 0
    for _ in range(TRIALS):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=2 * p)
        i = rng.randint(1, n)
        try:
            g = f.antiderivative(i)
        except ObstructedAntiderivative:
            # some monomial carries z_i^(p-1) mod p
            assert any(e[i - 1] % p == p - 1 for e in f.terms)
            continue
        hits += 1
        assert g.partial(i) == f
    assert hits > TRIALS // 4


def test_antiderivative_obstruction_is_exact():
    # z^(p-1) blocks, z^(p-1)+kp blocks, everything else integrates
    for p in PRIMES:
        for extra in (0, p, 2 * p):
            f = MultiPoly.monomial(p, 1, (p - 1 + extra,))
            with pytest.raises(ObstructedAntiderivative):
                f.antiderivative(1)
        for e in range(0, 2 * p):
            if e % p == p - 1:
                continue
            f = MultiPoly.monomial(p, 1, (e,))
            assert f.antiderivative(1).partial(1) == f


def test_differential_constants_are_pth_power_polynomials():
    rng = random.Random(2009)
    for _ in range(60):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n)
        g = f.substitute_pth()
        assert g.is_differential_constant()
        assert all(g.partial(i).is_zero() for i in range(1, n + 1))
        assert g.unsubstitute_pth() == f
    with pytest.raises(NotPthPower):
        MultiPoly.variable(3, 1, 1).unsubstitute_pth()


def test_frobenius_decompose_reconstructs():
    rng = random.Random(2010)
    for _ in range(60):
        p, n = rand_pair(rng)
        f = random_poly(rng, p, n, max_degree=2 * p + 1)
        parts = f.frobenius_decompose()
        total = MultiPoly.zero(p, n)
        for pattern, g in parts.items():
            assert all(0 <= e < p for e in pattern)
            assert g.is_differential_constant()
            assert not g.is_zero()
            total = total + g * MultiPoly.monomial(p, n, pattern)
        assert total == f


def test_str_is_canonical_and_parseable():
    f = MultiPoly(3, 2, {(2, 1): 2, (0, 0): 1, (1, 1): 1})
    assert str(f) == "2*z1^2*z2 + z1*z2 + 1"
    assert str(MultiPoly.zero(3, 2)) == "0"


def test_variables_helper():
    xs = variables(5, 3)
    assert len(xs) == 3
    assert xs[0] * xs[1] == MultiPoly.monomial(5, 3, (1, 1, 0))
