import random

import pytest

from fpforms import (
    DiffForm,
    MultiPoly,
    RatFun,
    ZeroDenominator,
    clear_denominators,
    variables,
)
from fpforms.sampling import random_form, random_poly, random_ratfun

TRIALS = 120


def test_normal_form_inflates_nonconstant_denominators():
    (z,) = variables(3, 1)
    f = RatFun(z * z, z**3)
    # z^3 is already a differential constant: kept as is
    assert f.num == z * z and f.den == z**3
    g = RatFun(MultiPoly.constant(3, 1, 1), z)
    # 1/z becomes z^2/z^3 so the denominator is a p-th power
    assert g.num == z**2 and g.den == z**3


def test_zero_denominator_rejected():
    (z,) = variables(3, 1)
    with pytest.raises(ZeroDenominator):
        RatFun(z, MultiPoly.zero(3, 1))


def test_zero_numerator_collapses():
    (z,) = variables(5, 1)
    f = RatFun(MultiPoly.zero(5, 1), z)
    assert f.is_zero() and f.den.is_constant()


def test_denominator_always_differential_constant():
    rng = random.Random(3001)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        f = random_ratfun(rng, p, n)
        assert f.den.is_differential_constant()


def test_field_laws_random():
    # p kept small: the p-th-power normal form inflates denominators, and
    # the distributivity probe multiplies three of them under the degree cap
    rng = random.Random(3002)
    for _ in range(TRIALS):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        a = random_ratfun(rng, p, n)
        b = random_ratfun(rng, p, n)
        c = random_ratfun(rng, p, n)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFun(MultiPoly.zero(p, n))
        if not b.is_zero():
            assert (a / b) * b == a


def test_cross_multiplied_equality():
    (z,) = variables(3, 1)
    one = MultiPoly.constant(3, 1, 1)
    # 1/z and z^2/z^3 are the same element of K(z)
    assert RatFun(one, z) == RatFun(z * z, z**3)
    assert RatFun(z, z**3) != RatFun(one, z)


def test_partial_quotient_rule():
    # dual route: numerator-only derivative on the normal form vs the
    # textbook quotient rule on the raw fraction
    rng = random.Random(3003)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 2)
        u = random_poly(rng, p, n)
        v = random_poly(rng, p, n, nonzero=True)
        i = rng.randint(1, n)
        f = RatFun(u, v)
        quotient_rule = RatFun(
            u.partial(i) * v - u * v.partial(i), v * v
        )
        assert f.partial(i) == quotient_rule


def test_frozen_derivative_values():
    (z,) = variables(3, 1)
    f = RatFun(z * z, z**3)
    assert f.partial(1) == RatFun(z + z, z**3)
    g = DiffForm(3, 2, 0, {(): RatFun(MultiPoly.monomial(3, 2, (2, 0)),
                                      MultiPoly.monomial(3, 2, (3, 0)))})
    # no z2 upstairs or downstairs
    assert g.coefficient(()).partial(2).is_zero()


def test_clear_denominators_least_pth_power():
    x, y = variables(3, 2)
    one = MultiPoly.constant(3, 2, 1)
    omega = DiffForm(3, 2, 1, {(1,): RatFun(one, x), (2,): RatFun(one, y)})
    lam, cleared = clear_denominators(omega)
    # one factor per distinct denominator, not one per occurrence
    assert lam == (x**3) * (y**3)
    assert cleared.is_polynomial
    assert cleared == omega * lam


def test_clear_denominators_deduplicates():
    x, y = variables(3, 2)
    one = MultiPoly.constant(3, 2, 1)
    omega = DiffForm(3, 2, 1, {(1,): RatFun(one, x), (2,): RatFun(y, x)})
    lam, cleared = clear_denominators(omega)
    assert lam == x**3
    assert cleared == omega * lam


def test_clear_denominators_round_trip():
    rng = random.Random(3004)
    for _ in range(60):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        omega = random_form(rng, p, n, r, rational=True)
        lam, cleared = clear_denominators(omega)
        assert lam.is_differential_constant()
        assert cleared.is_polynomial
        assert cleared == omega * lam
        # dividing back reproduces the input under cross-multiplication
        back = cleared * RatFun(MultiPoly.constant(p, n, 1), lam)
        assert back == omega


def test_closedness_invariant_under_differential_constants():
    rng = random.Random(3005)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n - 1)
        omega = random_form(rng, p, n, r)
        lam = random_poly(rng, p, n, nonzero=True).substitute_pth()
        assert (omega * lam).d() == omega.d() * lam


def test_hash_is_refused():
    (z,) = variables(3, 1)
    with pytest.raises(TypeError):
        hash(RatFun(z, z**3))
