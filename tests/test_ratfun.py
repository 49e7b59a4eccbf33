import random

import pytest

from fpforms import (
    ArityMismatch,
    DegreeOverflow,
    DiffForm,
    MultiPoly,
    PrimeMismatch,
    RatFun,
    ZeroDenominator,
    clear_denominators,
    degree_limit,
    integrate,
    variables,
)
from fpforms.sampling import random_form, random_poly, random_ratfun

TRIALS = 120
# the results of the unchecked constructor are tested up to p = 13
TRUST_PRIMES = (2, 3, 5, 13)


def assert_clean(f):
    """f is exactly what the validating constructor builds from its parts."""
    assert not f.den.is_zero() and f.den.is_differential_constant()
    if f.num.is_zero():
        assert f.den.terms == {(0,) * f.n: 1}
    rebuilt = RatFun(f.num, f.den)
    assert (rebuilt.p, rebuilt.n) == (f.p, f.n)
    assert list(rebuilt.num.terms.items()) == list(f.num.terms.items())
    assert list(rebuilt.den.terms.items()) == list(f.den.terms.items())


def test_normal_form_inflates_nonconstant_denominators():
    (z,) = variables(3, 1)
    f = RatFun(z * z, z**3)
    # z^3 is already a differential constant: kept as is
    assert f.num == z * z and f.den == z**3
    g = RatFun(MultiPoly.constant(3, 1, 1), z)
    # 1/z becomes z^2/z^3 so the denominator is a p-th power
    assert g.num == z**2 and g.den == z**3


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_inflated_denominator_is_the_pth_power(p):
    # the constructor writes den^p as den with every exponent times p
    # (Frobenius); it must be the square-and-multiply power term for term
    rng = random.Random(3100 + p)
    inflated = 0
    with degree_limit(4 * p):
        for _ in range(30):
            n = rng.randint(1, 3)
            num = random_poly(rng, p, n, 3, 3, nonzero=True)
            den = random_poly(rng, p, n, 3, 3, nonzero=True)
            if den.is_differential_constant():
                continue
            f = RatFun(num, den)
            assert list(f.den.terms.items()) == list((den**p).terms.items())
            assert f.num == num * den ** (p - 1)
            inflated += 1
    assert inflated >= 20


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


def test_trusted_results_match_their_validated_rebuild():
    rng = random.Random(3006)
    # a - scaled cross-multiplies a.num * a.den by a.den^2, which at
    # p = 13 can pass the default cap
    with degree_limit(256):
        for _ in range(TRIALS):
            p = rng.choice(TRUST_PRIMES)
            n = rng.randint(1, 3)
            a = random_ratfun(rng, p, n)
            b = random_ratfun(rng, p, n)
            # over a's denominator, so + and - take the numerator-only path
            same = RatFun(random_poly(rng, p, n, max_degree=3), a.den)
            # a over a.den^2: unequal denominators whose cross terms cancel
            scaled = RatFun(a.num * a.den, a.den * a.den)
            zero = RatFun(MultiPoly.zero(p, n))
            i = rng.randint(1, n)
            index = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            every = rng.random() < 0.5
            results = [
                a + b,
                a + same,
                a + (-a),
                a + 2,
                a - b,
                a - same,
                a - a,
                a - scaled,
                -a,
                -zero,
                a * b,
                a * zero,
                a * same,
                a.partial(i),
                a.partial_pow(i, rng.randint(0, p)),
                a.partial_multi(index),
                a.residue_mask(
                    index,
                    every=every,
                    sign=rng.choice((1, -1)),
                    lower=every and rng.random() < 0.5,
                ),
            ]
            for f in results:
                assert_clean(f)
            assert (a - a).is_zero() and (a - scaled).is_zero()


def test_rational_potentials_are_clean():
    rng = random.Random(3008)
    integrated = {p: 0 for p in TRUST_PRIMES}
    for _ in range(80):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(2, 3)
        r = rng.randint(1, n)
        eta = random_form(rng, p, n, r - 1, max_degree=1, rational=True)
        try:
            omega = eta.d()
            theta = integrate(omega)
        except DegreeOverflow:
            continue
        integrated[p] += not theta.is_zero()
        rebuilt = DiffForm(p, n, r - 1, theta.terms)
        assert list(rebuilt.terms) == list(theta.terms)
        assert theta.d() == omega
        for index, coeff in theta.terms.items():
            assert isinstance(coeff, RatFun) and not coeff.is_zero()
            assert_clean(coeff)
            assert rebuilt.terms[index] is coeff
    assert all(integrated.values()), integrated


def test_same_denominator_equality_matches_cross_multiplication():
    rng = random.Random(3007)
    # the reference cross-multiplies a.num * a.den by a.den^2, which at
    # p = 13 can pass the default cap
    with degree_limit(256):
        for _ in range(TRIALS):
            p = rng.choice(TRUST_PRIMES)
            n = rng.randint(1, 3)
            a = random_ratfun(rng, p, n)
            den = a.den
            zero = MultiPoly.zero(p, n)
            pairs = [
                (a, a),
                (a, RatFun(a.num, den)),
                (a, RatFun(random_poly(rng, p, n, max_degree=3), den)),
                (a, RatFun(a.num * den, den * den)),
                (a, RatFun(a.num + 1, den)),
                (a, random_ratfun(rng, p, n)),
                (RatFun(zero, den), RatFun(zero)),
                (RatFun(zero), RatFun(random_poly(rng, p, n), den)),
            ]
            for f, g in pairs:
                expected = f.num * g.den == g.num * f.den
                assert (f == g) is expected
                assert (g == f) is expected
                assert (f != g) is not expected


def test_mixed_characteristics_and_arities_still_raise():
    x3, y3 = variables(3, 2)
    x5, y5 = variables(5, 2)
    (z3,) = variables(3, 1)
    cases = [
        (RatFun(x3), RatFun(x5), PrimeMismatch),
        (RatFun(x3, y3), RatFun(x5, y5), PrimeMismatch),
        (RatFun(x3), RatFun(z3), ArityMismatch),
        (RatFun(x3, y3), RatFun(z3, z3 + 1), ArityMismatch),
    ]
    for f, g, error in cases:
        for left, right in ((f, g), (g, f)):
            with pytest.raises(error):
                left + right
            with pytest.raises(error):
                left - right
            with pytest.raises(error):
                left * right
            # unequal denominators: == cross-multiplies
            with pytest.raises(error):
                left == right
