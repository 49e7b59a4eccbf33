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
from fpforms.ratfun import _cofactors, _pair, _quotient
from fpforms.sampling import random_form, random_poly, random_ratfun
from test_poly import RAISED_CAP, cap_rule

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
            assert f.den.terms == (den**p).terms
            assert f.num == num * den ** (p - 1)
            inflated += 1
    assert inflated >= 20


def _short_denominator(rng, p, n, max_degree, size):
    """A polynomial of size terms, 1 or 2, that is not a differential
    constant."""
    while True:
        den = random_poly(rng, p, n, max_degree, max_terms=2, nonzero=True)
        if len(den.terms) == size and not den.is_differential_constant():
            return den


def _normal_forms(num, den):
    """The constructor's normal form of num/den and the one through
    den ** (p-1), each as sorted terms or as its DegreeOverflow text."""
    p = num.p.p
    outcomes = []
    for build in (
        lambda: RatFun(num, den),
        lambda: RatFun._trusted(num * den ** (p - 1), den.substitute_pth()),
    ):
        try:
            f = build()
        except DegreeOverflow as err:
            outcomes.append(str(err))
        else:
            outcomes.append((sorted(f.num.terms.items()), sorted(f.den.terms.items())))
    return outcomes


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_short_denominators_match_the_square_and_multiply_power(p):
    # (a + b)^(p-1) = sum_j (-1)^j a^j b^(p-1-j) mod p, built in closed form
    rng = random.Random(3200 + p)
    overflows = 0
    for cap in (64, 20, 12) if p == 13 else (64,):
        with degree_limit(cap):
            for k in range(40):
                n = rng.randint(1, 3)
                num = random_poly(rng, p, n, 3, 3, nonzero=True)
                den = _short_denominator(rng, p, n, 3, 1 + k % 2)
                closed, powered = _normal_forms(num, den)
                assert closed == powered
                overflows += isinstance(closed, str)
    assert overflows >= (20 if p == 13 else 0)


def test_short_denominators_at_a_large_prime():
    p = 1009
    rng = random.Random(3209)
    with degree_limit(10**6):
        for n, size in ((1, 1), (1, 2), (2, 2)):
            num = random_poly(rng, p, n, 3, 3, nonzero=True)
            den = _short_denominator(rng, p, n, 3, size)
            closed, powered = _normal_forms(num, den)
            assert closed == powered


def test_only_long_denominators_take_the_power(monkeypatch):
    x, y = variables(13, 2)
    short = (x + 2 * y**4, 3 * y**4)
    long, tall = x + y + 1, x + y**5
    expected = x * long**12
    with degree_limit(RAISED_CAP):
        message = cap_rule([tall**12], 59)
    calls = _counting(monkeypatch, MultiPoly, "__pow__")
    for den in short:
        RatFun(x, den)
    assert calls == []
    assert RatFun(x, long).num == expected
    assert calls == ["__pow__"]
    with degree_limit(59):
        # 12 * 5 passes the cap: the closed form refuses tall^12 by the cap
        # rule before it builds a term, and takes no power
        with pytest.raises(DegreeOverflow) as caught:
            RatFun(x, tall)
    assert str(caught.value) == message
    assert message == "exponent 60 of z2 exceeds the degree limit 59"
    assert calls == ["__pow__"]


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


def _counting(monkeypatch, cls, name):
    """Wrap cls.name so each call appends to the returned list."""
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_one_denominator_clears_without_a_product():
    # with one distinct denominator, lam is that denominator and every
    # cleared coefficient is the numerator itself, not a copy
    rng = random.Random(3008)
    forms = []
    for p in TRUST_PRIMES:
        for n in (1, 2, 3):
            den = random_poly(rng, p, n, max_degree=2, nonzero=True)
            if den.is_constant():
                den = den + MultiPoly.variable(p, n, n)
            r = rng.randint(1, n)
            terms = {
                tuple(range(k + 1, k + 1 + r)): RatFun(
                    random_poly(rng, p, n, max_degree=3, nonzero=True), den
                )
                for k in range(n - r + 1)
            }
            forms.append(DiffForm(p, n, r, terms))
    for omega in forms:
        lam, a = clear_denominators(omega)
        (coeff, *_) = omega.terms.values()
        assert lam is coeff.den
        assert a == omega * lam
        for index, c in omega.terms.items():
            assert a.terms[index] is c.num


def test_one_denominator_still_checks_the_cap():
    # the skipped products by 1 checked lam, then each numerator in
    # order, against the cap; the clearing still does
    with degree_limit(200):
        x, y = variables(3, 2)
        tall_num = DiffForm(
            3, 2, 1, {(1,): RatFun(x, y**3), (2,): RatFun(x**80, y**3)}
        )
        tall_den = DiffForm(
            3, 2, 1, {(1,): RatFun(x**70, y**81), (2,): RatFun(x, y**81)}
        )
    for omega, message in (
        (tall_num, "exponent 80 of z1 exceeds the degree limit 64"),
        (tall_den, "exponent 81 of z2 exceeds the degree limit 64"),
    ):
        with pytest.raises(DegreeOverflow, match="^%s$" % message):
            clear_denominators(omega)
        with pytest.raises(DegreeOverflow, match="^%s$" % message):
            DiffForm(3, 2, 1, omega.terms).d()


def test_a_polynomial_form_clears_to_itself():
    rng = random.Random(3011)
    for p in TRUST_PRIMES:
        n = rng.randint(1, 3)
        omega = random_form(rng, p, n, rng.randint(0, n))
        lam, cleared = clear_denominators(omega)
        assert cleared is omega
        assert lam == MultiPoly.constant(p, n, 1)


def _form_over(rng, p, nonconstant, constant):
    """A 2-form in 4 variables over the given numbers of distinct
    nonconstant and constant denominators, each used at least once."""
    n = 4
    dens = []
    while len(dens) < nonconstant:
        q = random_poly(rng, p, n, max_degree=1, max_terms=2, nonzero=True)
        if not q.is_constant() and q.substitute_pth() not in dens:
            dens.append(q.substitute_pth())
    dens += [MultiPoly.constant(p, n, c) for c in rng.sample(range(1, p), constant)]
    indices = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    picked = dens + [rng.choice(dens) for _ in indices[len(dens):]]
    rng.shuffle(picked)
    terms = {
        index: RatFun(random_poly(rng, p, n, max_degree=2, nonzero=True), den)
        for index, den in zip(indices, picked)
    }
    return DiffForm(p, n, 2, terms)


def test_every_denominator_has_one_multiplier():
    # the table maps every distinct denominator, constant ones included,
    # to an m with m * den = lam, and clearing applies it and nothing else
    rng = random.Random(3012)
    seen = set()
    for p in TRUST_PRIMES:
        for nonconstant in range(4):
            for constant in range(min(3, p)):
                if nonconstant + constant == 0:
                    continue
                for _ in range(3):
                    omega = _form_over(rng, p, nonconstant, constant)
                    with degree_limit(1024):
                        lam, table = _cofactors(omega)
                        dens = [c.den for c in omega.terms.values()]
                        assert list(table) == list(dict.fromkeys(dens))
                        kinds = [den.is_constant() for den in table]
                        seen.add((kinds.count(False), kinds.count(True)))
                        for den, m in table.items():
                            assert m * den == lam
                        cleared_lam, cleared = clear_denominators(omega)
                        assert cleared_lam == lam and cleared.is_polynomial
                        for index, c in omega.terms.items():
                            assert cleared.terms[index] * c.den == c.num * lam
    assert seen == {(k, c) for k in range(4) for c in range(3)} - {(0, 0)}


def test_constant_denominators_alone_check_no_cap():
    # a constant denominator is folded in by an int scaling, which checks
    # no cap; beside a nonconstant one it meets lam in a checked product
    with degree_limit(100):
        x, y = variables(3, 2)
        two = MultiPoly.constant(3, 2, 2)
        tall = RatFun(x**80, two)
    flat = DiffForm(3, 2, 1, {(1,): tall, (2,): RatFun(y, two + two)})
    lam, cleared = clear_denominators(flat)
    assert lam == MultiPoly.constant(3, 2, 1)
    assert cleared.terms[(1,)] == tall.num * 2
    mixed = DiffForm(3, 2, 1, {(1,): tall, (2,): RatFun(y, y**3)})
    with pytest.raises(
        DegreeOverflow, match="^exponent 80 of z1 exceeds the degree limit 64$"
    ):
        clear_denominators(mixed)


def test_ratfun_times_int_scales_the_numerator(monkeypatch):
    # an int factor builds no RatFun for itself; the result is the one
    # the product by the coerced constant gives
    rng = random.Random(3010)
    cases = []
    for p in TRUST_PRIMES:
        for _ in range(TRIALS // 4):
            n = rng.randint(1, 3)
            a = random_ratfun(rng, p, n)
            c = rng.choice((0, 1, -1, p, p + 1, rng.randint(2, 10**6)))
            cases.append((a, c))
    calls = _counting(monkeypatch, RatFun, "__init__")
    got = [(a * c, c * a) for a, c in cases]
    assert calls == []
    monkeypatch.undo()
    for (a, c), products in zip(cases, got):
        want = a * RatFun(MultiPoly.constant(a.p, a.n, c))
        for f in products:
            assert_clean(f)
            assert list(f.num.terms.items()) == list(want.num.terms.items())
            assert list(f.den.terms.items()) == list(want.den.terms.items())


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
    # a + b over denominators that do not divide each other multiplies
    # them, which at p = 13 can pass the default cap
    equal_dens = set()
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
            # + and - against the pairwise formula, term for term: over
            # the denominator that the other divides, else over the product
            for g in (b, same, scaled):
                equal_dens.add(a.den == g.den)
                up, down = _quotient(a.den, g.den), _quotient(g.den, a.den)
                if a.den == g.den:
                    left, right, den = a.num, g.num, a.den
                elif up is not None:
                    left, right, den = a.num, g.num * up, a.den
                elif down is not None:
                    left, right, den = a.num * down, g.num, a.den * down
                else:
                    left, right, den = a.num * g.den, g.num * a.den, a.den * g.den
                for result, num in ((a + g, left + right), (a - g, left - right)):
                    expected = RatFun._trusted(num, den)
                    assert list(result.num.terms.items()) == list(expected.num.terms.items())
                    assert list(result.den.terms.items()) == list(expected.den.terms.items())
    assert equal_dens == {True, False}


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
        # every denominator of omega divides the cleared lam, so ==
        # stays below the default cap
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
            # unequal denominators: == pairs them
            with pytest.raises(error):
                left == right


# ----------------------------------------------------------------------
# exact division, and the one rule where two denominators meet


def test_quotient_divides_exactly_at_every_arity():
    # n up to 9 passes the unrolled exponent kernels; f * g + c, c a
    # nonzero constant, is not divisible by a nonconstant g
    rng = random.Random(3013)
    arities = set()
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 9)
        f = random_poly(rng, p, n, max_degree=3, max_terms=4)
        g = random_poly(rng, p, n, max_degree=3, max_terms=3, nonzero=True)
        c = MultiPoly.constant(p, n, rng.randint(1, p - 1))
        assert _quotient(f * g, g) == f
        assert _quotient(f * g, c) * c == f * g
        if not g.is_constant():
            assert _quotient(f * g + c, g) is None
            assert _quotient(c, g) is None
        q = _quotient(f, g)
        assert q is None or q * g == f
        arities.add(n)
    assert max(arities) == 9


def test_quotient_never_raises_under_a_lowered_cap():
    # long division builds nothing past the dividend's degrees, unchecked
    rng = random.Random(3014)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 9)
        f = random_poly(rng, p, n, max_degree=6, max_terms=4, nonzero=True)
        g = random_poly(rng, p, n, max_degree=6, max_terms=3, nonzero=True)
        c = MultiPoly.constant(p, n, rng.randint(1, p - 1))
        cases = [(f * g, g), (f * g + 1, g), (g, f * g + 1), (f, g), (g, f), (f, c)]
        expected = [_quotient(a, b) for a, b in cases]
        with degree_limit(rng.randint(1, 5)):
            assert [_quotient(a, b) for a, b in cases] == expected


def test_pair_meets_two_denominators_in_one_multiple():
    # the side that the other divides gets 1, and else each side the
    # other; the multiple stays a p-th power
    rng = random.Random(3015)
    kinds = set()
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 9)
        one = MultiPoly.constant(p, n, 1)
        u, v = (
            random_poly(rng, p, n, max_degree=2, max_terms=2, nonzero=True).substitute_pth()
            for _ in range(2)
        )
        for a, b in ((u, v), (u, u * v), (u * v, v), (u, u * rng.randint(1, p - 1))):
            ma, mb = _pair(a, b)
            assert ma * a == mb * b and (ma * a).is_differential_constant()
            if _quotient(a, b) is not None:
                kinds.add("b divides a")
                assert ma == one and mb * b == a
            elif _quotient(b, a) is not None:
                kinds.add("a divides b")
                assert mb == one and ma * a == b
            else:
                kinds.add("neither")
                assert (ma, mb) == (b, a)
    assert kinds == {"b divides a", "a divides b", "neither"}


def _old_is_constant(f):
    """RatFun.is_constant as it was: num == den * c, with c read off the
    coefficients of den's first monomial."""
    if f.num.is_zero():
        return True
    exps, a = next(iter(f.den.terms.items()))
    b = f.num.coefficient(exps)
    return b != 0 and f.num == f.den * (b * pow(a, -1, f.p.p) % f.p.p)


def test_is_constant_agrees_with_the_old_definition():
    rng = random.Random(3016)
    values = set()
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 9)
        den = random_poly(rng, p, n, max_degree=2, max_terms=2, nonzero=True)
        c = rng.randint(0, p - 1)
        for f in (
            random_ratfun(rng, p, n),
            RatFun(den * c, den),
            RatFun(den * c + 1, den),
            RatFun(MultiPoly.constant(p, n, c)),
            RatFun(den, den * den),
        ):
            values.add(f.is_constant())
            assert f.is_constant() == _old_is_constant(f)
    assert values == {True, False}
