import random
import sys

import pytest

from fpforms import (
    MAX_VARIABLES,
    ArityMismatch,
    DegreeOverflow,
    DiffForm,
    IndexOutOfRange,
    MultiPoly,
    ObstructedAntiderivative,
    NotPthPower,
    Prime,
    PrimeMismatch,
    degree_limit,
    gamma0,
    max_degree_limit,
    o_operator,
    p_operator,
    parse_form,
    variables,
)
from fpforms.sampling import random_poly

TRIALS = 150
PRIMES = (2, 3, 5, 7)
# the results of the unchecked constructor are tested up to p = 13
TRUST_PRIMES = (2, 3, 5, 13)


def assert_canonical(f):
    """f is exactly what the validating constructor builds from its terms."""
    assert isinstance(f.p, Prime)
    assert all(len(e) == f.n for e in f.terms)
    assert all(type(c) is int and 0 < c < f.p.p for c in f.terms.values())
    rebuilt = MultiPoly(f.p, f.n, f.terms)
    assert rebuilt == f
    assert list(rebuilt.terms.items()) == list(f.terms.items())
    assert hash(rebuilt) == hash(f)


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


@pytest.mark.parametrize(
    "n", (MAX_VARIABLES + 1, 10**6, sys.maxsize + 1, int("9" * 4000))
)
def test_arity_above_the_bound_is_refused_before_any_tuple(n):
    # a dense exponent tuple of n entries would be built next, so the
    # validating constructors and the parser refuse n first
    message = "^n exceeds the variable limit %d$" % MAX_VARIABLES
    for build in (
        lambda: MultiPoly(3, n, {}),
        lambda: DiffForm(3, n, 1, {}),
        lambda: parse_form("x dy", 3, n),
    ):
        with pytest.raises(ArityMismatch, match=message):
            build()


def test_arity_at_the_bound_is_accepted():
    f = parse_form("x dy", 3, MAX_VARIABLES)
    assert f.n == MAX_VARIABLES and str(f.d()) == "dz1^dz2"


def test_max_degree_limit_is_adjustable():
    with degree_limit(8):
        with pytest.raises(DegreeOverflow):
            MultiPoly.variable(3, 1, 1) ** 9
        assert (MultiPoly.variable(3, 1, 1) ** 8).max_var_degree() == 8
        assert max_degree_limit() == 8


def test_degree_limit_restores_the_cap_in_force_before():
    outer = max_degree_limit()
    with degree_limit(8):
        with degree_limit(3):
            assert max_degree_limit() == 3
        assert max_degree_limit() == 8
        with pytest.raises(DegreeOverflow):
            with degree_limit(2):
                MultiPoly.variable(3, 1, 1) ** 3
        assert max_degree_limit() == 8
    assert max_degree_limit() == outer
    for bad in (0, -1, 2.0, "8"):
        with pytest.raises(ValueError):
            with degree_limit(bad):
                pass
    assert max_degree_limit() == outer


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


def test_trusted_results_match_their_validated_rebuild():
    rng = random.Random(2012)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 3)
        f = random_poly(rng, p, n, max_degree=2 * p, max_terms=6)
        g = random_poly(rng, p, n, max_degree=2 * p, max_terms=6)
        # small enough that z^E -> z^(pE + p-1) stays within the cap
        small = random_poly(
            rng, p, n, max_degree=(max_degree_limit() - p + 1) // p, max_terms=6
        )
        shift = tuple(rng.randint(0, p - 1) for _ in range(n))
        i = rng.randint(1, n)
        index = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
        every = rng.random() < 0.5
        k = rng.randint(-p, 2 * p)
        results = [
            f + g,
            f - g,
            f - f,
            -f,
            f * k,
            k * f,
            f * g,
            f**2,
            f.partial(i),
            f.residue_mask(
                index,
                every=every,
                sign=rng.choice((1, -1)),
                lower=every and rng.random() < 0.5,
            ),
            f.partial_multi(index),
            small.substitute_pth(),
            small.substitute_pth(shift),
            small.substitute_pth().unsubstitute_pth(),
        ]
        results.extend(f.frobenius_decompose().values())
        try:
            results.append(f.antiderivative(i))
        except ObstructedAntiderivative:
            pass
        for h in results:
            assert_canonical(h)


def test_exponent_growing_ops_check_the_cap():
    with degree_limit(12):
        z, w = variables(3, 2)
        assert (z**6 * z**6).max_var_degree() == 12
        with pytest.raises(DegreeOverflow):
            z**6 * z**7
        with pytest.raises(DegreeOverflow):
            (z**6 + w**7) * (z**6 + w**6)
        # the degree sum exceeds the cap, no single exponent does
        assert (z**7 * w**7).max_var_degree() == 7
        assert (z**12).max_var_degree() == 12
        with pytest.raises(DegreeOverflow):
            z**13
        # antiderivative grows its own variable only
        assert (z**10 * w**12).antiderivative(1).max_var_degree() == 12
        with pytest.raises(DegreeOverflow):
            (z**12).antiderivative(1)
        assert (z**4).substitute_pth().max_var_degree() == 12
        with pytest.raises(DegreeOverflow):
            (z**5).substitute_pth()
        with pytest.raises(DegreeOverflow):
            (z**4).substitute_pth((1, 0))
        # gamma0 at p = 2 sends z^E dz to z^(2E+1) dz
        assert gamma0(DiffForm(2, 1, 1, {(1,): MultiPoly.monomial(2, 1, (5,))})) == (
            DiffForm(2, 1, 1, {(1,): MultiPoly.monomial(2, 1, (11,))})
        )
        with pytest.raises(DegreeOverflow):
            gamma0(DiffForm(2, 1, 1, {(1,): MultiPoly.monomial(2, 1, (6,))}))
        assert max_degree_limit() == 12


def test_arguments_of_trusted_ops_are_checked():
    z = MultiPoly.variable(3, 2, 1)
    with pytest.raises(ArityMismatch):
        z.substitute_pth((1,))
    with pytest.raises(ValueError):
        z.substitute_pth((1, -1))
    with pytest.raises(ValueError):
        z.residue_mask((1,), sign=2)
    # with every=False a kept monomial need not be divisible by z_index^(p-1)
    with pytest.raises(ValueError):
        MultiPoly.monomial(3, 2, (2, 0)).residue_mask((1, 2), every=False, lower=True)


def test_lowering_the_cap_spares_exponent_preserving_ops():
    # the cap is checked where exponents grow; a polynomial built under a
    # higher cap keeps working with every operation that does not raise one
    f = MultiPoly.monomial(3, 2, (10, 2)) + 1
    g = MultiPoly.monomial(3, 2, (10, 1)) + 1
    with degree_limit(8):
        for h in (-f, f + f, f - 1, 2 * f, f.partial(1), f.residue_mask((2,))):
            assert h.max_var_degree() in (9, 10)
        assert g.antiderivative(2).max_var_degree() == 10
        with pytest.raises(DegreeOverflow):
            f * f
        with pytest.raises(DegreeOverflow):
            MultiPoly(3, 2, f.terms)
        assert max_degree_limit() == 8


def fold_product(f, g):
    """f * g as the pairwise fold that reduces as it goes, with the
    DegreeOverflow message it gives: the first offending exponent in the
    order in which each monomial's running sum last turned nonzero."""
    p = f.p.p
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    limit = max_degree_limit()
    for exps in out:
        for i, e in enumerate(exps, start=1):
            if e > limit:
                raise DegreeOverflow(
                    "exponent %d of z%d exceeds the degree limit %d" % (e, i, limit)
                )
    return MultiPoly(f.p, f.n, out)


def fold_power(f, k):
    """f ** k by the square-and-multiply order of MultiPoly.__pow__."""
    out = MultiPoly.constant(f.p, f.n, 1)
    base = f
    while k:
        if k & 1:
            out = fold_product(out, base)
        k >>= 1
        if k:
            base = fold_product(base, base)
    return out


def outcome(thunk):
    try:
        return ("ok", list(thunk().terms.items()))
    except DegreeOverflow as exc:
        return ("overflow", str(exc))


def test_product_overflow_names_the_same_exponent():
    with degree_limit(5):
        # z1^8 cancels (mod 3) and comes back after z1^6 is made, so the
        # fold names 8; the first monomial made, z1^6, is not the one named
        f = MultiPoly(3, 1, {(5,): 2, (3,): 1, (2,): 2, (1,): 1})
        g = MultiPoly(3, 1, {(5,): 2, (4,): 2, (2,): 2, (1,): 2, (0,): 1})
        with pytest.raises(DegreeOverflow) as caught:
            f * g
        assert str(caught.value) == "exponent 8 of z1 exceeds the degree limit 5"
    rng = random.Random(2014)
    overflows = 0
    for _ in range(1500):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        cap = rng.randint(3, 8)
        f = random_poly(rng, p, n, max_degree=cap, max_terms=10)
        g = random_poly(rng, p, n, max_degree=cap, max_terms=10)
        k = rng.randint(2, 4)
        with degree_limit(cap):
            got = outcome(lambda: f * g)
            assert got == outcome(lambda: fold_product(f, g))
            assert outcome(lambda: f**k) == outcome(lambda: fold_power(f, k))
        overflows += got[0] == "overflow"
    assert overflows > 500


def test_residue_mask_matches_a_per_monomial_reference():
    # the every and any passes, on one to n variables, against the definition
    rng = random.Random(2015)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 4)
        f = random_poly(rng, p, n, max_degree=3 * p, max_terms=12)
        index = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
        every = rng.random() < 0.5
        lower = every and rng.random() < 0.5
        sign = rng.choice((1, -1))
        test = all if every else any
        expected = {}
        for exps, c in f.terms.items():
            if test(exps[i - 1] % p == p - 1 for i in index):
                if lower:
                    exps = tuple(
                        e - (p - 1 if i in index else 0)
                        for i, e in enumerate(exps, start=1)
                    )
                expected[exps] = c * sign % p
        got = f.residue_mask(index, every=every, sign=sign, lower=lower)
        assert list(got.terms.items()) == list(
            MultiPoly(p, n, expected).terms.items()
        )
    z = MultiPoly.variable(3, 2, 1)
    for bad in ((0,), (3,), ("1",)):
        with pytest.raises(IndexOutOfRange):
            z.residue_mask(bad)


def test_subtraction_is_one_signed_merge():
    rng = random.Random(2016)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 3)
        f = random_poly(rng, p, n, max_degree=2 * p, max_terms=6)
        g = random_poly(rng, p, n, max_degree=2 * p, max_terms=6)
        k = rng.randint(-p, 2 * p)
        for got, expected in (
            (f - g, f + (-g)),
            (f - f, MultiPoly.zero(p, n)),
            (f - k, f + (-MultiPoly.constant(p, n, k))),
            (k - f, (-f) + k),
        ):
            assert_canonical(got)
            assert list(got.terms.items()) == list(expected.terms.items())


def test_max_var_degree_matches_a_per_monomial_reference():
    def reference(f):
        best = 0
        for exps in f.terms:
            m = max(exps)
            if m > best:
                best = m
        return best

    (z,) = variables(7, 1)
    assert (z**9 + z**2 + 3).max_var_degree() == 9
    assert MultiPoly.zero(7, 1).max_var_degree() == 0
    assert MultiPoly.zero(5, 3).max_var_degree() == 0
    assert MultiPoly.constant(5, 3, 4).max_var_degree() == 0
    rng = random.Random(2017)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 4)
        f = random_poly(rng, p, n, max_degree=3 * p, max_terms=8)
        assert f.max_var_degree() == reference(f)
