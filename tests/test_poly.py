import random
import sys

import pytest

from fpforms import (
    MAX_VARIABLES,
    ArityMismatch,
    DegreeMismatch,
    DegreeOverflow,
    DiffForm,
    IndexOutOfRange,
    MultiPoly,
    ObstructedAntiderivative,
    NotPthPower,
    Prime,
    PrimeMismatch,
    RatFun,
    degree_limit,
    gamma0,
    max_degree_limit,
    o_operator,
    p_operator,
    parse_form,
    variables,
)
from fpforms.errors import FpFormsError
from fpforms.operators import p_decompose_step
from fpforms.poincare import integrate
from fpforms.poly import (
    _ADD_KERNELS,
    _FLOORDIV_KERNELS,
    _SCALE_ADD_KERNELS,
    _UNROLLED_ARITY,
    _kernel,
)
from fpforms.sampling import random_exps, random_form, random_poly

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
    # validating constructors, the classmethods and the parser refuse n first
    message = "^n exceeds the variable limit %d$" % MAX_VARIABLES
    for build in (
        lambda: MultiPoly(3, n, {}),
        lambda: MultiPoly.constant(3, n, 1),
        lambda: MultiPoly.variable(3, n, 1),
        lambda: DiffForm(3, n, 1, {}),
        lambda: parse_form("x dy", 3, n),
    ):
        with pytest.raises(ArityMismatch, match=message):
            build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: DiffForm(3, -(10**5000), 0),
            ArityMismatch,
            "need at least one variable, got n=-<5001-digit int>",
        ),
        (
            lambda: MultiPoly.constant(3, -(10**5000), 1),
            ArityMismatch,
            "need at least one variable, got n=-<5001-digit int>",
        ),
        (
            lambda: MultiPoly(3, 1, {(10**5000,): 1}),
            DegreeOverflow,
            "exponent <5001-digit int> of z1 exceeds the degree limit 64",
        ),
        (
            lambda: MultiPoly(3, 2, {(10**5000,): 1}),
            ArityMismatch,
            "exponent vector (<5001-digit int>,) has length 1, expected 2",
        ),
        (
            lambda: MultiPoly.variable(3, 2, 10**5000),
            IndexOutOfRange,
            "variable z<5001-digit int> outside 1..2",
        ),
        (
            lambda: MultiPoly.variable(3, 2, 1).partial(10**5000),
            IndexOutOfRange,
            "variable z<5001-digit int> outside 1..2",
        ),
        (
            lambda: DiffForm(3, 2, 1, {(10**5000,): 1}),
            IndexOutOfRange,
            "index entry <5001-digit int> outside 1..2",
        ),
        (
            lambda: DiffForm(3, 2, 10**5000, {(1,): 1}),
            DegreeMismatch,
            "index (1,) has length 1 in a degree-<5001-digit int> form",
        ),
        (
            lambda: MultiPoly.variable(3, 2, 1).substitute_pth((10**5000,)),
            ArityMismatch,
            "shift (<5001-digit int>,) has length 1, expected 2",
        ),
        (
            lambda: MultiPoly.variable(3, 2, 1).substitute_pth((10**5000, -1)),
            ValueError,
            "bad shift (<5001-digit int>, -1)",
        ),
        (
            lambda: MultiPoly.variable(3, 2, 1).residue_mask((1,), sign=10**5000),
            ValueError,
            "sign must be +1 or -1, got <5001-digit int>",
        ),
        (
            lambda: p_decompose_step(DiffForm.basis(3, 2, (1,)), 10**5000),
            IndexOutOfRange,
            "variable z<5001-digit int> outside 1..2",
        ),
    ],
    ids=[
        "form-arity",
        "constant-arity",
        "exponent-above-cap",
        "exponent-vector-length",
        "variable-index",
        "partial-index",
        "form-index-entry",
        "form-degree",
        "shift-length",
        "shift-entry",
        "mask-sign",
        "decompose-index",
    ],
)
def test_an_int_too_long_to_print_is_named_by_its_digit_count(build, error, message):
    # str() refuses an int of more than 4300 digits, so a message that
    # printed one would raise a bare ValueError in place of the typed error
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_a_zero_form_of_a_degree_too_long_to_print_has_a_repr():
    # any degree is valid for a zero form, and repr names it by its digits
    text = "DiffForm(p=3, n=1, r=<5001-digit int>, 0)"
    assert repr(DiffForm(3, 1, 10**5000)) == text


@pytest.mark.parametrize(
    "exps, error, message",
    [
        ((1, -1), ValueError, "bad exponent -1 for z2"),
        ((True, 0), ValueError, "bad exponent True for z1"),
        ((0, 1.0), ValueError, "bad exponent 1.0 for z2"),
        ((65, -1), DegreeOverflow, "exponent 65 of z1 exceeds the degree limit 64"),
        ((-1, 65), ValueError, "bad exponent -1 for z1"),
        ((0, 0, 0), ArityMismatch, "exponent vector (0, 0, 0) has length 3, "
         "expected 2"),
    ],
)
def test_the_constructor_names_the_first_bad_exponent(exps, error, message):
    # the variables are tested in order, each for type and sign before the cap
    with pytest.raises(error) as caught:
        MultiPoly(3, 2, {(0, 0): 1, exps: 1})
    assert type(caught.value) is error and str(caught.value) == message


_BIG = 10**4999 + 7  # 5000 digits, more than str() will print


def _int_slots():
    """Every slot that takes an int, as a function of the value put in it."""
    z = MultiPoly.variable(3, 1, 1)
    q = RatFun(z, z + 1)
    w = DiffForm.basis(3, 1, (1,)) * z
    return {
        "MultiPoly(coefficient)": lambda c: MultiPoly(3, 1, {(1,): c}),
        "DiffForm(scalar)": lambda c: DiffForm(3, 1, 1, {(1,): c}),
        "MultiPoly * c": lambda c: z * c,
        "c * MultiPoly": lambda c: c * z,
        "MultiPoly + c": lambda c: z + c,
        "c + MultiPoly": lambda c: c + z,
        "MultiPoly - c": lambda c: z - c,
        "c - MultiPoly": lambda c: c - z,
        "RatFun * c": lambda c: q * c,
        "c * RatFun": lambda c: c * q,
        "RatFun + c": lambda c: q + c,
        "c + RatFun": lambda c: c + q,
        "RatFun - c": lambda c: q - c,
        "c - RatFun": lambda c: c - q,
        "DiffForm * c": lambda c: w * c,
        "c * DiffForm": lambda c: c * w,
    }


@pytest.mark.parametrize("slot", sorted(_int_slots()))
@pytest.mark.parametrize("value", [True, False, 1.0, 1.9, "2"], ids=repr)
def test_every_int_slot_refuses_other_types(slot, value):
    # only type(c) is int is a coefficient: no bool, float or str
    with pytest.raises(TypeError) as caught:
        _int_slots()[slot](value)
    # c - f names the operator it was given, not the + it reduces to
    assert " for +:" not in str(caught.value) or "+" in slot


def _enter_degree_limit(limit):
    with degree_limit(limit):
        pass


def _index_and_count_slots():
    """Each index, order, shift and limit slot -> (its error, a call that
    puts value there)."""
    f = MultiPoly.variable(3, 2, 1) + 1
    form = parse_form("z1^2 dz1^dz2", 3, 2)
    return {
        "partial": (IndexOutOfRange, lambda v: f.partial(v)),
        "partial_pow order": (ValueError, lambda v: f.partial_pow(1, v)),
        "antiderivative": (IndexOutOfRange, lambda v: f.antiderivative(v)),
        "variable": (IndexOutOfRange, lambda v: MultiPoly.variable(3, 2, v)),
        "substitute_pth shift": (ValueError, lambda v: f.substitute_pth((v, 0))),
        "residue_mask": (IndexOutOfRange, lambda v: f.residue_mask((v,))),
        "residue_mask sign": (ValueError, lambda v: f.residue_mask((1,), sign=v)),
        "p_decompose_step": (IndexOutOfRange, lambda v: p_decompose_step(form, v)),
        "degree_limit": (ValueError, _enter_degree_limit),
    }


@pytest.mark.parametrize("slot", sorted(_index_and_count_slots()))
@pytest.mark.parametrize("value", [True, False], ids=repr)
def test_every_index_and_count_slot_refuses_a_bool(slot, value):
    # type(i) is int: True is not the index, order, shift or cap 1, nor
    # False the 0
    error, call = _index_and_count_slots()[slot]
    with pytest.raises(error) as caught:
        call(value)
    assert caught.type is error
    assert max_degree_limit() == 64


@pytest.mark.parametrize("slot", sorted(_int_slots()))
def test_every_int_slot_takes_a_long_int_and_reduces_it(slot):
    make = _int_slots()[slot]
    assert make(_BIG) == make(_BIG % 3) == make(_BIG % 3 + 3 * _BIG)


@pytest.mark.parametrize("value", [True, False, 1.0, 2.0, "2"], ids=repr)
def test_a_power_refuses_every_exponent_but_an_int(value):
    with pytest.raises(ValueError, match="nonnegative int"):
        MultiPoly.variable(3, 1, 1) ** value


@pytest.mark.parametrize("value", [1.0, -1.0], ids=repr)
def test_residue_mask_refuses_a_float_sign(value):
    f = MultiPoly.variable(3, 2, 1) + 1
    with pytest.raises(ValueError, match="sign must be"):
        f.residue_mask((1,), sign=value)


def test_a_power_takes_a_long_int_exponent():
    two = MultiPoly.constant(3, 1, 2)
    assert two**_BIG == pow(2, _BIG, 3)
    with pytest.raises(DegreeOverflow):
        MultiPoly.variable(3, 1, 1) ** _BIG


def test_the_constructor_tests_exponents_before_coefficients():
    with pytest.raises(ValueError, match="bad exponent -1 for z1"):
        MultiPoly(3, 1, {(-1,): 1.5})
    with pytest.raises(TypeError) as caught:
        MultiPoly(3, 1, {(0,): 1, (1,): True})
    assert str(caught.value) == "coefficient True is not an int"


def test_a_key_of_any_sequence_merges_by_its_tuple():
    # (0, 1) cancels on its third entry and comes back, last, on its fourth
    f = MultiPoly(3, 2, {(0, 1): 1, (1, 0): 1, range(0, 2): 2, b"\x00\x01": 1})
    assert list(f.terms.items()) == [((1, 0), 1), ((0, 1), 1)]


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


def test_partial_and_antiderivative_move_one_exponent():
    # each moves the z_i-exponent of every monomial of a dense polynomial
    # and nothing else, and keeps the order of the keys
    rng = random.Random(2010)
    for p in (3, 5, 7, 13):
        for n in range(1, 7):
            f = random_poly(rng, p, n, max_degree=2 * p, max_terms=12)
            for i in range(1, n + 1):
                k = i - 1
                lowered = {
                    e[:k] + (e[k] - 1,) + e[k + 1 :]: c * e[k] % p
                    for e, c in f.terms.items()
                    if e[k] % p
                }
                assert list(f.partial(i).terms.items()) == list(lowered.items())
                g = MultiPoly(
                    p, n, {e: c for e, c in f.terms.items() if e[k] % p != p - 1}
                )
                raised = {
                    e[:k] + (e[k] + 1,) + e[k + 1 :]: c * pow(e[k] + 1, p - 2, p) % p
                    for e, c in g.terms.items()
                }
                assert list(g.antiderivative(i).terms.items()) == list(raised.items())


def test_antiderivative_names_an_obstruction_before_an_overflow():
    # z1^12 outgrows the cap 12 first in key order, but z1^14 = z1^(p-1)
    # (mod 3) blocks the antiderivative, and that is the error raised
    with degree_limit(20):
        f = MultiPoly(3, 2, {(12, 0): 1, (14, 1): 2})
    with degree_limit(12):
        with pytest.raises(
            ObstructedAntiderivative,
            match=r"^monomial 2\*z1\^14\*z2 has z1-exponent 14 = p-1 \(mod 3\)$",
        ):
            f.antiderivative(1)
        with pytest.raises(
            DegreeOverflow, match="^exponent 13 of z1 exceeds the degree limit 12$"
        ):
            MultiPoly(3, 2, {(12, 0): 1}).antiderivative(1)


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
    """f * g as the pairwise fold over the sorted operands that reduces as
    it goes."""
    p = f.p.p
    out = {}
    right = sorted(g.terms.items())
    for e1, c1 in sorted(f.terms.items()):
        for e2, c2 in right:
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
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


# a cap that no oracle result of these tests reaches
RAISED_CAP = 10**6


def test_exponent_kernels_equal_their_map_definitions():
    # the spelled-out kernels up to _UNROLLED_ARITY and the map fallback
    # above it build the same tuples as the map expressions, on zero
    # vectors and on ints of 2^70 and more
    rng = random.Random(3307)
    big = 2**70
    for n in range(1, 11):
        add_n = _kernel(_ADD_KERNELS, n)
        scale_add = _kernel(_SCALE_ADD_KERNELS, n)
        floordiv = _kernel(_FLOORDIV_KERNELS, n)
        generated = n <= _UNROLLED_ARITY
        assert (add_n is not _ADD_KERNELS[0]) == generated
        assert (scale_add is not _SCALE_ADD_KERNELS[0]) == generated
        assert (floordiv is not _FLOORDIV_KERNELS[0]) == generated
        vectors = [
            (0,) * n,
            tuple(big + i for i in range(n)),
            tuple(rng.randrange(5) for _ in range(n)),
            tuple(rng.choice((0, 1, 63, big, 3 * big + 7)) for _ in range(n)),
        ]
        for a in vectors:
            for k in (1, 2, 3, 13, big + 1):
                got = floordiv(a, k)
                assert type(got) is tuple and got == tuple(x // k for x in a)
            for b in vectors:
                got = add_n(a, b)
                assert type(got) is tuple and got == tuple(map(lambda x, y: x + y, a, b))
                for k in (2, 13, big + 1):
                    want = tuple(k * x + y for x, y in zip(a, b))
                    assert scale_add(k, a, b) == want
                    # gamma0 hands its shift over as a list
                    got = scale_add(k, a, list(b))
                    assert type(got) is tuple and got == want


def cap_rule(parts, cap):
    """The DegreeOverflow text that the cap rule gives for a result whose
    polynomials, checked in order, are parts: the first with an exponent
    above cap names its first variable whose largest exponent passes cap,
    with that exponent.  None when no part has such an exponent."""
    for f in parts:
        for i, top in enumerate(map(max, zip(*f.terms)), start=1):
            if top > cap:
                return "exponent %d of z%d exceeds the degree limit %d" % (top, i, cap)
    return None


def outcome(thunk):
    try:
        return ("ok", thunk().terms)
    except DegreeOverflow as exc:
        return ("overflow", str(exc))


def ruled(result, cap):
    """outcome() of a computation whose result, computed under a raised
    cap, is the polynomial result, under the rule at cap."""
    message = cap_rule([result], cap)
    return ("ok", result.terms) if message is None else ("overflow", message)


def test_product_overflow_names_the_same_exponent():
    with degree_limit(5):
        # z1^8 cancels (mod 3) and comes back after z1^6 is made; the
        # product's largest z1-exponent, 5 + 5, is the one named
        f = MultiPoly(3, 1, {(5,): 2, (3,): 1, (2,): 2, (1,): 1})
        g = MultiPoly(3, 1, {(5,): 2, (4,): 2, (2,): 2, (1,): 2, (0,): 1})
        with pytest.raises(DegreeOverflow) as caught:
            f * g
        assert str(caught.value) == "exponent 10 of z1 exceeds the degree limit 5"
    rng = random.Random(2014)
    overflows = 0
    for _ in range(1500):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        cap = rng.randint(3, 8)
        f = random_poly(rng, p, n, max_degree=cap, max_terms=10)
        g = random_poly(rng, p, n, max_degree=cap, max_terms=10)
        k = rng.randint(2, 4)
        with degree_limit(RAISED_CAP):
            product, power = fold_product(f, g), fold_power(f, k)
        with degree_limit(cap):
            got = outcome(lambda: f * g)
            assert got == ruled(product, cap)
            assert outcome(lambda: f**k) == ruled(power, cap)
        overflows += got[0] == "overflow"
    assert overflows > 500


def _normal_form_parts(num, den):
    """The polynomials the rational normal form checks, in order:
    den^(p-1), num * den^(p-1), den^p; none when it keeps num and den."""
    if num.is_zero() or den.is_differential_constant():
        return []
    cofactor = den ** (den.p.p - 1)
    return [cofactor, num * cofactor, den.substitute_pth()]


def test_every_computed_result_follows_the_cap_rule():
    # each operation runs under a raised cap and then under a lowered one
    # that its operands fit: there it returns the same result, or raises
    # the cap rule's DegreeOverflow for that result, a form's coefficients
    # taken in index order; ** refuses a huge power before it multiplies
    rng = random.Random(2032)
    seen = {}
    for _ in range(250):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        cap = rng.randint(p, 3 * p)
        with degree_limit(cap):
            f = random_poly(rng, p, n, cap, 4)
            g = random_poly(rng, p, n, cap, 4)
            den = random_poly(rng, p, n, cap, 2, nonzero=True)
            r = rng.randint(0, n)
            a = random_form(rng, p, n, r, cap, 3)
            b = random_form(rng, p, n, rng.randint(0, n - r), cap, 3)
            omega = random_form(rng, p, n, rng.randint(0, n - 1), cap, 3).d()
        i = rng.randint(1, n)
        k = rng.randint(0, 4)
        shift = random_exps(rng, n, p)
        form_parts = lambda form: list(form.terms.values())
        cases = {
            "*": (lambda: f * g, lambda h: [h]),
            "**": (lambda: f**k, lambda h: [h]),
            "substitute_pth": (lambda: f.substitute_pth(shift), lambda h: [h]),
            "antiderivative": (lambda: f.antiderivative(i), lambda h: [h]),
            "RatFun": (lambda: RatFun(f, den), lambda q: _normal_form_parts(f, den)),
            "wedge": (lambda: a.wedge(b), form_parts),
            "gamma0": (lambda: gamma0(a), form_parts),
            "integrate": (lambda: integrate(omega), form_parts),
        }
        for name, (thunk, parts) in cases.items():
            try:
                with degree_limit(RAISED_CAP):
                    result = thunk()
                    message = cap_rule(parts(result), cap)
            except FpFormsError as exc:
                # an obstructed antiderivative is the same at every cap
                with degree_limit(cap), pytest.raises(type(exc)) as caught:
                    thunk()
                assert str(caught.value) == str(exc)
                continue
            if message is None:
                with degree_limit(cap):
                    got = thunk()
                if name == "RatFun":
                    got, result = (got.num, got.den), (result.num, result.den)
                assert got == result, name
            else:
                with degree_limit(cap), pytest.raises(DegreeOverflow) as caught:
                    thunk()
                assert str(caught.value) == message, name
            seen.setdefault(name, set()).add(message is None)
    assert all(kinds == {True, False} for kinds in seen.values()), seen
    assert len(seen) == 8
    (z,) = variables(2**31 - 1, 1)
    with pytest.raises(DegreeOverflow) as caught:
        (z + 1) ** (2**31 - 2)
    assert str(caught.value) == "exponent 2147483646 of z1 exceeds the degree limit 64"


def test_constant_factors_scale_as_the_pairwise_product():
    # a constant factor, on either side, scales the other operand; the
    # result is the pairwise product's
    rng = random.Random(2018)
    for p in TRUST_PRIMES:
        for _ in range(TRIALS // 3):
            n = rng.randint(1, 3)
            f = random_poly(rng, p, n, max_degree=6, max_terms=6)
            constants = [
                MultiPoly.constant(p, n, c) for c in (0, 1, rng.randint(1, p - 1))
            ] + [MultiPoly.zero(p, n)]
            for k in constants:
                for got in (f * k, k * f):
                    want = fold_product(f, k)
                    assert got.terms == want.terms
                    assert_canonical(got)


def test_constant_factors_still_check_characteristic_and_arity():
    f = MultiPoly.variable(3, 2, 1) + 1
    for k, error in (
        (MultiPoly.constant(5, 2, 2), PrimeMismatch),
        (MultiPoly.zero(5, 2), PrimeMismatch),
        (MultiPoly.constant(3, 3, 2), ArityMismatch),
        (MultiPoly.zero(3, 1), ArityMismatch),
    ):
        for left, right in ((f, k), (k, f)):
            with pytest.raises(error):
                left * right


def test_a_constant_factor_checks_an_operand_built_above_the_cap():
    # the scaled operand raises as its full product would; scaling by
    # zero leaves no monomial to carry the exponent
    with degree_limit(100):
        f = MultiPoly.monomial(3, 2, (80, 1)) + MultiPoly.monomial(3, 2, (0, 3))
    message = "^exponent 80 of z1 exceeds the degree limit 64$"
    for k in (MultiPoly.constant(3, 2, 1), MultiPoly.constant(3, 2, 2)):
        for thunk in (lambda: f * k, lambda: k * f):
            with pytest.raises(DegreeOverflow, match=message):
                thunk()
    with pytest.raises(DegreeOverflow, match=message):
        f**1
    zero = MultiPoly.zero(3, 2)
    assert (f * zero).is_zero() and (zero * f).is_zero()
    assert (f * MultiPoly.constant(3, 2, 3)).is_zero()


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


def test_a_product_by_one_is_the_operand():
    # MultiPoly is immutable, so a product by the int 1 (or any int
    # congruent to it) returns the operand itself; a product by the unit
    # polynomial does too, after its cap check
    rng = random.Random(2018)
    for _ in range(TRIALS):
        p = rng.choice(TRUST_PRIMES)
        n = rng.randint(1, 3)
        f = random_poly(rng, p, n, max_degree=4, nonzero=True)
        one = MultiPoly.constant(p, n, 1)
        for k in (1, p + 1, 1 - p):
            assert f * k is f
            assert k * f is f
        assert f * one is f
        assert_canonical(f * 2)
    with degree_limit(100):
        (z,) = variables(3, 1)
        tall = z**80
    assert tall * 1 is tall
    with pytest.raises(DegreeOverflow, match="^exponent 80 of z1 exceeds"):
        tall * MultiPoly.constant(3, 1, 1)
