import itertools
import random

import pytest

from fpforms import (
    ArityMismatch,
    DegreeMismatch,
    DegreeOverflow,
    DegreeZero,
    DiffForm,
    IndexOutOfRange,
    MultiPoly,
    NonPolynomial,
    NotClosed,
    PrimeMismatch,
    RatFun,
    ZeroDenominator,
    cartier,
    class_representative,
    clear_denominators,
    degree_limit,
    doc_to_form,
    exactness_oracle,
    form_to_doc,
    gamma0,
    integrate,
    irrational_part,
    max_degree_limit,
    merge_indices,
    parse_form,
    phi,
    split_complete_restricted,
    split_rational_irrational,
    variables,
    wedge,
)
from fpforms.operators import p_decompose_step
from fpforms.sampling import (
    random_closed_form,
    random_form,
    random_p_closed_form,
    random_poly,
)
from test_poly import cap_rule, fold_product
from test_ratfun import monic

TRIALS = 120


def assert_canonical_form(w):
    """w is exactly what the validating constructor builds from its terms,
    with one coefficient kind and canonical polynomials inside."""
    kinds = {type(c) for c in w.terms.values()}
    assert kinds <= {MultiPoly} or kinds == {RatFun}
    for c in w.terms.values():
        assert not c.is_zero()
        assert c.p == w.p and c.n == w.n
        for f in (c,) if isinstance(c, MultiPoly) else (c.num, c.den):
            assert list(MultiPoly(f.p, f.n, f.terms).terms.items()) == list(
                f.terms.items()
            )
    rebuilt = DiffForm(w.p, w.n, w.r, w.terms)
    assert rebuilt == w
    assert list(rebuilt.terms.items()) == list(w.terms.items())


def brute_sign(perm):
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def _sorted_tuples(universe):
    return [
        index
        for r in range(len(universe) + 1)
        for index in itertools.combinations(universe, r)
    ]


def test_parsed_differentials_sort_with_the_inversion_sign():
    # at p = 5 the signs +1 and -1 are distinct residues
    for size in (1, 2, 3, 4):
        ordered = tuple(range(1, size + 1))
        for perm in itertools.permutations(ordered):
            text = "^".join("dz%d" % i for i in perm)
            expected = DiffForm(5, 4, size, {ordered: brute_sign(perm)})
            assert_same_form(parse_form(text, 5, 4), expected)
    assert parse_form("dz2^dz2", 5, 4) == DiffForm.zero(5, 4, 2)
    assert parse_form("dz3^dz1^dz3", 5, 4) == DiffForm.zero(5, 4, 3)


def test_merge_indices_matches_inversion_count():
    for left in _sorted_tuples((1, 2, 3, 4)):
        for right in _sorted_tuples((1, 2, 3, 4)):
            if set(left) & set(right):
                assert merge_indices(left, right) == (0, None)
            else:
                merged = tuple(sorted(left + right))
                sign = brute_sign(left + right)
                assert merge_indices(left, right) == (sign, merged)


def test_merge_indices_round_trip():
    # dz_j ^ dz_index = (-1)^k dz_bigger, k the entries of index below j;
    # splitting dz_j off bigger again gives back index and the same sign
    universe = (1, 2, 3, 4)
    for index in _sorted_tuples(universe):
        for j in universe:
            sign, bigger = merge_indices((j,), index)
            if j in index:
                assert sign == 0 and bigger is None
                continue
            assert bigger == tuple(sorted(index + (j,)))
            assert sign == (-1) ** sum(i < j for i in index)
            back = tuple(i for i in bigger if i != j)
            assert back == index
            assert merge_indices((j,), back) == (sign, bigger)
            # dz_index ^ dz_j moves dz_j past all of index
            assert merge_indices(index, (j,)) == (
                sign * (-1) ** len(index),
                bigger,
            )


def test_merge_indices_block_sign():
    # dz2^dz3 ^ dz1 walks dz1 over two factors
    assert merge_indices((2, 3), (1,)) == (1, (1, 2, 3))
    assert merge_indices((2,), (1,)) == (-1, (1, 2))
    assert merge_indices((1, 2), (2, 3)) == (0, None)


_DX = DiffForm.basis(3, 2, (1,))
_CONSTANT = parse_form("x", 3, 2)
_RATIONAL = parse_form("(1/y) dx", 3, 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _DX + DiffForm.basis(5, 2, (1,)), PrimeMismatch,
         "mixed characteristics 3 and 5"),
        (lambda: _DX + DiffForm.basis(3, 3, (1,)), ArityMismatch,
         "mixed variable counts 2 and 3"),
        (lambda: _DX.wedge(DiffForm.basis(5, 2, (2,))), PrimeMismatch,
         "mixed characteristics 3 and 5"),
        (lambda: _DX.wedge(DiffForm.basis(3, 3, (2,))), ArityMismatch,
         "mixed variable counts 2 and 3"),
        (lambda: DiffForm(3, 2, 1, {(1,): MultiPoly.variable(5, 2, 1)}),
         PrimeMismatch, "coefficient over F_5 in a form over F_3"),
        (lambda: DiffForm(3, 2, 1, {(1,): MultiPoly.variable(3, 3, 1)}),
         ArityMismatch, "coefficient in 3 variables, form in 2"),
        (lambda: DiffForm(3, 2, 2, {(2, 1): 1}), IndexOutOfRange,
         "index (2, 1) is not strictly increasing"),
        (lambda: p_decompose_step(_CONSTANT, 1), DegreeZero,
         "decomposition needs a form of degree >= 1"),
        (lambda: p_decompose_step(_RATIONAL, 1), NonPolynomial,
         "decomposition is defined for polynomial forms"),
        (lambda: split_complete_restricted(_CONSTANT), DegreeZero,
         "the split needs a form of degree >= 1"),
        (lambda: split_complete_restricted(_RATIONAL), NonPolynomial,
         "the split is defined for polynomial forms"),
        (lambda: RatFun(MultiPoly.variable(3, 2, 1)) / 0, ZeroDenominator,
         "division by the zero rational function"),
        (lambda: exactness_oracle(_DX, degree_margin=-1), ValueError,
         "degree_margin must be nonnegative"),
    ],
    ids=[
        "add-prime",
        "add-arity",
        "wedge-prime",
        "wedge-arity",
        "coefficient-prime",
        "coefficient-arity",
        "index-order",
        "decompose-degree-zero",
        "decompose-rational",
        "split-degree-zero",
        "split-rational",
        "ratfun-over-zero",
        "oracle-margin",
    ],
)
def test_typed_guards_name_their_offence(build, error, message):
    # DiffForm and MultiPoly share one operand check, so + and wedge on
    # forms raise the polynomial messages
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_zero_form_compares_across_degrees():
    assert DiffForm.zero(3, 2, 0) == DiffForm.zero(3, 2, 2)
    assert DiffForm.zero(3, 2, 1) + DiffForm.basis(3, 2, (1,)) == DiffForm.basis(3, 2, (1,))
    with pytest.raises(DegreeMismatch):
        DiffForm.basis(3, 2, (1,)) + DiffForm.basis(3, 2, (1, 2))


def test_wedge_of_basis_forms():
    dx, dy = DiffForm.basis(3, 2, (1,)), DiffForm.basis(3, 2, (2,))
    assert wedge(dx, dy) == DiffForm.basis(3, 2, (1, 2))
    assert wedge(dy, dx) == DiffForm.basis(3, 2, (1, 2)) * 2  # -1 mod 3
    assert wedge(dx, dx).is_zero()


def test_wedge_graded_anticommutative():
    rng = random.Random(4001)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        s = rng.randint(0, n)
        a = random_form(rng, p, n, r)
        b = random_form(rng, p, n, s)
        flip = wedge(b, a)
        if (r * s) % 2:
            flip = flip * (p - 1)
        assert wedge(a, b) == flip


def test_wedge_associative():
    rng = random.Random(4002)
    for _ in range(60):
        p = rng.choice((2, 3))
        n = rng.randint(2, 3)
        a = random_form(rng, p, n, rng.randint(0, 1))
        b = random_form(rng, p, n, rng.randint(0, 1))
        c = random_form(rng, p, n, rng.randint(0, 1))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_d_squared_is_zero():
    rng = random.Random(4003)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        omega = random_form(rng, p, n, r)
        # a checked copy: omega.d() carries its zero derivative
        assert DiffForm(p, n, r + 1, omega.d().terms).d().is_zero()


def test_d_squared_is_zero_rational():
    rng = random.Random(4004)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        r = rng.randint(0, n)
        omega = random_form(rng, p, n, r, rational=True)
        assert DiffForm(p, n, r + 1, omega.d().terms).d().is_zero()


def test_d_leibniz_rule():
    rng = random.Random(4005)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(0, n)
        s = rng.randint(0, n)
        a = random_form(rng, p, n, r)
        b = random_form(rng, p, n, s)
        sign = 1 if r % 2 == 0 else p - 1
        assert wedge(a, b).d() == wedge(a.d(), b) + wedge(a, b.d()) * sign


def test_d_on_functions_is_gradient():
    x, y = variables(5, 2)
    f = DiffForm(5, 2, 0, {(): x * x * y})
    assert f.d() == DiffForm(5, 2, 1, {(1,): x * y + x * y, (2,): x * x})


def test_coefficient_promotion_to_ratfun():
    x, y = variables(3, 2)
    mixed = DiffForm(3, 2, 1, {(1,): RatFun(x, y**3), (2,): y})
    assert all(isinstance(c, RatFun) for c in mixed.terms.values())
    assert not mixed.is_polynomial


def test_scalar_and_poly_multiplication():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): x})
    assert omega * 2 == DiffForm(3, 2, 1, {(1,): x + x})
    assert omega * y == DiffForm(3, 2, 1, {(1,): x * y})
    assert (omega * 3).is_zero()


def test_max_var_degree_sees_denominators():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): RatFun(x, y**3)})
    assert omega.max_var_degree() == 3


def test_is_closed_examples():
    x, y = variables(3, 2)
    assert DiffForm(3, 2, 1, {(1,): x}).is_closed()
    assert not DiffForm(3, 2, 1, {(1,): y}).is_closed()
    assert DiffForm(3, 2, 1, {(1,): y, (2,): x}).is_closed()
    assert DiffForm(3, 2, 2, {(1, 2): x * y}).is_closed()  # top degree


def test_trusted_results_match_their_validated_rebuild():
    rng = random.Random(4006)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5, 13))
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        a = random_form(rng, p, n, r, max_terms=5)
        b = random_form(rng, p, n, r, max_terms=5)
        c = random_form(rng, p, n, rng.randint(0, n - r))
        q = random_form(rng, p, n, r, max_degree=1, rational=True)
        f = random_poly(rng, p, n)
        results = [
            a + b,
            a - b,
            a - a,
            -a,
            a.d(),
            a.wedge(c),
            c.wedge(a),
            a * rng.randint(0, p),
            a * f,
            phi(a),
            irrational_part(a),
            a._with_terms({i: RatFun(k) for i, k in a.terms.items()}),
            # mixed kinds: every coefficient of the result is a RatFun
            a + q,
            q - a,
            -q,
            q.d(),
            q.wedge(c),
            c.wedge(q),
            q * f,
        ]
        for w in results:
            assert_canonical_form(w)


def test_every_result_keeps_one_coefficient_kind():
    # is_polynomial reads one coefficient, so every constructor must keep
    # all coefficients of one kind, mixed operands included
    rng = random.Random(2323)
    seen = set()
    for _ in range(TRIALS):
        # gamma0 multiplies exponents by p: small p keeps them under the cap
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        a = random_form(rng, p, n, r, max_degree=2)
        q = random_form(rng, p, n, r, max_degree=1, rational=True)
        c = random_form(rng, p, n, rng.randint(0, n - r))
        lam = MultiPoly.variable(p, n, rng.randint(1, n)) ** p
        results = [
            a + q,
            q + a,
            a - q,
            q - a,
            a.wedge(q),
            q.wedge(c),
            c.wedge(q),
            q.d(),
            (a + q).d(),
            gamma0(a),
            gamma0(q),
            gamma0(a + q),
            a._with_terms({i: k * RatFun(MultiPoly.constant(p, n, 1), lam)
                           for i, k in a.terms.items()}),
            q._with_terms({i: k * k for i, k in q.terms.items()}),
            doc_to_form(form_to_doc(a + q)),
            doc_to_form(form_to_doc(a)),
            DiffForm(p, n, r, {**a.terms, **q.terms}),
        ]
        for w in results:
            kinds = {type(k) for k in w.terms.values()}
            assert len(kinds) <= 1
            assert w.is_polynomial == all(
                isinstance(k, MultiPoly) for k in w.terms.values()
            )
            seen |= kinds
    assert seen == {MultiPoly, RatFun}


def test_results_keep_the_canonical_index_order():
    # DiffForm._trusted keeps the order it is handed, so every public
    # operation must hand it ascending indices: the coefficient-wise maps
    # by walking their operand in order, d, wedge, integrate and a merge
    # that meets a new index by sorting
    def in_order(*forms):
        for w in forms:
            assert list(w.terms) == sorted(w.terms), w
        return len(forms)

    rng = random.Random(2828)
    cells = [
        (p, n, r, rational)
        for p in (2, 3, 5, 7)
        for n in range(1, 5)
        for r in range(n + 1)
        for rational in (False, True)
    ]
    checked = 0
    with degree_limit(1000):  # gamma0 of a rational form scales by p
        for p, n, r, rational in cells * 3:
            one = MultiPoly.constant(p, n, 1)
            lam = random_poly(rng, p, n, 1, 2, nonzero=True).substitute_pth()
            over = RatFun(one, lam) if rational else one
            a = random_form(rng, p, n, r, max_degree=3) * over
            b = random_form(rng, p, n, r, max_degree=3, rational=rational)
            c = random_form(
                rng, p, n, rng.randint(0, n - r), max_degree=2, rational=rational
            )
            g = random_poly(rng, p, n, 2, 2)
            zero = DiffForm.zero(p, n, r)
            checked += in_order(
                a + b, b + a, a - b, b - a, zero + a, a + zero, -a, a * g,
                a.d(), b.d(), a.wedge(c), c.wedge(a), gamma0(a), gamma0(b),
            )
            if r == 0:
                continue
            closed = random_closed_form(rng, p, n, r) * over
            exact = random_p_closed_form(rng, p, n, r) * over
            checked += in_order(
                phi(closed),
                irrational_part(closed),
                *split_rational_irrational(closed),
                integrate(exact),
            )
            if rational:
                continue
            checked += in_order(cartier(closed), *split_complete_restricted(closed))
            for i in range(1, n + 1):
                checked += in_order(*p_decompose_step(a + closed, i))
    assert checked > 5000


def naive_d(form):
    """d as the sum of coeff.partial(j) placed through merge_indices,
    folded in index order with + and - (the oracle for DiffForm.d)."""
    out = {}
    for index, coeff in form.terms.items():
        for j in range(1, form.n + 1):
            sign, new_index = merge_indices((j,), index)
            if sign == 0:
                continue
            da = coeff.partial(j)
            if da.is_zero():
                continue
            if new_index in out:
                da = out[new_index] + da if sign > 0 else out[new_index] - da
            elif sign < 0:
                da = -da
            out[new_index] = da
    return DiffForm(form.p, form.n, form.r + 1, out)


def assert_same_form(got, expected):
    """Same degree and the same coefficients in the same index order,
    down to the numerators and denominators (no cross multiplication),
    each compared as a mapping: a polynomial keeps no term order."""
    assert (got.p, got.n, got.r) == (expected.p, expected.n, expected.r)
    assert list(got.terms) == list(expected.terms)
    for index, c in got.terms.items():
        e = expected.terms[index]
        assert type(c) is type(e)
        if isinstance(c, MultiPoly):
            pairs = [(c, e)]
        else:
            pairs = [(c.num, e.num), (c.den, e.den)]
        for a, b in pairs:
            assert a.terms == b.terms
    assert str(got) == str(expected)


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_d_matches_naive_oracle(p):
    rng = random.Random(4007 + p)
    for n in range(1, 7):
        for r in range(n + 1):
            for _ in range(2):
                omega = random_form(rng, p, n, r, max_degree=2 * p, max_terms=6)
                assert_same_form(omega.d(), naive_d(omega))
                assert_canonical_form(omega.d())


def dense_form(rng, p, n, r, draws=12, max_exp=None):
    """A degree-r form shaped like the benchmark's exact items: every
    r-index gets draws monomial draws with exponents <= max_exp (2p by
    default) and random nonzero residues; repeated draws merge."""
    max_exp = 2 * p if max_exp is None else max_exp
    terms = {}
    for index in itertools.combinations(range(1, n + 1), r):
        monomials = {}
        for _ in range(draws):
            exps = tuple(rng.randint(0, max_exp) for _ in range(n))
            monomials[exps] = rng.randint(1, p - 1)
        terms[index] = MultiPoly(p, n, monomials)
    return DiffForm(p, n, r, terms)


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_d_matches_naive_oracle_on_dense_coefficients(p):
    # d lowers one exponent of a monomial per target index in turn; with
    # a dozen monomials under every index and up to n moves each, an
    # exponent left lowered by one move would show in the next
    rng = random.Random(4107 + p)
    for n in range(3, 7):
        for r in range(n + 1):
            for _ in range(2):
                eta = dense_form(rng, p, n, r)
                assert_same_form(eta.d(), naive_d(eta))


def naive_wedge(a, b):
    """a ^ b as one checked MultiPoly product per pair of indices, placed
    through merge_indices and folded in pair order with + and - (the
    oracle for DiffForm.wedge)."""
    out = {}
    for left, x in a.terms.items():
        for right, y in b.terms.items():
            sign, index = merge_indices(left, right)
            if sign == 0:
                continue
            c = x * y
            if index in out:
                c = out[index] + c if sign > 0 else out[index] - c
            elif sign < 0:
                c = -c
            out[index] = c
    return DiffForm(a.p, a.n, a.r + b.r, out)


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_kernel_callers_past_the_unrolled_arity(p):
    # at n = 9 the exponent kernels are the map fallback: *, wedge,
    # gamma0, Cartier and RatFun's closed-form cofactor run through it
    rng = random.Random(9109 + p)
    n = 9
    for _ in range(4):
        f = random_poly(rng, p, n, max_degree=4, max_terms=6, nonzero=True)
        g = random_poly(rng, p, n, max_degree=4, max_terms=6)
        assert f * g == fold_product(f, g)
        r = rng.randint(1, 3)
        a = random_form(rng, p, n, r, max_terms=2)
        b = random_form(rng, p, n, rng.randint(0, 3), max_terms=2)
        assert a.wedge(b) == naive_wedge(a, b)
        assert cartier(gamma0(a)) == a
        den = random_poly(rng, p, n, max_degree=2, max_terms=2, nonzero=True)
        if not den.is_differential_constant():
            got = RatFun(f, den)
            num, den = monic(f, den)
            assert got.num == num * den ** (p - 1) and got.den == den.substitute_pth()


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_wedge_matches_naive_oracle(p):
    # every pair of degrees 0..n, so pairs above n overlap everywhere,
    # plus zero forms on either side and a form against itself
    rng = random.Random(4021 + p)
    for n in range(1, 7):
        for r in range(n + 1):
            zero = DiffForm.zero(p, n, r)
            for s in range(n + 1):
                a = random_form(rng, p, n, r, max_degree=2 * p, max_terms=4)
                b = random_form(rng, p, n, s, max_degree=2 * p, max_terms=4)
                for x, y in ((a, b), (a, a), (zero, b), (a, zero)):
                    got = x.wedge(y)
                    assert_same_form(got, naive_wedge(x, y))
                    assert_canonical_form(got)
                    assert got.is_polynomial
        assert DiffForm.basis(p, n, (1,)).wedge(
            DiffForm.basis(p, n, (1,))
        ).is_zero()


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_wedge_overflows_where_the_naive_oracle_does(p):
    # the oracle, under a raised cap, gives the wedge; under the lowered
    # cap, which the operands fit, the wedge raises exactly when that
    # result has an exponent above it, with the cap rule's message for its
    # first such coefficient in index order, and otherwise returns it
    rng = random.Random(4031 + p)
    cap = 2 * p
    raised = done = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        s = rng.randint(0, n - r)
        with degree_limit(cap):
            a = random_form(rng, p, n, r, max_degree=cap, max_terms=4)
            b = random_form(rng, p, n, s, max_degree=cap, max_terms=4)
        with degree_limit(RAISED_CAP):
            expected = naive_wedge(a, b)
        message = cap_rule(expected.terms.values(), cap)
        with degree_limit(cap):
            if message is None:
                assert_same_form(a.wedge(b), expected)
                done += 1
                continue
            with pytest.raises(DegreeOverflow) as caught:
                a.wedge(b)
            assert str(caught.value) == message
            raised += 1
    z1, z2, z3, z4 = variables(p, 4)
    with degree_limit(cap):
        # pairs come as dz1^dz3 (over the cap in z2), then dz2^dz1 (over
        # it in z1); the rule takes the coefficients in index order, so
        # dz1^dz2 and z1 come first
        a = DiffForm(p, 4, 1, {(1,): z2**cap, (2,): z1**cap})
        b = DiffForm(p, 4, 1, {(1,): z1, (3,): z2})
        with pytest.raises(DegreeOverflow) as caught:
            a.wedge(b)
        assert str(caught.value) == (
            "exponent %d of z1 exceeds the degree limit %d" % (cap + 1, cap)
        )
        # the bound is 2 * cap, the product z1^cap * z2^cap stays within it
        a = DiffForm(p, 4, 1, {(1,): z2**cap})
        b = DiffForm(p, 4, 1, {(2,): z1**cap + z3})
        assert_same_form(a.wedge(b), naive_wedge(a, b))
        assert a.wedge(b).max_var_degree() == cap
        assert max_degree_limit() == cap
    assert raised >= 5 and done >= 5


def test_products_over_the_cap_that_cancel_leave_the_wedge_in_it():
    # omega ^ omega = 0: the pair products x^65 dx^dy and -x^65 dx^dy pass
    # the default cap 64, and cancel
    omega = parse_form("x^64 dx + x dy", 3, 2)
    assert max_degree_limit() == 64
    assert omega.wedge(omega) == DiffForm.zero(3, 2, 2)
    assert omega.wedge(omega).is_zero()


def over_two_denominators(rng, p, n, r, max_degree):
    """A degree-r form whose coefficients share two random denominators."""
    dens = [random_poly(rng, p, n, 1, 2, nonzero=True) for _ in range(2)]
    terms = {
        index: RatFun(random_poly(rng, p, n, max_degree, 3), rng.choice(dens))
        for index in itertools.combinations(range(1, n + 1), r)
        if rng.random() < 0.6
    }
    return DiffForm(p, n, r, terms)


# a cap no oracle product of these tests reaches
RAISED_CAP = 10**6


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_d_matches_naive_oracle_rational(p):
    # d clears the denominators first: every coefficient of d sits over
    # the one lam of clear_denominators, d fails exactly where the
    # clearing does, at the default cap and at a lowered one, and the
    # value is the oracle's, whose fold of distinct denominators is taken
    # under a raised cap
    rng = random.Random(4011 + p)
    done = raised = 0
    for n in range(1, 7):
        for r in range(n + 1):
            omega = over_two_denominators(rng, p, n, r, 2 * p)
            for cap in (max_degree_limit(), 2 * p):
                fresh = DiffForm(p, n, r, omega.terms)
                with degree_limit(cap):
                    try:
                        lam, _ = clear_denominators(fresh)
                    except DegreeOverflow as exc:
                        with pytest.raises(DegreeOverflow, match="^%s$" % exc):
                            fresh.d()
                        raised += 1
                        continue
                    got = fresh.d()
                assert all(c.den == lam for c in got.terms.values())
                assert_canonical_form(got)
                with degree_limit(RAISED_CAP):
                    assert got.r == r + 1 and got == naive_d(fresh)
                done += 1
    assert done >= 12 and raised >= 3


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_wedge_matches_naive_oracle_rational(p):
    # a rational operand is cleared first, so every coefficient of the
    # product sits over lam * mu and equals the pairwise oracle by value;
    # d-images carry a zero derivative, and so does their product
    rng = random.Random(4041 + p)
    done = closed = 0
    for n in range(1, 6):
        for r in range(n + 1):
            s = rng.randint(0, n)
            a = over_two_denominators(rng, p, n, r, 3)
            b = over_two_denominators(rng, p, n, s, 3)
            c = random_form(rng, p, n, s, max_degree=3)
            for x, y in ((a, b), (a, c), (c, a), (b, a)):
                got = x.wedge(y)
                lam_mu = clear_denominators(x)[0] * clear_denominators(y)[0]
                assert all(k.den == lam_mu for k in got.terms.values())
                assert_canonical_form(got)
                with degree_limit(RAISED_CAP):
                    assert got.r == x.r + y.r and got == naive_wedge(x, y)
                done += not got.is_zero()
        # d-images of degrees r + 1 and n - r - 1
        for r in range(n - 1):
            for _ in range(2):
                x = over_two_denominators(rng, p, n, r, 3).d()
                y = over_two_denominators(rng, p, n, n - r - 2, 3).d()
                got = x.wedge(y)
                assert carries_zero_d(got)
                with degree_limit(RAISED_CAP):
                    fresh = DiffForm(p, n, got.r, got.terms)
                    assert naive_d(fresh).is_zero()
                closed += not got.is_zero()
    assert done >= 12 and closed >= 2


def test_rational_d_and_wedge_make_no_ratfun_arithmetic(monkeypatch):
    # d and wedge of rational forms combine denominators only through
    # clear_denominators: no RatFun sum, difference or product is formed
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        original = getattr(RatFun, name)

        def counted(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(RatFun, name, counted)
    rng = random.Random(4051)
    done = 0
    for p in (2, 3, 5, 13):
        for n in (2, 3):
            a = over_two_denominators(rng, p, n, 1, 3)
            b = over_two_denominators(rng, p, n, 1, 3)
            c = random_form(rng, p, n, 1, max_degree=3)
            for w in (a.d(), b.d(), a.wedge(b), a.wedge(c), c.wedge(b)):
                done += not w.is_zero()
    assert calls == [] and done >= 12


def test_d_is_computed_once_per_form():
    rng = random.Random(4015)
    omega = random_form(rng, 5, 3, 1, max_degree=8, max_terms=6)
    assert omega.d() is omega.d()
    assert omega.d().d() is omega.d().d()
    parsed = DiffForm(5, 3, 1, omega.terms)
    assert parsed.d() is not omega.d()
    assert parsed.d() == omega.d()


def test_lowering_the_cap_keeps_a_computed_derivative():
    # clearing the denominators for d can outgrow the cap (lam over
    # z1^3 and z1^3 + 1 has degree 6); a derivative computed
    # under a higher cap is kept, and only a form that has not computed
    # its d yet checks the lower one
    z1, z2 = variables(3, 2)
    terms = {(1,): RatFun(z2, z1**3), (2,): RatFun(z1, z1**3 + 1)}
    kept = DiffForm(3, 2, 1, terms)
    fresh = DiffForm(3, 2, 1, terms)
    dw = kept.d()
    with degree_limit(5):
        assert kept.d() is dw
        with pytest.raises(DegreeOverflow, match="^exponent 6 of z1 exceeds"):
            fresh.d()
        assert max_degree_limit() == 5
    assert fresh.d() == dw


def carries_zero_d(form):
    return form._d is not None and form._d.is_zero()


def test_results_carry_a_derivative_only_when_closed_by_construction():
    # +, -, negation and wedge give their result a derivative only when
    # every operand carries a zero one, and then a new zero form of degree
    # r + 1, never an operand's object; _with_terms gives none at all
    rng = random.Random(4016)
    marked = 0
    for _ in range(40):
        p = rng.choice((2, 3, 5, 13))
        n = rng.randint(1, 4)
        r = rng.randint(0, n - 1)
        f = random_form(rng, p, n, r, max_degree=2 * p, max_terms=5)
        g = random_form(rng, p, n, r, max_degree=2 * p, max_terms=5)
        h = random_form(rng, p, n, r, max_degree=2 * p, max_terms=5)
        c = random_form(rng, p, n, 1)
        f.d(), g.d(), c.d()
        pool = [f, g, h]
        if r:
            a = random_form(rng, p, n, r - 1, max_degree=4, max_terms=4).d()
            b = gamma0(random_form(rng, p, n, r, max_degree=1, max_terms=2))
            pool += [a, b, a + b]
        for x in pool:
            for y in pool:
                results = {
                    "neg": ((x,), -x),
                    "add": ((x, y), x + y),
                    "sub": ((x, y), x - y),
                    "wedge": ((x, y), x.wedge(y)),
                    "wedge c": ((x, c), x.wedge(c)),
                }
                for name, (operands, w) in results.items():
                    if all(carries_zero_d(o) for o in operands):
                        assert carries_zero_d(w), name
                        assert (w._d.p, w._d.n, w._d.r) == (w.p, w.n, w.r + 1)
                        marked += 1
                    else:
                        assert w._d is None, name
                    assert w.d() == naive_d(w), name
                    for o in operands:
                        assert w.d() is not o._d and w.d() is not o, name
            w = x._with_terms({i: coeff * 2 for i, coeff in x.terms.items()})
            assert w._d is None
            assert w.d() == naive_d(x) * 2
    assert marked >= 500


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_carried_zero_derivatives_match_naive_d_of_a_fresh_copy(p):
    # every form closed by construction, checked through a copy built by
    # the validating constructor, whose d the oracle computes in full; a
    # rational gamma0 lift raises its denominator to a p-th power and
    # beyond, so the cap is raised with p
    rng = random.Random(4017 + p)
    checked = 0
    with degree_limit(50 * p * p):
        for _ in range(10):
            n = rng.randint(2, 4)
            r = rng.randint(1, n - 1)
            s = rng.randint(0, n - r)
            for rational in (False, True):
                def draw(degree, max_degree):
                    return random_form(
                        rng, p, n, degree, max_degree=max_degree,
                        max_terms=2, rational=rational,
                    )

                a = draw(r - 1, 3).d()
                b = gamma0(draw(r, 1))
                e = draw(s - 1, 3).d() if s else gamma0(draw(0, 1))
                closed = {
                    "d": a,
                    "gamma0": b,
                    "add": a + b,
                    "sub": a - b,
                    "neg": -b,
                    "wedge": a.wedge(e),
                    "wedge of sums": (a + b).wedge(-e),
                    "d of a sum": (a + draw(r, 2)).d(),
                }
                for name, w in closed.items():
                    assert carries_zero_d(w), name
                    fresh = DiffForm(w.p, w.n, w.r, w.terms)
                    assert fresh._d is None
                    assert naive_d(fresh).is_zero(), (name, str(w))
                    assert fresh.d() == w.d(), name
                    checked += not w.is_zero()
    assert checked >= 80


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_split_rational_parts_inherit_a_zero_derivative(p):
    # the splits compute d of the irrational image before subtracting it,
    # so the rational part omega - Q_r(omega) and the difference form - rep
    # of class_representative carry a zero derivative, which must agree
    # with naive_d of a copy built by the validating constructor
    rng = random.Random(4018 + p)
    checked = refused = 0
    with degree_limit(50 * p * p):
        for _ in range(12):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            for rational in (False, True):
                def draw(degree, max_degree):
                    return random_form(
                        rng, p, n, degree, max_degree=max_degree,
                        max_terms=3, rational=rational,
                    )

                w = draw(r - 1, 2 * p).d() + gamma0(draw(r, 1))
                omega = DiffForm(w.p, w.n, w.r, w.terms)
                split = split_rational_irrational(omega)
                rep = class_representative(omega).representative
                for name, part in (
                    ("irrational", split.irrational),
                    ("representative", rep),
                    ("rational", split.rational),
                    ("difference", omega - rep),
                ):
                    assert carries_zero_d(part), name
                    fresh = DiffForm(part.p, part.n, part.r, part.terms)
                    assert naive_d(fresh).is_zero(), (name, str(omega))
                    assert part.d() == naive_d(fresh), name
                checked += not split.irrational.is_zero()
                bent = omega + draw(r, 2)
                if not naive_d(bent).is_zero():
                    with pytest.raises(NotClosed):
                        split_rational_irrational(bent)
                    with pytest.raises(NotClosed):
                        class_representative(bent)
                    refused += 1
    assert checked >= 10 and refused >= 4


def test_sub_is_add_of_the_negation():
    x, y = variables(3, 2)
    poly = DiffForm(3, 2, 1, {(1,): x * y, (2,): y + 1})
    rat = DiffForm(3, 2, 1, {(1,): RatFun(x, y**3 + 1), (2,): RatFun(y)})
    zero0 = DiffForm.zero(3, 2, 0)
    zero2 = DiffForm.zero(3, 2, 2)
    pairs = [
        (poly, rat),
        (rat, poly),
        (rat, rat),
        (poly, poly),
        (poly, zero2),
        (zero0, poly),
        (zero0, rat),
        (zero2, zero0),
    ]
    for a, b in pairs:
        got, expected = a - b, a + (-b)
        assert_same_form(got, expected)
        assert got.is_polynomial == expected.is_polynomial
    with pytest.raises(DegreeMismatch):
        poly - DiffForm.basis(3, 2, (1, 2))


def test_a_zero_form_of_another_degree_adds_to_a_new_form():
    # the neutral zero form gives a new result, which carries a derivative
    # only when both operands do, and never an operand's own
    x, y = variables(3, 2)
    poly = DiffForm(3, 2, 1, {(1,): x * y, (2,): y + 1})
    rat = DiffForm(3, 2, 1, {(1,): RatFun(x, y**3 + 1), (2,): RatFun(y)})
    exact = DiffForm(3, 2, 0, {(): x * x * y}).d()
    assert carries_zero_d(exact)
    for f in (poly, rat, exact):
        f.d()
        for r in (0, 2):
            bare, carrying = DiffForm.zero(3, 2, r), DiffForm.zero(3, 2, r)
            carrying.d()
            for zero in (bare, carrying):
                for w, expected in (
                    (f + zero, f),
                    (zero + f, f),
                    (f - zero, f),
                    (zero - f, -f),
                ):
                    assert w is not f
                    assert_same_form(w, expected)
                    assert w.is_polynomial == f.is_polynomial
                    if carries_zero_d(f) and carries_zero_d(zero):
                        assert carries_zero_d(w) and w._d is not f._d
                    else:
                        assert w._d is None
