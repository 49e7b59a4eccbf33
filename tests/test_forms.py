import itertools
import random

import pytest

from fpforms import (
    DegreeMismatch,
    DegreeOverflow,
    DiffForm,
    MultiPoly,
    NotClosed,
    RatFun,
    class_representative,
    degree_limit,
    gamma0,
    insert_index,
    irrational_part,
    max_degree_limit,
    merge_indices,
    phi,
    remove_index,
    sorted_index_sign,
    split_rational_irrational,
    variables,
    wedge,
)
from fpforms.sampling import random_form, random_poly

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


def test_sorted_index_sign_matches_inversion_count():
    for size in (1, 2, 3, 4):
        for perm in itertools.permutations(range(1, size + 1)):
            sign, ordered = sorted_index_sign(perm)
            assert ordered == tuple(range(1, size + 1))
            assert sign == brute_sign(perm)
    assert sorted_index_sign((2, 2)) == (0, None)


def test_insert_remove_merge_consistency():
    universe = (1, 2, 3, 4)
    for r in range(len(universe) + 1):
        for index in itertools.combinations(universe, r):
            for j in universe:
                sign, bigger = insert_index(index, j)
                if j in index:
                    assert sign == 0 and bigger is None
                    continue
                assert bigger == tuple(sorted(index + (j,)))
                back_sign, back = remove_index(bigger, j)
                assert back == index
                assert back_sign == sign
                m_sign, merged = merge_indices((j,), index)
                assert (m_sign, merged) == (sign, bigger)


def test_merge_indices_block_sign():
    # dz2^dz3 ^ dz1 walks dz1 over two factors
    assert merge_indices((2, 3), (1,)) == (1, (1, 2, 3))
    assert merge_indices((2,), (1,)) == (-1, (1, 2))
    assert merge_indices((1, 2), (2, 3)) == (0, None)


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
            a.to_rational(),
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


def naive_d(form):
    """d as the sum of coeff.partial(j) placed through insert_index,
    folded in index order with + and - (the oracle for DiffForm.d)."""
    out = {}
    for index, coeff in form.terms.items():
        for j in range(1, form.n + 1):
            sign, new_index = insert_index(index, j)
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
    """Same degree and the same coefficients in the same order, down to
    the numerators and denominators (no cross multiplication)."""
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
            assert list(a.terms.items()) == list(b.terms.items())
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
    # under a lowered cap a product that passes it must raise the
    # oracle's DegreeOverflow, for the first such pair in pair order;
    # pairs within the cap, and pairs whose degree bound passes the cap
    # while their product stays below it, must give the oracle's form
    rng = random.Random(4031 + p)
    cap = 2 * p
    raised = done = 0
    with degree_limit(cap):
        for _ in range(60):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            s = rng.randint(0, n - r)
            a = random_form(rng, p, n, r, max_degree=cap, max_terms=4)
            b = random_form(rng, p, n, s, max_degree=cap, max_terms=4)
            try:
                expected = naive_wedge(a, b)
            except DegreeOverflow as exc:
                with pytest.raises(DegreeOverflow, match="^%s$" % exc):
                    a.wedge(b)
                raised += 1
                continue
            assert_same_form(a.wedge(b), expected)
            done += 1
        z1, z2, z3, z4 = variables(p, 4)
        # in pair order dz1^dz3 fits, dz1^dz4 overflows in z2 and
        # dz2^dz3 in z1; taken by the right factor first, z1 would come
        # first
        a = DiffForm(p, 4, 1, {(1,): z2**cap, (2,): z1**cap})
        b = DiffForm(p, 4, 1, {(3,): z1 * z4, (4,): z2})
        message = "^exponent %d of z2 exceeds the degree limit %d$" % (cap + 1, cap)
        for route in (naive_wedge, DiffForm.wedge):
            with pytest.raises(DegreeOverflow, match=message):
                route(a, b)
        # the bound is 2 * cap, the product z1^cap * z2^cap stays within it
        a = DiffForm(p, 4, 1, {(1,): z2**cap})
        b = DiffForm(p, 4, 1, {(2,): z1**cap + z3})
        assert_same_form(a.wedge(b), naive_wedge(a, b))
        assert a.wedge(b).max_var_degree() == cap
        assert max_degree_limit() == cap
    assert raised >= 5 and done >= 5


@pytest.mark.parametrize("p", (2, 3, 5, 13))
def test_d_matches_naive_oracle_rational(p):
    # coefficients over two denominators; where the fold of many distinct
    # denominators outgrows the exponent cap, d must fail the same way
    rng = random.Random(4011 + p)
    done = 0
    for n in range(1, 7):
        for r in range(n + 1):
            dens = [random_poly(rng, p, n, 1, 2, nonzero=True) for _ in range(2)]
            terms = {
                index: RatFun(random_poly(rng, p, n, 2 * p, 3), rng.choice(dens))
                for index in itertools.combinations(range(1, n + 1), r)
                if rng.random() < 0.6
            }
            omega = DiffForm(p, n, r, terms)
            try:
                expected = naive_d(omega)
            except DegreeOverflow as exc:
                with pytest.raises(DegreeOverflow, match="^%s$" % exc):
                    omega.d()
                continue
            assert_same_form(omega.d(), expected)
            done += 1
    assert done >= 12


def test_d_is_computed_once_per_form():
    rng = random.Random(4015)
    omega = random_form(rng, 5, 3, 1, max_degree=8, max_terms=6)
    assert omega.d() is omega.d()
    assert omega.d().d() is omega.d().d()
    parsed = DiffForm(5, 3, 1, omega.terms)
    assert parsed.d() is not omega.d()
    assert parsed.d() == omega.d()


def test_lowering_the_cap_keeps_a_computed_derivative():
    # the rational fold of d can outgrow the cap (the sum over the
    # denominators z1^3 and z1^3 + 1 has degree 6); a derivative computed
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
