import itertools
import random

import pytest

from fpforms import (
    DegreeMismatch,
    DiffForm,
    MultiPoly,
    RatFun,
    Scalar,
    insert_index,
    irrational_part,
    merge_indices,
    phi,
    remove_index,
    sorted_index_sign,
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
        assert omega.d().d().is_zero()


def test_d_squared_is_zero_rational():
    rng = random.Random(4004)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        r = rng.randint(0, n)
        omega = random_form(rng, p, n, r, rational=True)
        assert omega.d().d().is_zero()


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
    assert omega * Scalar(2, 3) == omega * 2
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
