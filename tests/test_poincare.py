import itertools
import random
import warnings

import pytest

from fpforms import (
    DegreeZero,
    DiffForm,
    MultiPoly,
    NotPClosed,
    RatFun,
    SystemTooLarge,
    exactness_oracle,
    integrate,
    is_p_closed,
    variables,
)
from fpforms.poincare import _warn_on_degree_growth
from fpforms.sampling import (
    random_exact_form,
    random_form,
    random_p_closed_form,
    random_poly,
)

TRIALS = 80


def test_integrate_classical_witness():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 2, {(1, 2): x * x + y * y})
    theta = integrate(omega)
    assert theta.d() == omega
    # the canonical potential -x^2 y dx + x y^2 dy, written mod 3
    assert theta == DiffForm(3, 2, 1, {(1,): x * x * y * 2, (2,): x * y * y})


def test_integrate_rejects_obstructed_powers():
    for p in (2, 3, 5, 7):
        omega = DiffForm(p, 1, 1, {(1,): MultiPoly.monomial(p, 1, (p - 1,))})
        with pytest.raises(NotPClosed) as info:
            integrate(omega)
        assert "I=(1)" in str(info.value)


def test_integrate_rejects_degree_zero():
    with pytest.raises(DegreeZero):
        integrate(DiffForm(3, 1, 0, {(): MultiPoly.variable(3, 1, 1)}))


def test_integrate_roundtrip_random():
    rng = random.Random(6001)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_p_closed_form(rng, p, n, r)
        theta = integrate(omega)
        assert theta.d() == omega
        # observed degree bound: one antiderivative per variable
        assert theta.max_var_degree() <= omega.max_var_degree() + 1


def test_integrate_exact_forms_recover_a_potential():
    rng = random.Random(6002)
    for _ in range(TRIALS):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_exact_form(rng, p, n, r)
        assert is_p_closed(omega)
        assert integrate(omega).d() == omega


def test_integrate_rational_single_variable():
    (z,) = variables(3, 1)
    one = MultiPoly.constant(3, 1, 1)
    omega = DiffForm(3, 1, 1, {(1,): RatFun(z, z**3)})
    theta = integrate(omega)
    assert theta.d() == omega
    # -1/z written over the cleared denominator
    assert theta == DiffForm(3, 1, 0, {(): RatFun(z * z * 2, z**3)})


def test_integrate_rational_random():
    # dividing by a differential constant keeps p-closedness and lands in
    # the denominator-clearing branch
    rng = random.Random(6003)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        r = rng.randint(1, n)
        omega = random_p_closed_form(rng, p, n, r, max_degree=2)
        lam = random_poly(rng, p, n, max_degree=1, nonzero=True).substitute_pth()
        rational_omega = omega * RatFun(MultiPoly.constant(p, n, 1), lam)
        theta = integrate(rational_omega)
        assert theta.d() == rational_omega


def test_degree_growth_warning_fires_on_regression():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): x})
    inflated = DiffForm(3, 2, 0, {(): (x**4) * y})
    with pytest.warns(RuntimeWarning, match="exceeds input degree"):
        _warn_on_degree_growth(omega, inflated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _warn_on_degree_growth(omega, DiffForm(3, 2, 0, {(): x * x}))


# ----------------------------------------------------------------------
# reference route for the linear-algebra oracle: one dense system over all
# bounded monomials, no weight grading, no block splitting


def dense_exact_within(form, bound):
    p, n, r = int(form.p), form.n, form.r
    cols = []
    for J in itertools.combinations(range(1, n + 1), r - 1):
        for exps in itertools.product(range(bound + 1), repeat=n):
            cols.append((J, exps))
    col_of = {key: k for k, key in enumerate(cols)}
    matrix_rows = {}

    def row_for(key):
        if key not in matrix_rows:
            matrix_rows[key] = [0] * len(cols)
        return matrix_rows[key]

    for J, exps in cols:
        k = col_of[(J, exps)]
        for i in range(1, n + 1):
            if i in J or exps[i - 1] % p == 0:
                continue
            pos = sum(1 for j in J if j < i)
            sign = -1 if pos % 2 else 1
            eq_index = tuple(sorted(J + (i,)))
            eq_exps = tuple(
                e - 1 if v == i else e for v, e in enumerate(exps, start=1)
            )
            row_for((eq_index, eq_exps))[k] = (sign * exps[i - 1]) % p

    rhs = {}
    for index, coeff in form.terms.items():
        for exps, c in coeff.terms.items():
            rhs[(index, exps)] = c % p
            row_for((index, exps))

    keys = sorted(matrix_rows)
    a = [matrix_rows[key][:] for key in keys]
    b = [rhs.get(key, 0) for key in keys]

    # plain Gaussian elimination over F_p
    row = 0
    for col in range(len(cols)):
        pivot = next((t for t in range(row, len(a)) if a[t][col]), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        b[row], b[pivot] = b[pivot], b[row]
        inv = pow(a[row][col], p - 2, p)
        a[row] = [(v * inv) % p for v in a[row]]
        b[row] = (b[row] * inv) % p
        for t in range(len(a)):
            if t != row and a[t][col]:
                f = a[t][col]
                a[t] = [(x - f * y) % p for x, y in zip(a[t], a[row])]
                b[t] = (b[t] - f * b[row]) % p
        row += 1
    return all(any(a[t]) or b[t] == 0 for t in range(len(a)))


def test_oracle_agrees_with_dense_reference():
    rng = random.Random(6004)
    for _ in range(30):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        r = rng.randint(1, n)
        omega = random_form(rng, p, n, r, max_degree=2)
        bound = omega.max_var_degree() + p
        eta = exactness_oracle(omega)
        dense = dense_exact_within(omega, bound)
        assert (eta is not None) == dense
        assert dense == is_p_closed(omega)
        if eta is not None:
            assert eta.d() == omega
            assert eta.max_var_degree() <= bound


def test_oracle_frozen_cases():
    (z,) = variables(3, 1)
    assert exactness_oracle(DiffForm(3, 1, 1, {(1,): z * z})) is None
    eta = exactness_oracle(DiffForm(3, 1, 1, {(1,): z}))
    assert eta is not None and eta.d() == DiffForm(3, 1, 1, {(1,): z})


def test_oracle_system_cap():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): x * y})
    with pytest.raises(SystemTooLarge):
        exactness_oracle(omega, system_cap=10)
    # a wider margin within the cap still works
    eta = exactness_oracle(omega, degree_margin=1)
    assert eta is None or eta.d() == omega
