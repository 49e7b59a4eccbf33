import itertools
import random

import pytest

from fpforms import (
    DegreeOverflow,
    DegreeZero,
    DiffForm,
    InternalResidual,
    MultiPoly,
    NotPClosed,
    RatFun,
    SystemTooLarge,
    degree_limit,
    exactness_oracle,
    integrate,
    is_p_closed,
    parse_form,
    variables,
)
from fpforms import forms, poincare
from fpforms.operators import p_decompose_step
from fpforms.ratfun import clear_denominators
from fpforms.sampling import (
    random_exact_form,
    random_form,
    random_p_closed_form,
    random_poly,
)
from test_forms import dense_form
from test_poly import RAISED_CAP, cap_rule

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
        p = rng.choice((2, 3, 5, 7, 11, 13))
        n = rng.randint(1, 6)
        r = rng.randint(1, n)
        omega = random_p_closed_form(rng, p, n, r)
        theta = integrate(omega)
        assert theta.d() == omega
        # each monomial of the potential is an input monomial times one z_i
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


def test_integrate_clears_a_rational_form_once(monkeypatch):
    # the clearing that builds the potential also gives the p-closedness
    # test its d(form): a parsed form, which carries no derivative, and a
    # d-image, which carries its zero one, are each cleared once
    parsed = parse_form("(y/(x^3 + 1)) dx + (x/(x^3 + 1)) dy", 3, 2)
    image = parse_form("(x*y/(x + y)) dx + (y/(x + 2)) dy", 3, 2).d()
    calls = []

    def counted(form):
        calls.append(form)
        return clear_denominators(form)

    for module in (forms, poincare):
        monkeypatch.setattr(module, "clear_denominators", counted)
    for omega in (parsed, image):
        calls.clear()
        theta = integrate(omega)
        assert calls == [omega]
        assert theta.d() == omega
        # the kept derivative is the one a fresh form computes
        assert omega.d() == DiffForm(3, 2, omega.r, omega.terms).d()


def test_integrate_raises_degree_zero_then_the_clearing_then_not_p_closed():
    with degree_limit(200):
        (z,) = variables(3, 1)
        tall = DiffForm(3, 1, 0, {(): RatFun(z**80, z**3)})
    with pytest.raises(DegreeZero):
        integrate(tall)
    # lam = x^39 * (x + 1)^26, of coprime factors, passes the default
    # cap, and d(x/(x + 1)^26) = (x + 1)^-26 is not zero (mod 13)
    omega = parse_form("(1/x^39) dx + (x/(x^26 + 2*x^13 + 1)) dy", 13, 2)
    with pytest.raises(DegreeOverflow, match="^exponent 65 of z1 "):
        integrate(omega)
    with degree_limit(100):
        with pytest.raises(NotPClosed, match="^form is not closed$"):
            integrate(DiffForm(13, 2, 1, omega.terms))


def test_a_denominator_that_divides_lam_adds_no_factor():
    # x^26 divides x^39, so lam and the potential stay over z1^39
    omega = parse_form("(1/x^39) dx + (1/x^26) dy", 13, 2)
    theta = integrate(omega)
    x, _ = variables(13, 2)
    assert [c.den for c in theta.terms.values()] == [x**39]
    assert theta.d() == omega


# ----------------------------------------------------------------------
# reference route for integrate: the paper's layer-by-layer proof


def layered_potential(form):
    """The potential of a p-closed polynomial form, one variable at a time.

    Splits the remainder as z_i^(p-1) dz_i ^ omega_i + dz_i ^ eta_i + tau_i
    (p_decompose_step).  The first layer is d(-z_i^(p-1) dz_i ^ alpha) with
    d(alpha) = omega_i, found by recursion at one degree lower; the second
    is d of the z_i-antiderivative of eta_i, up to terms without dz_i.
    Subtracting d(piece) leaves a p-closed remainder without dz_1..dz_i,
    which must vanish after the last variable.
    """
    p, n, r = form.p, form.n, form.r
    potential = DiffForm.zero(p, n, r - 1)
    rem = form
    for i in range(1, n + 1):
        if rem.is_zero():
            break
        omega_i, eta_i, _tau = p_decompose_step(rem, i)
        if not omega_i.is_zero():
            # p-closedness forbids a z_i^(p-1) layer at degree 1
            assert r > 1
            exps = [0] * n
            exps[i - 1] = p.p - 1
            beta = DiffForm(p, n, 1, {(i,): MultiPoly.monomial(p, n, exps)})
            piece = -beta.wedge(layered_potential(omega_i))
            potential = potential + piece
            rem = rem - piece.d()
        if not eta_i.is_zero():
            theta = eta_i._with_terms(
                {idx: c.antiderivative(i) for idx, c in eta_i.terms.items()}
            )
            potential = potential + theta
            rem = rem - theta.d()
    assert rem.is_zero()
    return potential


def _ordered_terms(form):
    return [
        (index, list(c.terms.items())) for index, c in form.terms.items()
    ]


def _layered_cases(rng, per_cell):
    """per_cell forms for every p, n <= 6 and 1 <= r <= n: p-closed ones,
    exact ones, and exact ones divided by a differential constant."""
    for p in (2, 3, 5, 7, 13):
        for n in range(1, 7):
            for r in range(1, n + 1):
                for k in range(per_cell):
                    if k % 3 == 0:
                        omega = random_p_closed_form(rng, p, n, r)
                    else:
                        omega = random_exact_form(rng, p, n, r, max_degree=3)
                    if k % 3 == 2:
                        lam = random_poly(
                            rng, p, n, max_degree=1, nonzero=True
                        ).substitute_pth()
                        omega = omega * RatFun(MultiPoly.constant(p, n, 1), lam)
                    yield omega


def test_integrate_matches_the_layered_proof():
    rng = random.Random(6005)
    rational = 0
    for omega in _layered_cases(rng, 20):
        if omega.is_polynomial:
            theta = integrate(omega)
            assert _ordered_terms(theta) == _ordered_terms(
                layered_potential(omega)
            )
            continue
        rational += 1
        lam, cleared = clear_denominators(omega)
        inner = layered_potential(cleared)
        assert _ordered_terms(integrate(cleared)) == _ordered_terms(inner)
        theta = integrate(omega)
        assert list(theta.terms) == list(inner.terms)
        for index, coeff in theta.terms.items():
            assert coeff.den == lam
            assert list(coeff.num.terms.items()) == list(
                inner.terms[index].terms.items()
            )
    assert rational > 400


@pytest.mark.parametrize("p", (3, 5, 7, 13))
def test_integrate_matches_the_layered_proof_on_dense_coefficients(p):
    # the exact benchmark's traffic: d of a dense eta with a dozen
    # monomial draws per index and exponents up to 2p
    rng = random.Random(6105 + p)
    for n in range(3, 7):
        for r in range(1, n + 1):
            for _ in range(2):
                omega = dense_form(rng, p, n, r - 1).d()
                assert _ordered_terms(integrate(omega)) == _ordered_terms(
                    layered_potential(omega)
                )


def test_integrate_matches_the_layered_proof_across_primes():
    # one exponent pattern per cell, integrated at each prime in turn,
    # p = 5 right before p = 7: the inverses of the weights mod p that
    # integrate looks up must belong to the call, not to the exponent
    rng = random.Random(6107)
    for n in range(3, 6):
        for r in range(1, n + 1):
            pattern = {
                index: [
                    (tuple(rng.randint(0, 10) for _ in range(n)), rng.choice((1, -1)))
                    for _ in range(10)
                ]
                for index in itertools.combinations(range(1, n + 1), r - 1)
            }
            for p in (2, 3, 1009, 2**31 - 1, 5, 7):
                eta = DiffForm(
                    p,
                    n,
                    r - 1,
                    {
                        index: MultiPoly(p, n, dict(monomials))
                        for index, monomials in pattern.items()
                    },
                )
                omega = eta.d()
                assert _ordered_terms(integrate(omega)) == _ordered_terms(
                    layered_potential(omega)
                )


def _capped_monomials(rng, p, n, r):
    """A p-closed sum of closed monomials z^E dz_I, each with E_j in
    {p-1, 2p} for j in I and in {0, p} elsewhere, and some E_j = 2p in I.

    Under the cap 2p each monomial's potential outgrows the cap in the
    first z_j of I with E_j = 2p, after the layers z_k^(p-1) dz_k before it.
    """
    terms = {}
    for index in itertools.combinations(range(1, n + 1), r):
        for _ in range(rng.randint(0, 2)):
            exps = tuple(
                rng.choice((p - 1, 2 * p)) if j in index else rng.choice((0, p))
                for j in range(1, n + 1)
            )
            if 2 * p in (exps[j - 1] for j in index):
                terms.setdefault(index, {})[exps] = rng.randint(1, p - 1)
    return DiffForm(
        p, n, r, {index: MultiPoly(p, n, t) for index, t in terms.items()}
    )


def test_overflow_names_the_potentials_first_variable_over_the_cap():
    # the layered proof, under a raised cap, gives the potential; under the
    # cap 2p, which the form fits, integrate raises the cap rule's message
    # for it: its first coefficient in index order with an exponent above
    # the cap, and there the first variable whose largest exponent passes it
    rng = random.Random(6006)
    named = set()
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 4)
        omega = _capped_monomials(rng, p, n, rng.randint(1, n))
        if omega.is_zero():
            continue
        with degree_limit(RAISED_CAP):
            expected = layered_potential(omega)
        message = cap_rule(expected.terms.values(), 2 * p)
        assert message is not None
        with degree_limit(2 * p):
            with pytest.raises(DegreeOverflow) as got:
                integrate(omega)
        assert str(got.value) == message
        named.add(message.split()[3])
    assert named == {"z1", "z2", "z3", "z4"}


def test_residual_checks_catch_a_dropped_term(monkeypatch):
    build = poincare._homotopy_potential

    def lossy(form):
        eta = build(form)
        index, coeff = next(iter(eta.terms.items()))
        first = next(iter(coeff.terms))
        rest = {e: c for e, c in coeff.terms.items() if e != first}
        return eta._with_terms(
            {**eta.terms, index: MultiPoly._trusted(coeff.p, coeff.n, rest)}
        )

    monkeypatch.setattr(poincare, "_homotopy_potential", lossy)
    for text, p, n in [
        ("(x^2 + y^2) dx^dy", 3, 2),
        ("(y/(x^3 + 1)) dx + (x/(x^3 + 1)) dy", 3, 2),
    ]:
        with pytest.raises(InternalResidual):
            integrate(parse_form(text, p, n))
    # == meets each denominator of omega with the cleared lam by exact
    # division, so the unaltered potential passes at the default cap
    eta = parse_form("(4/z2) dz1 + (11*z1*z2*z3^2/6*z2) dz2", 13, 3)
    monkeypatch.setattr(poincare, "_homotopy_potential", build)
    theta = integrate(eta.d())
    assert theta.d() == eta.d()
    monkeypatch.setattr(poincare, "_homotopy_potential", lossy)
    with pytest.raises(InternalResidual):
        integrate(eta.d())


def _rational_p_closed_form(rng, p):
    """A nonzero p-closed rational form with varied denominators.

    Half the time d of a random rational form, as the benchmark builds
    them.  Otherwise an exact polynomial form over a common differential
    constant D, each coefficient a/D rewritten as (a*M)/(D*M) with M drawn
    from 1, a nonzero constant, and one to three nonconstant differential
    constants, so a coefficient keeps its value over a denominator that
    is constant, promoted from a polynomial, or one of several.
    """
    while True:
        if rng.random() < 0.5:
            n = rng.randint(2, 3)
            r = rng.randint(1, n)
            omega = random_form(rng, p, n, r - 1, max_degree=1, rational=True).d()
        else:
            omega = _spread_over_denominators(rng, p, 3, rng.randint(1, 2))
        if not omega.is_zero():
            return omega


def _spread_over_denominators(rng, p, n, r):
    def pth_power():
        q = random_poly(rng, p, n, max_degree=2, max_terms=2, nonzero=True)
        return q.substitute_pth()

    beta = random_exact_form(rng, p, n, r, max_degree=2, max_terms=2)
    den = pth_power() if rng.random() < 0.5 else MultiPoly.constant(p, n, 1)
    multipliers = [
        MultiPoly.constant(p, n, 1),
        MultiPoly.constant(p, n, rng.randint(1, p - 1)),
    ] + [pth_power() for _ in range(rng.randint(1, 3))]
    # at most three coefficients, so each gets its own multiplier
    picked = rng.sample(multipliers, len(beta.terms))
    terms = {}
    for (index, a), m in zip(beta.terms.items(), picked):
        terms[index] = RatFun(a * m, den * m)
    return DiffForm(p, n, r, terms)


def test_rational_residual_check_agrees_with_cross_multiplication(monkeypatch):
    rng = random.Random(6061)
    clear = poincare.clear_denominators
    integrated, overflowed, counts = 0, 0, set()
    forms = []
    for p in (2, 3, 5, 13):
        for _ in range(40):
            omega = _rational_p_closed_form(rng, p)
            try:
                theta = integrate(omega)
            except DegreeOverflow:
                # only the clearing, or the potential of the cleared form
                # as on the polynomial path, may pass the cap
                try:
                    lam, cleared = clear(omega)
                    poincare._homotopy_potential(cleared)
                except DegreeOverflow:
                    overflowed += 1
                    continue
                raise
            with degree_limit(1024):
                assert theta.d() == omega
            integrated += 1
            dens = {c.den for c in omega.terms.values()}
            counts.add(sum(not den.is_constant() for den in dens))
            forms.append(omega)
    assert integrated > 100 and overflowed
    assert counts >= {0, 1, 2, 3}

    def doubled(form):
        lam, cleared = clear(form)
        return lam, 2 * cleared

    def scaled(form):
        lam, cleared = clear(form)
        return lam * MultiPoly.variable(form.p, form.n, 1) ** form.p.p, cleared

    # a cleared form or a lam that does not match the form is caught; the
    # raised cap is for scaled's own product
    for fake in (doubled, scaled):
        monkeypatch.setattr(poincare, "clear_denominators", fake)
        with degree_limit(1024):
            for omega in forms:
                with pytest.raises(InternalResidual):
                    integrate(omega)


def test_an_unintegrable_monomial_is_not_p_closed():
    # z^(p-1) dz has weight p: closed, and the builder, which is
    # integrate's p-closedness test, names its index
    for p in (2, 3, 5, 13):
        omega = DiffForm(p, 1, 1, {(1,): MultiPoly.monomial(p, 1, (p - 1,))})
        for build in (poincare._homotopy_potential, integrate):
            with pytest.raises(NotPClosed) as info:
                build(omega)
            assert str(info.value) == "obstructed at I=(1)"


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
        # a potential's exponents never pass the form's degree + 1, so
        # every margin >= 1 asks the same, unbounded, question
        assert str(exactness_oracle(omega, degree_margin=1)) == str(
            exactness_oracle(omega, degree_margin=40)
        )


def test_oracle_frozen_cases():
    (z,) = variables(3, 1)
    assert exactness_oracle(DiffForm(3, 1, 1, {(1,): z * z})) is None
    eta = exactness_oracle(DiffForm(3, 1, 1, {(1,): z}))
    assert eta is not None and eta.d() == DiffForm(3, 1, 1, {(1,): z})


def test_oracle_answers_the_zero_form_like_any_other():
    # the zero form has no weight blocks: its potential is the zero form of
    # one degree less, and a negative margin is refused for it as for all
    for p, n, r in ((2, 1, 1), (3, 2, 1), (5, 3, 2), (13, 3, 3)):
        zero = DiffForm.zero(p, n, r)
        for margin in (None, 0, 1):
            eta = exactness_oracle(zero, degree_margin=margin)
            assert eta.is_zero() and (eta.p.p, eta.n, eta.r) == (p, n, r - 1)
            assert eta.d() == zero
        with pytest.raises(ValueError, match="^degree_margin must be nonnegative$"):
            exactness_oracle(zero, degree_margin=-1)


def test_oracle_system_cap(monkeypatch):
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): x * y})
    eta = exactness_oracle(omega, degree_margin=1)
    assert eta is None or eta.d() == omega
    # the cap bounds one weight block: z1*...*z12 dz1^...^dz6 is a single
    # block on 12 variables, with C(12, 6) * C(12, 5) = 924 * 792 cells
    def product_form(n, r):
        monomial = "*".join("z%d" % i for i in range(1, n + 1))
        basis = "^".join("dz%d" % i for i in range(1, r + 1))
        return parse_form(monomial + " " + basis, 3, n)

    with pytest.raises(SystemTooLarge, match="^weight block has 731808 cells"):
        exactness_oracle(product_form(12, 6))

    # a block on 40 variables is refused before its index lists are built
    def enumerated(*args):
        raise AssertionError("the oracle enumerated an oversized block")

    monkeypatch.setattr(poincare, "combinations", enumerated)
    with pytest.raises(SystemTooLarge, match="cap is 200000$"):
        exactness_oracle(product_form(40, 20))
