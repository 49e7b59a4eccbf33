import random

import pytest

from fpforms import (
    DegreeZero,
    DiffForm,
    MultiPoly,
    NonPolynomial,
    NotClosed,
    RatFun,
    corollary_condition,
    degree_limit,
    gamma0,
    irrational_part,
    is_p_closed,
    o_operator,
    o_operator_expanded,
    p_closed_failure,
    p_operator,
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
    random_multi_index,
    random_p_closed_form,
    random_poly,
)

PRIMES = (2, 3, 5)


def test_obstructed_power_is_never_p_closed():
    for p in (2, 3, 5, 7):
        omega = DiffForm(p, 1, 1, {(1,): MultiPoly.monomial(p, 1, (p - 1,))})
        assert not is_p_closed(omega)
        assert p_closed_failure(omega) == "obstructed at I=(1)"


def test_p_closed_failure_names_first_bad_index():
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): y * y * x * x})
    assert p_closed_failure(omega) == "form is not closed"
    closed_bad = DiffForm(3, 2, 2, {(1, 2): x * x * y * y})
    assert p_closed_failure(closed_bad) == "obstructed at I=(1,2)"
    assert p_closed_failure(DiffForm(3, 2, 1, {(1,): x})) is None


@pytest.mark.parametrize(
    "text, reason",
    [
        ("2", None),
        ("(2*y^3/y^3)", None),
        ("x", "degree-0 form is not a field constant"),
        ("(x^3/y^3)", "degree-0 form is not a field constant"),
    ],
)
def test_a_degree_zero_form_is_p_closed_when_it_is_a_field_constant(text, reason):
    # the rational cases reach RatFun.is_constant
    omega = parse_form(text, 3, 2)
    assert p_closed_failure(omega) == reason
    assert is_p_closed(omega) is (reason is None)
    assert corollary_condition(omega) is (reason is None)


def test_phi_on_closed_forms_is_differential_constant():
    rng = random.Random(5001)
    for _ in range(80):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        for coeff in phi(omega).terms.values():
            assert coeff.is_differential_constant()


def test_corollary_condition_strictly_stronger_than_p_closed():
    # the Remark's form: p-closed through cancellation, yet every single
    # (p-1)-fold derivative of the coefficient survives
    x, y = variables(2, 2)
    omega = DiffForm(2, 2, 2, {(1, 2): x + y})
    assert is_p_closed(omega)
    assert not corollary_condition(omega)
    # while the condition still implies p-closedness on random samples
    rng = random.Random(5002)
    for _ in range(80):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_form(rng, p, n, r)
        if corollary_condition(omega):
            assert is_p_closed(omega)


def test_p_operator_monomial_slices():
    for p in PRIMES:
        (z,) = variables(p, 1)
        obstructed = z ** (p - 1)
        assert p_operator(obstructed, (1,)) == -obstructed
        for e in range(2 * p):
            mono = MultiPoly.monomial(p, 1, (e,))
            image = p_operator(mono, (1,))
            if e % p == p - 1:
                assert image == -mono
            else:
                assert image.is_zero()


def test_p_operator_products_and_signs():
    rng = random.Random(5003)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        index = random_multi_index(rng, n, r)
        f = random_poly(rng, p, n, max_degree=2 * p)
        once = p_operator(f, index)
        # componentwise composition of the singleton operators
        composed = f
        for i in index:
            composed = p_operator(composed, (i,))
        assert once == composed
        # P_J P_J = (-1)^r P_J
        twice = p_operator(once, index)
        assert twice == once * (1 if r % 2 == 0 else -1)
    # the naive route, z_J^(p-1) times the iterated partial_pow chain, up
    # to p = 13 and on rational coefficients
    for _ in range(40):
        p = rng.choice(PRIMES + (13,))
        n = rng.randint(1, 3)
        index = random_multi_index(rng, n, rng.randint(1, n))
        num = random_poly(rng, p, n, max_degree=2 * p)
        den = random_poly(rng, p, n, max_degree=1, max_terms=2, nonzero=True)
        power = MultiPoly.monomial(p, n, tuple(
            p - 1 if k in index else 0 for k in range(1, n + 1)
        ))
        for f in (num, RatFun(num, den)):
            chain = f
            for i in index:
                chain = chain.partial_pow(i, p - 1)
            assert p_operator(f, index) == chain * power


def test_irrational_part_frozen_example():
    x, _ = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): x * x + x})
    split = split_rational_irrational(omega)
    assert split.irrational == DiffForm(3, 2, 1, {(1,): x * x})
    assert split.rational == DiffForm(3, 2, 1, {(1,): x})
    assert split.rational + split.irrational == omega


def test_irrational_part_rejects_degree_zero_and_non_closed():
    x, y = variables(3, 2)
    with pytest.raises(DegreeZero):
        irrational_part(DiffForm(3, 2, 0, {(): x}))
    with pytest.raises(NotClosed):
        split_rational_irrational(DiffForm(3, 2, 1, {(1,): y}))


def test_split_laws_random():
    rng = random.Random(5004)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        split = split_rational_irrational(omega)
        assert split.rational + split.irrational == omega
        assert is_p_closed(split.rational)
        assert split.irrational.is_closed()
        assert irrational_part(split.rational).is_zero()
        # Q_r is idempotent on closed forms
        assert irrational_part(split.irrational) == split.irrational
        assert split.irrational.is_zero() == is_p_closed(omega)


def test_irrational_part_of_rational_coefficients():
    # denominators are p-th powers, so the projector acts upstairs;
    # here the whole numerator sits in the z1-obstruction slice
    x, y = variables(3, 2)
    omega = DiffForm(3, 2, 1, {(1,): RatFun(x * x * y, y**3)})
    assert irrational_part(omega) == omega
    # while a fully unobstructed numerator projects to zero
    flat = DiffForm(3, 2, 1, {(1,): RatFun(x * y, y**3)})
    assert irrational_part(flat).is_zero()


def weight_zero_block(form):
    """The monomials z^E dz_I of form whose weight E + chi(I) is 0 (mod p)
    in every variable; a rational coefficient keeps its denominator, a
    p-th power of weight 0, and filters its numerator."""
    p = form.p.p
    out = {}
    for index, coeff in form.terms.items():
        num = coeff.num if isinstance(coeff, RatFun) else coeff
        kept = {
            e: c
            for e, c in num.terms.items()
            if all((v + (i in index)) % p == 0 for i, v in enumerate(e, start=1))
        }
        part = MultiPoly(form.p, form.n, kept)
        out[index] = RatFun(part, coeff.den) if isinstance(coeff, RatFun) else part
    return DiffForm(form.p, form.n, form.r, out)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_irrational_part_of_a_closed_form_is_its_weight_zero_block(p):
    # blocks with some w_i != 0 (mod p) are exact, and every monomial of
    # weight 0 passes the P_I test; so on closed forms Q_r is the weight
    # filter, and p_closed_failure names the first index of that block
    rng = random.Random(5100 + p)
    obstructed = unobstructed = rational_obstructed = 0
    with degree_limit(50 * p * p):
        for _ in range(40):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            for rational in (False, True):
                def draw(degree, max_degree):
                    return random_form(
                        rng, p, n, degree, max_degree=max_degree,
                        max_terms=3, rational=rational,
                    )

                omega = draw(r - 1, 2 * p).d()
                if rng.random() < 0.7:
                    omega = omega + gamma0(draw(r, 1))
                block = weight_zero_block(omega)
                assert irrational_part(omega) == block
                first = next(iter(block.terms), None)
                if first is None:
                    assert p_closed_failure(omega) is None
                    unobstructed += not omega.is_zero()
                else:
                    expected = "obstructed at I=(%s)" % ",".join(map(str, first))
                    assert p_closed_failure(omega) == expected
                    obstructed += 1
                    rational_obstructed += not omega.is_polynomial
    assert obstructed >= 20 and unobstructed >= 10 and rational_obstructed >= 8


def test_p_decompose_step_reconstructs():
    # the split is exact on every polynomial form of degree >= 1, whether
    # p-closed, closed only, or neither
    rng = random.Random(5005)
    not_p_closed = 0
    for trial in range(240):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        if trial % 3 == 0:
            omega = random_p_closed_form(rng, p, n, r)
        elif trial % 3 == 1:
            omega = random_closed_form(rng, p, n, r)
        else:
            omega = random_form(rng, p, n, r, max_degree=2 * p, max_terms=5)
        not_p_closed += not is_p_closed(omega)
        i = rng.randint(1, n)
        omega_i, eta_i, tau_i = p_decompose_step(omega, i)
        dz_i = DiffForm.basis(p, n, (i,))
        power = MultiPoly.monomial(p, n, tuple(
            p - 1 if k == i else 0 for k in range(1, n + 1)
        ))
        rebuilt = wedge(dz_i * power, omega_i) + wedge(dz_i, eta_i) + tau_i
        assert rebuilt == omega
        # tau_i avoids dz_i entirely
        assert all(i not in index for index in tau_i.terms)
        # omega_i has p-divisible exponents in z_i, eta_i avoids the residue p-1
        for coeff in omega_i.terms.values():
            assert all(e[i - 1] % p == 0 for e in coeff.terms)
        for coeff in eta_i.terms.values():
            assert all(e[i - 1] % p != p - 1 for e in coeff.terms)
    assert not_p_closed > 80


def test_o_operator_singletons_match_p_operator():
    rng = random.Random(5006)
    for _ in range(80):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        f = random_poly(rng, p, n, max_degree=2 * p)
        i = rng.randint(1, n)
        assert o_operator(f, (i,)) == p_operator(f, (i,))


def test_o_operator_expanded_agrees():
    rng = random.Random(5007)
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        index = random_multi_index(rng, n, r)
        f = random_poly(rng, p, n, max_degree=2 * p)
        assert o_operator(f, index) == o_operator_expanded(f, index)


def test_o_operator_rejects_rational_coefficients():
    x, _ = variables(3, 2)
    with pytest.raises(NonPolynomial):
        o_operator(RatFun(x, x**3), (1,))


def restricted_slice(form):
    """Independent route: keep the monomials with some index variable
    at exponent residue p - 1."""
    p = int(form.p.p) if hasattr(form.p, "p") else int(form.p)
    out = {}
    for index, coeff in form.terms.items():
        kept = {
            exps: c
            for exps, c in coeff.terms.items()
            if any(exps[i - 1] % p == p - 1 for i in index)
        }
        if kept:
            out[index] = MultiPoly(form.p, form.n, kept)
    return DiffForm(form.p, form.n, form.r, out)


def test_complete_restricted_split_matches_monomial_slicing():
    rng = random.Random(5008)
    for _ in range(100):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_form(rng, p, n, r)
        split = split_complete_restricted(omega)
        assert split.complete + split.restricted == omega
        assert split.restricted == restricted_slice(omega)
        # projector laws
        again = split_complete_restricted(split.restricted)
        assert again.restricted == split.restricted
        assert split_complete_restricted(split.complete).restricted.is_zero()


def test_complete_part_integrates_in_every_index_variable():
    rng = random.Random(5009)
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_form(rng, p, n, r)
        complete = split_complete_restricted(omega).complete
        for index, coeff in complete.terms.items():
            for i in index:
                # no obstruction in any variable of the index
                coeff.antiderivative(i)
