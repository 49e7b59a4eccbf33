import random

import pytest

from fpforms import (
    DegreeMismatch,
    DegreeZero,
    DiffForm,
    MultiPoly,
    NonPolynomial,
    NotClosed,
    RatFun,
    cartier,
    class_representative,
    gamma0,
    integrate,
    irrational_part,
    is_p_closed,
    same_class,
    variables,
)
from fpforms.sampling import (
    random_closed_form,
    random_exact_form,
    random_form,
)

TRIALS = 100
PRIMES = (2, 3, 5)


def test_frozen_values():
    (z,) = variables(3, 1)
    omega = DiffForm(3, 1, 1, {(1,): z * z})
    assert cartier(omega) == DiffForm(3, 1, 1, {(1,): MultiPoly.constant(3, 1, 1)})
    assert gamma0(cartier(omega)) == omega
    x, y = variables(3, 2)
    alpha = DiffForm(3, 2, 1, {(1,): x})
    assert gamma0(alpha) == DiffForm(3, 2, 1, {(1,): x**5})


def test_gamma0_fixes_logarithmic_form():
    (z,) = variables(3, 1)
    dlog = DiffForm(3, 1, 1, {(1,): RatFun(MultiPoly.constant(3, 1, 1), z)})
    assert gamma0(dlog) == dlog


def test_gamma0_images_are_closed_and_irrational():
    rng = random.Random(7001)
    for _ in range(TRIALS):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        alpha = random_form(rng, p, n, r, max_degree=2)
        image = gamma0(alpha)
        # a checked copy: the image carries its zero derivative
        assert DiffForm(p, n, r, image.terms).is_closed()
        assert irrational_part(image) == image


def test_cartier_inverts_gamma0():
    rng = random.Random(7002)
    for _ in range(TRIALS):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        alpha = random_form(rng, p, n, r, max_degree=2)
        assert cartier(gamma0(alpha)) == alpha


def test_gamma0_of_cartier_matches_up_to_p_closed():
    rng = random.Random(7003)
    for _ in range(TRIALS):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        assert is_p_closed(gamma0(cartier(omega)) - omega)
        # the naive route: (-1)^r unfrob of the iterated partial_pow chain
        naive = {}
        for index, coeff in omega.terms.items():
            for i in index:
                coeff = coeff.partial_pow(i, p - 1)
            naive[index] = coeff.unsubstitute_pth()
        sign = -1 if r % 2 else 1
        assert cartier(omega) == DiffForm(p, n, r, naive) * sign


def test_cartier_kills_exact_forms():
    rng = random.Random(7004)
    for _ in range(TRIALS):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        assert cartier(random_exact_form(rng, p, n, r)).is_zero()


def test_cartier_guards():
    x, y = variables(3, 2)
    with pytest.raises(DegreeZero):
        cartier(DiffForm(3, 2, 0, {(): x}))
    with pytest.raises(NotClosed):
        cartier(DiffForm(3, 2, 1, {(1,): y}))
    with pytest.raises(NonPolynomial):
        cartier(DiffForm(3, 2, 1, {(1,): RatFun(x, x**3)}))


def test_class_representative_witness():
    rng = random.Random(7005)
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        witness = class_representative(omega)
        assert witness.representative == irrational_part(omega)
        assert witness.exact_difference_check
        assert same_class(omega, witness.representative)


def test_same_class_modulo_exact_perturbations():
    rng = random.Random(7006)
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        assert same_class(omega, omega + random_exact_form(rng, p, n, r))


def test_same_class_distinguishes_obstructions():
    (z,) = variables(3, 1)
    obstructed = DiffForm(3, 1, 1, {(1,): z * z})
    assert not same_class(obstructed, DiffForm.zero(3, 1, 1))
    assert same_class(obstructed + DiffForm(3, 1, 1, {(1,): z}), obstructed)
    with pytest.raises(DegreeMismatch):
        same_class(obstructed, DiffForm.zero(3, 1, 0))


def test_representative_difference_integrates():
    # the recorded check means omega - representative is honestly exact
    rng = random.Random(7007)
    for _ in range(40):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        witness = class_representative(omega)
        diff = omega - witness.representative
        assert integrate(diff).d() == diff
