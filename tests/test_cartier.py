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
    random_poly,
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


# (p, n, r, s): every split of a degree r + s <= n into two positive ones
SPLITS = [
    (p, n, r, s)
    for p in (2, 3, 5, 7)
    for n in range(2, 5)
    for r in range(1, n)
    for s in range(1, n - r + 1)
]


def test_cartier_is_multiplicative():
    # C(a ^ b) = C(a) ^ C(b) for closed a and b: with C(gamma0(alpha)) =
    # alpha, C makes the cohomology a graded ring isomorphic to the forms
    rng = random.Random(7008)
    nonzero = 0
    for p, n, r, s in SPLITS * 10:
        a = random_closed_form(rng, p, n, r, max_degree=2)
        b = random_closed_form(rng, p, n, s, max_degree=2)
        image = cartier(a.wedge(b))
        assert image == cartier(a).wedge(cartier(b))
        nonzero += not image.is_zero()
    assert nonzero > len(SPLITS) * 3


def test_cartier_is_semilinear_over_the_differential_constants():
    # C(g(z^p) a) = g C(a): K[z^p] acts on the classes through z^p -> z
    rng = random.Random(7009)
    nonzero = 0
    cells = [
        (p, n, r) for p in (2, 3, 5, 7) for n in range(2, 5) for r in range(1, n + 1)
    ]
    for p, n, r in cells * 10:
        a = random_closed_form(rng, p, n, r, max_degree=2)
        g = random_poly(rng, p, n, max_degree=2, max_terms=3)
        image = cartier(a * g.substitute_pth())
        assert image == cartier(a) * g
        nonzero += not image.is_zero()
    assert nonzero > len(cells) * 3


def test_cartier_guards():
    x, y = variables(3, 2)
    with pytest.raises(DegreeZero):
        cartier(DiffForm(3, 2, 0, {(): x}))
    with pytest.raises(NotClosed):
        cartier(DiffForm(3, 2, 1, {(1,): y}))
    with pytest.raises(NonPolynomial):
        cartier(DiffForm(3, 2, 1, {(1,): RatFun(x, x**3)}))
    with pytest.raises(NotClosed):
        same_class(DiffForm(3, 2, 1, {(1,): x}), DiffForm(3, 2, 1, {(1,): y}))


def test_class_representative_witness():
    rng = random.Random(7005)
    for _ in range(60):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        omega = random_closed_form(rng, p, n, r)
        witness = class_representative(omega)
        assert witness.representative == irrational_part(omega)
        assert witness.difference_p_closed
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
