"""Seeded random generators for forms, used by tests and the audit harness.

Everything takes an explicit random.Random so that a fixed seed pins the
whole stream; nothing here touches the global RNG state.
"""

from __future__ import annotations

import random
from itertools import combinations

from .cartier import gamma0
from .forms import DiffForm
from .operators import split_rational_irrational
from .poly import MultiPoly
from .ratfun import RatFun


def random_exps(rng: random.Random, n: int, max_degree: int):
    return tuple(rng.randint(0, max_degree) for _ in range(n))


def random_poly(
    rng: random.Random,
    p,
    n: int,
    max_degree: int = 4,
    max_terms: int = 3,
    nonzero: bool = False,
) -> MultiPoly:
    pint = int(p)
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        terms[random_exps(rng, n, max_degree)] = rng.randint(1, pint - 1)
    f = MultiPoly(p, n, terms)
    if nonzero and f.is_zero():
        return MultiPoly.constant(p, n, rng.randint(1, pint - 1))
    return f


def random_ratfun(
    rng: random.Random, p, n: int, max_degree: int = 2, max_terms: int = 2
) -> RatFun:
    num = random_poly(rng, p, n, max_degree, max_terms)
    den = random_poly(rng, p, n, max_degree, max_terms, nonzero=True)
    return RatFun(num, den)


def random_multi_index(rng: random.Random, n: int, r: int):
    return tuple(sorted(rng.sample(range(1, n + 1), r)))


def random_form(
    rng: random.Random,
    p,
    n: int,
    r: int,
    max_degree: int = 4,
    max_terms: int = 3,
    rational: bool = False,
) -> DiffForm:
    """A random degree-r form; roughly half the multi-indices appear."""
    all_indices = list(combinations(range(1, n + 1), r))
    terms = {}
    for index in all_indices:
        if rng.random() < 0.4:
            continue
        if rational:
            terms[index] = random_ratfun(rng, p, n, max_degree=max_degree)
        else:
            terms[index] = random_poly(rng, p, n, max_degree, max_terms)
    return DiffForm(p, n, r, terms)


def random_exact_form(
    rng: random.Random, p, n: int, r: int, max_degree: int = 4, max_terms: int = 3
) -> DiffForm:
    """d of a random (r-1)-form: exact, hence closed and p-closed."""
    if r < 1:
        raise ValueError("exact forms have degree >= 1")
    return random_form(rng, p, n, r - 1, max_degree, max_terms).d()


def random_gamma0_image(
    rng: random.Random, p, n: int, r: int, max_degree: int = 3
) -> DiffForm:
    """gamma0 of a random form: closed, and irrational unless zero."""
    return gamma0(random_form(rng, p, n, r, max_degree=max_degree, max_terms=2))


def random_closed_form(
    rng: random.Random, p, n: int, r: int, max_degree: int = 3
) -> DiffForm:
    """d(random) + gamma0(random): a closed form, usually not p-closed."""
    return random_exact_form(rng, p, n, r, max_degree) + random_gamma0_image(
        rng, p, n, r, max_degree=max(1, max_degree - 1)
    )


def random_p_closed_form(
    rng: random.Random, p, n: int, r: int, max_degree: int = 3
) -> DiffForm:
    """d(random) + rational part of a random closed form: p-closed."""
    closed = random_closed_form(rng, p, n, r, max_degree)
    rational_part = split_rational_irrational(closed).rational
    return random_exact_form(rng, p, n, r, max_degree) + rational_part
