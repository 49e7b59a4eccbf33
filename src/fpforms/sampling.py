"""Seeded random generators for forms, used by tests and the audit harness.

Everything takes an explicit random.Random so that a fixed seed pins the
whole stream; nothing here touches the global RNG state.

The arguments are checked once per call, at the trust boundary, and not
once per drawn term.  random_poly and random_form check the
characteristic (Prime), the arity n and the form degree r, and they scan
the drawn exponents against the degree cap only when max_degree exceeds
it; the Prime is passed down, so no inner call tests primality again.
Every draw is clean by construction, a residue in 1..p-1 at exponents in
0..max_degree, so the coefficients are built by MultiPoly._trusted with
their terms in the order drawn (a polynomial keeps no term order), and
the form by DiffForm._trusted with its zero coefficients dropped.
random_ratfun keeps the validating RatFun constructor, since inflating
the denominator is the mathematics.  The draws and their order are those
of the validating constructors, and _randint draws each integer from
rng.getrandbits by the rejection rule of random.Random.randint, without
its three Python frames, so a seed gives the same stream and the same
forms.  random_exps applies the same rule inline, with getrandbits and
the bit width bound once per exponent vector.
"""

from __future__ import annotations

import random
from itertools import combinations

from .cartier import gamma0
from .forms import DiffForm, _check_form_degree
from .operators import split_rational_irrational
from .poly import MultiPoly, _check_arity, _check_degree, max_degree_limit
from .ratfun import RatFun
from .scalar import Prime


def _randint(rng: random.Random, a: int, b: int) -> int:
    """rng.randint(a, b) with randint's stream: width.bit_length() bits
    (one for width 1), drawn again while the value is >= width."""
    width = b - a + 1
    if width < 1:
        return rng.randint(a, b)  # raises randint's ValueError
    k = width.bit_length()
    v = rng.getrandbits(k)
    while v >= width:
        v = rng.getrandbits(k)
    return a + v


def random_exps(rng: random.Random, n: int, max_degree: int):
    """n draws of _randint(rng, 0, max_degree), with getrandbits and the
    bit width bound once for the whole vector."""
    width = max_degree + 1
    if width < 1:
        return tuple([_randint(rng, 0, max_degree) for _ in range(n)])
    k = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(n):
        v = getrandbits(k)
        while v >= width:
            v = getrandbits(k)
        out.append(v)
    return tuple(out)


def random_poly(
    rng: random.Random,
    p,
    n: int,
    max_degree: int = 4,
    max_terms: int = 3,
    nonzero: bool = False,
) -> MultiPoly:
    p = Prime(p)
    _check_arity(n)
    terms = {}
    for _ in range(_randint(rng, 0 if not nonzero else 1, max_terms)):
        terms[random_exps(rng, n, max_degree)] = _randint(rng, 1, p.p - 1)
    if max_degree > max_degree_limit():
        _check_degree(terms)
    return MultiPoly._trusted(p, n, terms)


def random_ratfun(
    rng: random.Random, p, n: int, max_degree: int = 2, max_terms: int = 2
) -> RatFun:
    p = Prime(p)
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
    p = Prime(p)
    _check_arity(n)
    _check_form_degree(r)
    terms = {}
    for index in combinations(range(1, n + 1), r):
        if rng.random() < 0.4:
            continue
        if rational:
            coeff = random_ratfun(rng, p, n, max_degree=max_degree)
        else:
            coeff = random_poly(rng, p, n, max_degree, max_terms)
        if not coeff.is_zero():
            terms[index] = coeff
    return DiffForm._trusted(p, n, r, terms)


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
