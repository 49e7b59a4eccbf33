"""Constructive integration of p-closed forms, plus a brute-force oracle.

integrate() inverts d on p-closed forms in one pass over the monomials.
d keeps the weight w = E + chi(I) of z^E dz_I (chi = 0/1 membership
vector), so the complex splits into finite weight blocks.  With X =
z_i d/dz_i, Cartan's formula L_X = d iota_X + iota_X d, and L_X acting on
weight w as w_i, give omega = d(iota_X omega / w_i) for closed omega of
weight w with w_i != 0 (mod p), where iota_X(z^E dz_I) is (-1)^k z^(E+e_i)
dz_(I minus i) for i at position k (0-based) of I, and 0 for i not in I.
integrate takes the first such i, so each monomial gives at most one
monomial of the potential, and no two give the same one: its weight is
w, which fixes i, then E and I.  Every monomial of the potential is an
input monomial times one z_i, so its degree is at most the input's + 1.
The builder finds the slot of each i in I (the sum for I minus i, the
parity of its position in I) once per coefficient and each inverse of
w_i mod p once per call, and sets z_i's exponent in a list copy of E.
Its scan for i almost always stops at z1.  Each monomial of the
potential is written once, as a nonzero residue: nothing is reduced.

The builder is also the p-closedness test.  A monomial with all w_j = 0
(mod p) has E_j = p-1 (mod p) for each j in its index I, so it is kept by
partial_I^(p-1): on a closed form these monomials make up the irrational
part, which carries the Cartier classes, and no d-image has one (d
multiplies it by w_j = 0).  The builder raises NotPClosed at the first,
with the reason p_closed_failure gives, which names the same index I.

The paper's proof works layer by layer: it splits off z_i^(p-1) dz_i ^
omega_i and dz_i ^ eta_i per variable (p_decompose_step) and recurses
into omega_i.  It gives the same potential term for term and is the
oracle of tests/test_poincare.py.  Only grown exponents are compared
with the cap; once one outgrows it, the potential is checked by
poly._check_cap, coefficient by coefficient in index order.

Rational input is cleared to a polynomial form first: the collected
denominator lam is a differential constant, so omega = (lam * omega)/lam
integrates to (potential of lam * omega)/lam, whose d is d(potential of
lam * omega)/lam.  The form is cleared once, at entry, and that clearing
also gives the form its d when it has none, so a DegreeOverflow of the
clearing comes before NotPClosed.  A cleared coefficient num * m, with
m = lam / den a differential constant, keeps the residues of num's
monomials, so the builder meets the same obstruction.  Closedness is
checked at entry, p-closedness by the builder and d(potential) == form
once, at exit; a nonzero residual is a kernel bug and raises
InternalResidual.  Every denominator of the form divides lam, so RatFun
== meets each with lam by exact division: the check builds no product
larger than one the clearing built, and cannot outgrow the cap where the
clearing did not.

exactness_oracle() decides bounded exactness by Gaussian elimination over
F_p, one weight block w at a time, with no recourse to the integrator.
A block lives on the support S = {i : w_i >= 1} of its weight: its
equations are the r-indices in S and its unknowns the (r-1)-indices.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import (
    DegreeZero,
    InternalError,
    InternalResidual,
    NonPolynomial,
    NotPClosed,
    SystemTooLarge,
)
from .forms import DiffForm, _divided, _keep_cleared_d, _reduced_form, merge_indices
from .operators import p_closed_failure
from .poly import MultiPoly, max_degree_limit
from .ratfun import clear_denominators
from .scalar import inv_mod

DEFAULT_SYSTEM_CAP = 200_000


def integrate(form: DiffForm) -> DiffForm:
    """A potential eta with d(eta) = form, for p-closed forms of degree >= 1.

    The potential is polynomial for polynomial input; rational input
    yields coefficients over the cleared denominator lam.  d of the
    potential is kept on it, for the residual check (see the module
    docstring) and the caller's own.  Raises NotPClosed (naming the
    obstructed multi-index) when no potential exists.

    >>> from fpforms.parser import parse_form
    >>> omega = parse_form("(x^2 + y^2) dx^dy", 3, 2)
    >>> theta = integrate(omega)
    >>> print(theta)
    2*z1^2*z2 dz1 + z1*z2^2 dz2
    >>> theta.d() == omega
    True
    """
    if form.r == 0:
        raise DegreeZero("only forms of degree >= 1 have potentials")
    rational = not form.is_polynomial
    lam, cleared = clear_denominators(form)
    if rational:
        # the one clearing gives the closedness test its d(form) too
        _keep_cleared_d(form, lam, cleared)
    if not form.is_closed():
        raise NotPClosed("form is not closed")
    potential = inner = _homotopy_potential(cleared)
    if rational:
        # d(inner / lam) = d(inner) / lam, and the potential keeps it
        potential = _divided(inner, lam)
        _keep_cleared_d(potential, lam, inner)
    if potential.d() != form:
        raise InternalResidual("integration left a nonzero residual; this is a bug")
    return potential


def _homotopy_potential(form: DiffForm) -> DiffForm:
    """iota_X(form) / w_i on each weight block of a closed polynomial form.

    See the module docstring: the caller checks closedness, this
    p-closedness.  A scan for i that runs past z_n raises NotPClosed.
    """
    p, n = form.p.p, form.n
    limit = max_degree_limit()
    out = {}
    grown = False
    inverses = {}
    for index, coeff in form.terms.items():
        chi = [0] * n
        slots = [None] * n
        for k, i in enumerate(index):
            chi[i - 1] = 1
            rest = index[:k] + index[k + 1 :]
            # dz_index = (-1)^k dz_i ^ dz_rest, merge_indices' rule counted
            # inline; a call per slot would slow this loop
            slots[i - 1] = (out.setdefault(rest, {}), k % 2)
        for exps, c in coeff.terms.items():
            j = 0
            while not (exps[j] + chi[j]) % p:
                j += 1
                if j == n:
                    raise NotPClosed(p_closed_failure(form))
            slot = slots[j]
            if slot is None:
                continue
            target, odd = slot
            m = exps[j] + 1
            if m > limit:
                grown = True
            residue = m % p
            inverse = inverses.get(residue)
            if inverse is None:
                inverse = inverses[residue] = inv_mod(residue, p)
            v = c * inverse % p
            e = list(exps)
            e[j] = m
            target[tuple(e)] = p - v if odd else v
    return _reduced_form(form.p, n, form.r - 1, out, grown)


# ----------------------------------------------------------------------
# the linear-algebra oracle


def _solve_mod_p(m, p):
    """One solution x of A x = b over F_p for the rows [A | b] of m, or None.

    Plain Gaussian elimination in place; free variables are set to zero.
    The blocks this sees are tiny, so clarity wins over pivot strategy.
    """
    rows = len(m)
    cols = len(m[0]) - 1 if rows else 0
    pivot_of_col = {}
    rank = 0
    for c in range(cols):
        pivot = None
        for r0 in range(rank, rows):
            if m[r0][c]:
                pivot = r0
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = inv_mod(m[rank][c], p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r0 in range(rows):
            if r0 != rank and m[r0][c]:
                f = m[r0][c]
                m[r0] = [(a - f * b) % p for a, b in zip(m[r0], m[rank])]
        pivot_of_col[c] = rank
        rank += 1
        if rank == rows:
            break
    for r0 in range(rank, rows):
        if m[r0][cols]:
            return None
    x = [0] * cols
    for c, r0 in pivot_of_col.items():
        x[c] = m[r0][cols]
    return x


def exactness_oracle(
    form: DiffForm, degree_margin: int | None = None
) -> DiffForm | None:
    """Search for eta with d(eta) = form and bounded per-variable degree.

    The bound is (max per-variable degree of form) + degree_margin, with
    degree_margin defaulting to p.  An exponent of a potential is w_j or
    w_j - 1 for a weight w of the form, so never above the form's
    per-variable degree + 1: any margin >= 1 asks the unbounded question,
    and only margin 0 can refuse an exact form (z dz at p = 3).  Returns a
    verified potential, or None when no potential exists within the
    bound.  Raises SystemTooLarge when a single weight block, with support
    S = {i : w_i >= 1}, has more than DEFAULT_SYSTEM_CAP = 200,000 cells
    C(|S|, r) * C(|S|, r-1); the size is checked before the block is
    built.  Polynomial forms of degree >= 1 only.
    """
    if form.r == 0:
        raise DegreeZero("only forms of degree >= 1 can be exact")
    if not form.is_polynomial:
        raise NonPolynomial("the oracle searches polynomial potentials only")
    p, n, r = form.p.p, form.n, form.r
    margin = form.p.p if degree_margin is None else degree_margin
    if margin < 0:
        raise ValueError("degree_margin must be nonnegative")
    bound = form.max_var_degree() + margin

    # group the target by weight E + chi(I); d never mixes weights
    blocks: dict[tuple, dict] = {}
    for index, coeff in form.terms.items():
        for exps, c in coeff.terms.items():
            w = tuple(e + (i in index) for i, e in enumerate(exps, start=1))
            blocks.setdefault(w, {})[index] = c

    solution_terms: dict[tuple, dict] = {}
    for w, targets in sorted(blocks.items()):
        # every dz_i of a row or column of block w has w_i >= 1
        support = [i for i, e in enumerate(w, start=1) if e]
        size = comb(len(support), r) * comb(len(support), r - 1)
        if size > DEFAULT_SYSTEM_CAP:
            raise SystemTooLarge(
                "weight block has %d cells, cap is %d" % (size, DEFAULT_SYSTEM_CAP)
            )
        rows = list(combinations(support, r))
        cols = []
        for J in combinations(support, r - 1):
            e = tuple(v - (i in J) for i, v in enumerate(w, start=1))
            if max(e) <= bound:
                cols.append((J, e))
        # column J is d(z^(w - chi(J)) dz_J): w_j z^(w - chi(I)) dz_j ^ dz_J
        # for each j outside J, where I = J + {j} and dz_j ^ dz_J = sign dz_I;
        # the last column is the target
        row_of = {I: k for k, I in enumerate(rows)}
        m = [[0] * len(cols) + [targets.get(I, 0)] for I in rows]
        for c, (J, _) in enumerate(cols):
            for j in support:
                if w[j - 1] % p:
                    sign, I = merge_indices((j,), J)
                    if sign:
                        m[row_of[I]][c] = sign * w[j - 1] % p
        x = _solve_mod_p(m, p)
        if x is None:
            return None
        for (J, e), v in zip(cols, x):
            if v:
                solution_terms.setdefault(J, {})[e] = v

    terms = {J: MultiPoly(form.p, n, t) for J, t in solution_terms.items()}
    eta = DiffForm(form.p, n, r - 1, terms)
    if eta.d() != form:
        raise InternalError("oracle produced a non-potential; this is a bug")
    return eta
