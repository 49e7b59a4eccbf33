"""Constructive integration of p-closed forms, plus a brute-force oracle.

integrate() inverts the exterior derivative on p-closed forms.  It peels
off one variable at a time: writing the running remainder as

    rem = z_i^(p-1) dz_i ^ omega_i + dz_i ^ eta_i + tau_i

(the decomposition of p_decompose_step), the two dz_i layers are exact on
the nose,

    z_i^(p-1) dz_i ^ omega_i = d(-z_i^(p-1) dz_i ^ alpha)   (d alpha = omega_i)
    dz_i ^ eta_i             = d(antiderivative of eta_i in z_i) + lower;

the recursive call producing alpha drops the form degree, and eta_i is
unobstructed by construction.  Subtracting d(piece) keeps the remainder
equal to input - d(potential so far), so the remainder stays closed and
p-closed, loses dz_1..dz_i after step i, and must vanish once every
variable is processed.  p-closedness is therefore checked once, at entry,
and not again per layer; a nonzero final remainder is a kernel bug and
raises InternalResidual.

Rational input is cleared to a polynomial form first: the collected
denominator lam is a differential constant, so omega = (lam * omega)/lam
integrates to (potential of lam * omega)/lam.

exactness_oracle() answers "is omega = d(eta) solvable with eta of bounded
degree" by exact linear algebra, with no recourse to the integrator: d
maps the monomial z^E dz_J to a combination of monomials z^(E') dz_I with
E' + chi(I) = E + chi(J) (chi = 0/1 membership vector), so the linear
system splits into independent blocks indexed by that weight vector, each
block involving at most C(n, r-1) unknowns.  Solvability over the bounded
monomial space is decided blockwise by Gaussian elimination over F_p.
"""

from __future__ import annotations

import warnings
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
from .forms import DiffForm, insert_index
from .operators import p_closed_failure, p_decompose_step
from .poly import MultiPoly
from .ratfun import RatFun, clear_denominators

DEFAULT_SYSTEM_CAP = 200_000


def integrate(form: DiffForm) -> DiffForm:
    """A potential eta with d(eta) = form, for p-closed forms of degree >= 1.

    The potential is polynomial for polynomial input; rational input
    yields coefficients over the cleared denominator.  Raises NotPClosed
    (naming the offending layer) when no potential exists.

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
    reason = p_closed_failure(form)
    if reason is not None:
        raise NotPClosed(reason)
    if form.is_polynomial:
        potential = _integrate_polynomial(form)
        _warn_on_degree_growth(form, potential)
    else:
        lam, cleared = clear_denominators(form)
        inner = _integrate_polynomial(cleared)
        # lam is a nonzero differential constant and inner has no zero
        # coefficient, so the potential is clean by construction
        terms = {
            index: RatFun._trusted(coeff, lam)
            for index, coeff in inner.terms.items()
        }
        potential = DiffForm._trusted(form.p, form.n, form.r - 1, terms)
    if not (form - potential.d()).is_zero():
        raise InternalResidual(
            "integration left a nonzero residual; this is a bug"
        )
    return potential


def _integrate_polynomial(form: DiffForm) -> DiffForm:
    p, n, r = form.p, form.n, form.r
    potential = DiffForm.zero(p, n, r - 1)
    rem = form
    for i in range(1, n + 1):
        if rem.is_zero():
            break
        omega_i, eta_i, _tau = p_decompose_step(rem, i)
        if not omega_i.is_zero():
            if r == 1:
                # p-closedness forbids a z_i^(p-1) layer at degree 1
                raise InternalError(
                    "unexpected obstruction layer in a p-closed 1-form"
                )
            alpha = _integrate_polynomial(omega_i)
            exps = [0] * n
            exps[i - 1] = p.p - 1
            beta = DiffForm(p, n, 1, {(i,): MultiPoly.monomial(p, n, exps)})
            piece = -beta.wedge(alpha)
            potential = potential + piece
            rem = rem - piece.d()
        if not eta_i.is_zero():
            theta = eta_i._with_terms(
                {idx: c.antiderivative(i) for idx, c in eta_i.terms.items()}
            )
            potential = potential + theta
            rem = rem - theta.d()
    if not rem.is_zero():
        raise InternalResidual(
            "integration left a nonzero residual; this is a bug"
        )
    return potential


def _warn_on_degree_growth(form: DiffForm, potential: DiffForm) -> None:
    # Observed bound: one antiderivative per variable, so +1.  Kept as a
    # soft warning rather than an invariant.
    if potential.max_var_degree() > form.max_var_degree() + 1:
        warnings.warn(
            "potential degree %d exceeds input degree %d + 1"
            % (potential.max_var_degree(), form.max_var_degree()),
            RuntimeWarning,
            stacklevel=3,
        )


# ----------------------------------------------------------------------
# the linear-algebra oracle


def _solve_mod_p(matrix, rhs, p):
    """One solution of matrix * x = rhs over F_p, or None.

    Plain Gaussian elimination; free variables are set to zero.  The
    blocks this sees are tiny, so clarity wins over pivot strategy.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    m = [list(row) + [b] for row, b in zip(matrix, rhs)]
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
        inv = pow(m[rank][c], p - 2, p)
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
    form: DiffForm,
    degree_margin: int | None = None,
    system_cap: int = DEFAULT_SYSTEM_CAP,
) -> DiffForm | None:
    """Search for eta with d(eta) = form and bounded per-variable degree.

    The bound is (max per-variable degree of form) + degree_margin, with
    degree_margin defaulting to p.  Returns a verified potential, or None
    when no potential exists within the bound.  Raises SystemTooLarge when
    the bounded monomial space C(n, r-1) * (bound+1)^n exceeds system_cap;
    polynomial forms of degree >= 1 only.
    """
    if form.r == 0:
        raise DegreeZero("only forms of degree >= 1 can be exact")
    if not form.is_polynomial:
        raise NonPolynomial("the oracle searches polynomial potentials only")
    p, n, r = form.p.p, form.n, form.r
    if form.is_zero():
        return DiffForm.zero(form.p, n, r - 1)
    margin = form.p.p if degree_margin is None else degree_margin
    if margin < 0:
        raise ValueError("degree_margin must be nonnegative")
    bound = form.max_var_degree() + margin
    size = comb(n, r - 1) * (bound + 1) ** n
    if size > system_cap:
        raise SystemTooLarge(
            "bounded search space has %d cells, cap is %d" % (size, system_cap)
        )

    row_indices = list(combinations(range(1, n + 1), r))
    col_indices = list(combinations(range(1, n + 1), r - 1))

    def chi(index):
        return tuple(1 if i in index else 0 for i in range(1, n + 1))

    # group the target by weight E + chi(I); d never mixes weights
    blocks: dict[tuple, dict] = {}
    for index, coeff in form.terms.items():
        ch = chi(index)
        for exps, c in coeff.terms.items():
            w = tuple(e + x for e, x in zip(exps, ch))
            blocks.setdefault(w, {})[index] = c

    solution_terms: dict[tuple, dict] = {}
    for w, targets in sorted(blocks.items()):
        rows = [I for I in row_indices if _nonneg(w, I)]
        cols = [
            J
            for J in col_indices
            if _nonneg(w, J) and all(e <= bound for e in _drop(w, J))
        ]
        matrix = []
        rhs = []
        for I in rows:
            row = []
            for J in cols:
                # entry: coefficient of z^(w - chi(I)) dz_I in d(z^(w - chi(J)) dz_J)
                entry = 0
                j = _difference(I, J)
                if j is not None:
                    sign, merged = insert_index(J, j)
                    if merged == I:
                        entry = sign * (w[j - 1] % p) % p
                row.append(entry)
            matrix.append(row)
            rhs.append(targets.get(I, 0))
        x = _solve_mod_p(matrix, rhs, p)
        if x is None:
            return None
        for J, v in zip(cols, x):
            if v:
                solution_terms.setdefault(J, {})[_drop(w, J)] = v

    eta = DiffForm(
        form.p,
        n,
        r - 1,
        {
            J: MultiPoly(form.p, n, terms)
            for J, terms in solution_terms.items()
        },
    )
    if eta.d() != form:
        raise InternalError("oracle produced a non-potential; this is a bug")
    return eta


def _nonneg(w, index):
    return all(w[i - 1] >= 1 for i in index)


def _drop(w, index):
    return tuple(
        e - (1 if i in index else 0) for i, e in enumerate(w, start=1)
    )


def _difference(I, J):
    """The single element of I \\ J when J is I minus one entry, else None."""
    if len(I) != len(J) + 1:
        return None
    extra = None
    j = 0
    for i in I:
        if j < len(J) and J[j] == i:
            j += 1
        elif extra is None:
            extra = i
        else:
            return None
    return extra if j == len(J) else None
