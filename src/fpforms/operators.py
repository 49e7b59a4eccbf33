"""The (p-1)-fold derivative operators and the two canonical splits.

Everything here is driven by one scalar fact: on F_p[z], the operator
z^(p-1) d^(p-1)/dz^(p-1) acts diagonally on monomials, sending z^m to
-z^m when m = p-1 (mod p) and to 0 otherwise (Wilson's theorem; see
MultiPoly.residue_mask, the one pass every operator below calls).  Writing

    P_J f = z_J^(p-1) * partial_J^(p-1) f      (one factor per j in J)

the composite P_J is the signed projection onto monomials whose exponents
hit the residue p-1 in every variable of J.  From it we build:

* phi(omega): coefficient-wise partial_I^(p-1), whose vanishing on a
  closed form is exactly p-closedness (the obstruction to exactness);
* the irrational part Q_r(omega) = (-1)^r sum_I P_I(a_I) dz_I, an
  idempotent projector; omega splits as (omega - Q_r omega) + Q_r omega
  into an exact ("rational") part and a projector image carrying the
  whole obstruction;
* O_J = product over j in J of (1 + P_j), minus the identity; the induced
  split of omega into a completely integrable part and a restricted part
  (the span of monomials with at least one exponent = p-1 inside their
  own index).

Sign conventions are chosen so that every projector here is idempotent:
Q_r Q_r = Q_r and O_r O_r = O_r, where O_r(omega) = -sum_J O_J(a_J) dz_J.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import DegreeZero, NonPolynomial, NotClosed
from .forms import DiffForm, merge_indices
from .poly import MultiPoly, _check_var
from .ratfun import RatFun

__all__ = [
    "is_p_closed",
    "p_closed_failure",
    "corollary_condition",
    "phi",
    "p_operator",
    "irrational_part",
    "SplitRI",
    "split_rational_irrational",
    "p_decompose_step",
    "o_operator",
    "o_operator_expanded",
    "SplitCT",
    "split_complete_restricted",
]


def _index_text(index):
    return "I=(%s)" % ",".join(str(i) for i in index)


def _masked(form: DiffForm, every=True, sign=1, lower=False) -> DiffForm:
    """Each coefficient a_I replaced by a_I.residue_mask(I, every, sign, lower),
    through the unchecked kernel: the form guarantees its indices."""
    return form._with_terms(
        {
            index: coeff._residue_mask(index, every, sign, lower)
            for index, coeff in form.terms.items()
        }
    )


def p_closed_failure(form: DiffForm):
    """None when the form is p-closed, else a human-readable reason.

    Degree 0: p-closed means the value is a constant of F_p.  Higher
    degree: the form must be closed and every coefficient must be killed
    by the (p-1)-fold derivative over its own multi-index.
    """
    if form.r == 0:
        coeff = form.coefficient(())
        if not coeff.is_constant():
            return "degree-0 form is not a field constant"
        return None
    if not form.is_closed():
        return "form is not closed"
    for index, coeff in form.terms.items():
        if not coeff.partial_multi(index).is_zero():
            return "obstructed at %s" % _index_text(index)
    return None


def is_p_closed(form: DiffForm) -> bool:
    """Closed, with vanishing (p-1)-fold derivatives: the exactness test.

    >>> from fpforms.parser import parse_form
    >>> is_p_closed(parse_form("z^2 dz", 2, 1))
    True
    >>> is_p_closed(parse_form("z dz", 2, 1))
    False
    """
    return p_closed_failure(form) is None


def corollary_condition(form: DiffForm) -> bool:
    """Closed, and every coefficient loses some variable of its own index
    after a single (p-1)-fold derivative.

    Sufficient for p-closedness but strictly weaker as a test: it can
    reject forms that are p-closed through cross-variable cancellation.
    """
    if form.r == 0:
        return is_p_closed(form)
    if not form.is_closed():
        return False
    for index, coeff in form.terms.items():
        if not any(coeff._residue_mask((i,)).is_zero() for i in index):
            return False
    return True


def phi(form: DiffForm) -> DiffForm:
    """Apply partial_I^(p-1) to each coefficient a_I in place of its index.

    On closed forms the result has differential-constant coefficients and
    measures the failure of exactness; it vanishes exactly on the p-closed
    ones.
    """
    # partial_I^(p-1) is residue_mask(I, sign=(-1)^|I|, lower=True), |I| = r
    return _masked(form, sign=-1 if form.r % 2 else 1, lower=True)


def p_operator(coeff, index):
    """P_index f = z_index^(p-1) * partial_index^(p-1) f.

    Accepts MultiPoly or RatFun coefficients; the variables of index must
    be distinct and within range.  The signed projection onto monomials
    with every exponent of index at p-1 (mod p).
    """
    return coeff.residue_mask(index, sign=-1 if len(index) % 2 else 1)


def irrational_part(form: DiffForm) -> DiffForm:
    """Q_r(omega) = (-1)^r sum_I P_I(a_I) dz_I.

    The idempotent projection whose image carries the obstruction to
    exactness; requires degree at least 1.  The sign (-1)^r cancels that
    of P_I, so Q_r keeps the monomials of each a_I with every exponent of
    I at p-1 (mod p), unchanged.
    """
    if form.r == 0:
        raise DegreeZero("the irrational part needs a form of degree >= 1")
    return _masked(form)


class SplitRI(NamedTuple):
    """omega = rational + irrational, with irrational = Q_r(omega)."""

    rational: DiffForm
    irrational: DiffForm


def split_rational_irrational(form: DiffForm) -> SplitRI:
    """Split a closed form into an exact part and the projector image.

    For closed input the irrational part is closed and the rational part
    is p-closed (hence exact).  On closed input the image keeps only
    monomials on which d vanishes monomial by monomial, so its derivative
    is cheap.  It is computed before the difference is taken: the
    rational part is then born with the zero derivative that d(form) and
    d(image) give it by linearity, and a later is_p_closed or integrate
    of it makes no pass of d over it.

    >>> from fpforms.parser import parse_form
    >>> s = split_rational_irrational(parse_form("(x^2 + x) dx", 3, 2))
    >>> print(s.rational, "|", s.irrational)
    z1 dz1 | z1^2 dz1
    """
    if not form.is_closed():
        raise NotClosed("cannot split a non-closed form")
    omega_i = irrational_part(form)
    omega_i.d()
    return SplitRI(rational=form - omega_i, irrational=omega_i)


def p_decompose_step(form: DiffForm, i: int):
    """Separate the dz_i layer of a polynomial form.

    Returns (omega_i, eta_i, tau_i) with

        form = z_i^(p-1) dz_i ^ omega_i + dz_i ^ eta_i + tau_i

    where omega_i collects the dz_i-coefficient monomials with
    z_i-exponent = p-1 (mod p), divided by z_i^(p-1) (residue_mask on
    (i,) with lower set); eta_i collects the rest; tau_i is the part of
    the form without dz_i.  omega_i has no z_i dependence (it is killed by
    partial_i) and eta_i admits a z_i antiderivative.  The split is exact
    on every polynomial form of degree >= 1, closed or not.  Its only
    caller is the layered integrator that tests integrate against.
    """
    if form.r == 0:
        raise DegreeZero("decomposition needs a form of degree >= 1")
    if not form.is_polynomial:
        raise NonPolynomial("decomposition is defined for polynomial forms")
    _check_var(i, form.n)
    omega_terms = {}
    eta_terms = {}
    tau_terms = {}
    for index, coeff in form.terms.items():
        if i not in index:
            tau_terms[index] = coeff
            continue
        # dz_index = sign dz_i ^ dz_sub; sub is distinct for each index, and
        # dropping the common entry i keeps ascending indices ascending
        sub = tuple(k for k in index if k != i)
        sign = merge_indices((i,), sub)[0]
        hit = coeff._residue_mask((i,))
        omega_terms[sub] = hit._residue_mask((i,), sign=sign, lower=True)
        low = coeff - hit
        eta_terms[sub] = -low if sign < 0 else low
    # _with_terms drops the zero layers
    omega_i = form._with_terms(omega_terms, form.r - 1)
    eta_i = form._with_terms(eta_terms, form.r - 1)
    tau_i = form._with_terms(tau_terms)
    return omega_i, eta_i, tau_i


def o_operator(coeff, index):
    """O_index f: apply the product of (1 + P_j) over j in index, minus f.

    Expands to the sum of P_S over nonempty subsets S of index; the sign
    convention makes O_{(j,)} = P_j and O_index O_index = -O_index.  On a
    monomial hitting p-1 (mod p) at the variables H of index, the signs
    (-1)^|S| of the nonempty S inside H sum to -1 when H is nonempty, so
    O_index is minus the projection onto monomials with some hit.
    """
    if isinstance(coeff, RatFun):
        raise NonPolynomial("O operators are defined for polynomial input")
    return coeff.residue_mask(index, every=False, sign=-1)


def o_operator_expanded(coeff, index):
    """O_index f evaluated literally as sum over nonempty subsets S of
    index of the composition of the single-variable P_j for j in S.

    An independent route kept deliberately separate from o_operator so
    the two can cross-check each other.
    """
    if isinstance(coeff, RatFun):
        raise NonPolynomial("O operators are defined for polynomial input")
    index = tuple(index)
    total = MultiPoly.zero(coeff.p, coeff.n)
    for size in range(1, len(index) + 1):
        for subset in combinations(index, size):
            term = coeff
            for j in subset:
                term = p_operator(term, (j,))
            total = total + term
    return total


class SplitCT(NamedTuple):
    """omega = complete + restricted, with restricted = -sum O_I(a_I) dz_I."""

    complete: DiffForm
    restricted: DiffForm


def split_complete_restricted(form: DiffForm) -> SplitCT:
    """Split a polynomial form into completely integrable and restricted
    parts.

    The restricted part spans the monomials with at least one exponent
    = p-1 (mod p) inside their own multi-index; the complete part has
    none, so every variable of every index admits an antiderivative.
    Both projections preserve closedness.
    """
    if form.r == 0:
        raise DegreeZero("the split needs a form of degree >= 1")
    if not form.is_polynomial:
        raise NonPolynomial("the split is defined for polynomial forms")
    restricted = _masked(form, every=False)
    return SplitCT(complete=form - restricted, restricted=restricted)
