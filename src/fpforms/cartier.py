"""The Cartier operator and the de Rham cohomology it computes.

For a closed form omega = sum a_I dz_I the Cartier image is

    cartier(omega) = (-1)^r sum unfrob(partial_I^(p-1) a_I) dz_I

where unfrob divides every exponent by p (the coefficient is a p-th power
whenever omega is closed).  By Wilson's theorem (see
MultiPoly.residue_mask) the sign (-1)^r cancels that of partial_I^(p-1),
so cartier keeps the monomials of a_I with every exponent of I at p-1
(mod p) and lowers them by z_I^(p-1) before unfrob.  Its one-sided inverse
is

    gamma0(alpha) = sum a_I(z^p) z_I^(p-1) dz_I,

which always produces closed forms and satisfies cartier(gamma0(alpha)) =
alpha exactly.  The composite gamma0(cartier(omega)) is the irrational
part of omega, so the difference omega - gamma0(cartier(omega)) is exact:
cartier computes exactly the obstruction of omega to exactness, and two
closed forms are cohomologous precisely when their difference is p-closed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DegreeMismatch, DegreeZero, NonPolynomial, NotClosed
from .forms import DiffForm, _closed_by_construction
from .operators import irrational_part, is_p_closed


def gamma0(form: DiffForm) -> DiffForm:
    """sum a_I(z^p) z_I^(p-1) dz_I: the canonical closed lift.

    Accepts rational coefficients by twisting the numerator and the
    denominator separately.  The result is always closed, and carries
    its zero derivative.  One exponent map per coefficient: z^E goes to
    z^(p E + (p-1) chi_I).
    """
    k = form.p.p - 1
    n = form.n
    out = {}
    for index, coeff in form.terms.items():
        shift = [0] * n
        for i in index:
            shift[i - 1] = k
        out[index] = coeff._substituted(shift)
    return _closed_by_construction(form._with_terms(out))


def cartier(form: DiffForm) -> DiffForm:
    """The Cartier image of a closed polynomial form of degree >= 1.

    Closedness makes every (p-1)-fold derivative a p-th power, so the
    exponent division below is exact; NotPthPower would signal a broken
    closedness invariant.

    >>> from fpforms.parser import parse_form
    >>> print(cartier(parse_form("z^2 dz", 3, 1)))
    dz1
    >>> print(gamma0(parse_form("dz", 3, 1)))
    z1^2 dz1
    """
    if form.r == 0:
        raise DegreeZero("the Cartier operator needs a form of degree >= 1")
    if not form.is_polynomial:
        raise NonPolynomial(
            "clear denominators first; the Cartier operator is polynomial"
        )
    if not form.is_closed():
        raise NotClosed("the Cartier operator is defined on closed forms")
    out = {}
    for index, coeff in form.terms.items():
        out[index] = coeff._residue_mask(index, lower=True).unsubstitute_pth()
    return form._with_terms(out)


class CohomologyWitness(NamedTuple):
    """A canonical representative together with its exactness certificate.

    representative is gamma0-liftable by construction; the certificate
    records that the difference from the original form was p-closed,
    hence exact.
    """

    representative: DiffForm
    exact_difference_check: bool


def class_representative(form: DiffForm) -> CohomologyWitness:
    """The canonical representative of the cohomology class of a closed form.

    The representative is the irrational part; the difference is p-closed
    (checked and recorded), so both forms sit in the same class.  As in
    split_rational_irrational, the representative's derivative is
    computed first, so the difference inherits its zero derivative from
    d(form) and d(rep) and the check makes no pass of d over it.
    """
    if not form.is_closed():
        raise NotClosed("cohomology classes are classes of closed forms")
    rep = irrational_part(form)
    rep.d()
    return CohomologyWitness(
        representative=rep,
        exact_difference_check=is_p_closed(form - rep),
    )


def same_class(a: DiffForm, b: DiffForm) -> bool:
    """Whether two closed forms of equal degree differ by an exact form."""
    if a.r != b.r:
        raise DegreeMismatch(
            "cannot compare classes in degrees %d and %d" % (a.r, b.r)
        )
    if not a.is_closed() or not b.is_closed():
        raise NotClosed("cohomology classes are classes of closed forms")
    return is_p_closed(a - b)
