"""Exterior algebra of differential forms over F_p(z1..zn).

A degree-r form is a map from strictly increasing r-tuples of variable
indices (1-based) to nonzero coefficients; coefficients are MultiPoly or
RatFun values, and a single form never mixes the two kinds: _one_kind, the
one promotion rule, makes every coefficient a RatFun once one is rational.
Degree 0 forms are keyed by the empty tuple.  Forms of degree above n can
only be zero and are kept around so that d on top-degree forms stays total.

Sign conventions, fixed once here:

* dz_I ^ dz_J = s dz_K, where K is the sorted union of I and J and s is
  the sign of the permutation sorting their concatenation, and 0 when I
  and J share an index.  merge_indices is this rule, and the one place
  that computes it: wedge, the parser's sort of a term's differentials,
  the exactness oracle and p_decompose_step all call it.  With I = (j,)
  it reads dz_j ^ dz_J = (-1)^k dz_K, k the number of entries of J
  below j;
* d(a dz_I) = sum_j partial_j(a) dz_j ^ dz_I.

The two hot loops, d here and the homotopy builder of
poincare.integrate, count that k inline as they walk an index, as a
call per move or per slot would slow them.

Together these give d(d(omega)) = 0 (mixed partials commute and the two
insertions anticommute) and the graded Leibniz rule for d over wedge.

d and wedge run one kernel, a single pass over the monomials of
polynomial coefficients.  What depends on a multi-index alone (signs,
target indices, their sums) is found once per coefficient, and d shifts
an exponent by setting one entry of a list copy of the monomial's
exponents, taking the tuple and restoring the entry.  Each target index
gets one exponent -> int sum, kept reduced mod p as it is updated (a
sign -1 is carried as a residue), so no pass reduces it afterwards:
_reduced_form only drops the sums that cancelled, and copies nothing
when none did.  A rational form is cleared first, by
ratfun.clear_denominators, to omega = a / lam with a polynomial and lam
a p-th power.  As d(lam) = 0, d(omega) = d(a) / lam, and with
other = b / mu, omega ^ other = (a ^ b) / (lam * mu).  So d, wedge and
poincare.integrate form no RatFun sum or product.  The clearing meets
unequal denominators by ratfun's one rule, and so do + and == on the
coefficients: a denominator that divides another adds no factor.

As for polynomials, validation happens at the trust boundary.  The
constructor DiffForm(p, n, r, terms) checks indices, coefficient types,
characteristic and arity, promotes mixed coefficients and sorts the
indices; the parser, JSON documents and user calls go through it.  +, -,
d, wedge and the coefficient-wise maps of _with_terms build their
results with the _trusted constructor, which checks nothing and keeps
the fresh dict it is handed as it is.  The canonical index order,
ascending, is an invariant that the producers keep: a coefficient-wise
map walks its operand's indices in order, and so do negation and a
merge whose other operand brings no new index.  Only the two producers
that can break the order sort: _reduced_form, which d, wedge and the
homotopy builder of poincare.integrate end in, and _merge when the
other operand brings an index that the first lacks.

Forms are immutable: no operation changes a form once it is built, and
every result is a new object.  So a form keeps its exterior derivative:
d() computes it on first use, in one pass over the monomials for
polynomial coefficients, and returns the same object from then on.  The
p-closedness test, the integrator's residual checks and a caller's own
check of the same form share that one derivative.  A form that is closed
by construction is born with its derivative, a new zero form of degree
r + 1 of its own: every result of d (d(d(omega)) = 0), of
cartier.gamma0, and of +, -, negation and wedge whose operands all carry
a zero derivative already (d is linear and obeys the Leibniz rule).
A polynomial form divided by a differential constant lam, as
poincare.integrate builds the potential of a rational form, is born with
d(form) / lam: d acts on numerators only.  For the same reason a rational
form takes d(cleared) / lam from whichever clearing meets it first, in d
or in poincare.integrate, so integrate clears its input once.
Every other result, the coefficient-wise maps of _with_terms among them,
starts without one, so the closedness of a projector image, a Cartier
image or a potential is computed, never assumed.  A split's rational part
omega - Q_r(omega) is a difference: the splits compute d of the small
image first, so its zero derivative follows from two computed ones.
Only this module reads or sets a form's kept derivative.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    DegreeMismatch,
    IndexOutOfRange,
    PrimeMismatch,
    _shown,
)
from .poly import (
    _ADD_KERNELS,
    MultiPoly,
    _check_arity,
    _check_cap,
    _kernel,
    _nonzero,
    max_degree_limit,
)
from .ratfun import RatFun, clear_denominators
from .scalar import Prime

# ----------------------------------------------------------------------
# multi-index helpers; multi-indices are plain strictly increasing tuples


def merge_indices(left, right):
    """Sign and merged tuple for dz_left ^ dz_right; (0, None) on overlap.

    The package's one sign rule (see the module docstring).

    >>> merge_indices((2,), (1, 3)) == (-1, (1, 2, 3))
    True
    """
    out = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of left
            if (len(left) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


# ----------------------------------------------------------------------


def _check_form_degree(r):
    """Raise DegreeMismatch unless r is a nonnegative int, not a bool."""
    if type(r) is not int or r < 0:
        raise DegreeMismatch("form degree must be a nonnegative int")


def _one_kind(terms, rational):
    """terms, every coefficient a RatFun if rational: the one promotion rule."""
    if not rational:
        return terms
    return {i: c if type(c) is RatFun else RatFun(c) for i, c in terms.items()}


class DiffForm:
    """A homogeneous differential form of degree r in n variables over F_p.

    Treat instances as immutable; all operations return new objects.

    >>> from .poly import variables
    >>> x, y = variables(3, 2)
    >>> w = DiffForm(3, 2, 1, {(1,): x * x * y})
    >>> print(w.d())
    2*z1^2 dz1^dz2
    >>> w.d().d().is_zero()
    True
    """

    __slots__ = ("p", "n", "r", "terms", "_d")

    def __init__(self, p, n, r, terms=None):
        p = Prime(p)
        _check_arity(n)
        _check_form_degree(r)
        self.p = p
        self.n = n
        self.r = r
        clean = {}
        rational = False
        if terms:
            for index, coeff in terms.items():
                index = tuple(index)
                if len(index) != r:
                    raise DegreeMismatch(
                        "index %s has length %d in a degree-%s form"
                        % (_shown(index), len(index), _shown(r))
                    )
                last = 0
                for i in index:
                    if type(i) is not int or not 1 <= i <= n:
                        raise IndexOutOfRange(
                            "index entry %s outside 1..%d" % (_shown(i), n)
                        )
                    if i <= last:
                        raise IndexOutOfRange(
                            "index %s is not strictly increasing" % _shown(index)
                        )
                    last = i
                if type(coeff) is int:
                    coeff = MultiPoly.constant(p, n, coeff)
                if not isinstance(coeff, (MultiPoly, RatFun)):
                    raise TypeError("coefficient must be MultiPoly or RatFun")
                if coeff.p.p != p.p:
                    raise PrimeMismatch(
                        "coefficient over F_%d in a form over F_%d"
                        % (coeff.p.p, p.p)
                    )
                if coeff.n != n:
                    raise ArityMismatch(
                        "coefficient in %d variables, form in %d" % (coeff.n, n)
                    )
                if coeff.is_zero():
                    continue
                rational = rational or isinstance(coeff, RatFun)
                if index in clean:
                    coeff = clean[index] + coeff
                    if coeff.is_zero():
                        del clean[index]
                        continue
                clean[index] = coeff
        self.terms = dict(sorted(_one_kind(clean, rational).items()))
        self._d = None

    @classmethod
    def _trusted(cls, p, n, r, terms) -> "DiffForm":
        """A form from terms that are clean by construction.

        p is a Prime, n and r are valid, and terms is a fresh dict, which
        the form keeps, mapping strictly increasing r-tuples in 1..n, in
        ascending order, to nonzero coefficients over (p, n), all
        MultiPoly or all RatFun.  The caller keeps the order (see the
        module docstring); nothing is checked or sorted here.
        """
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.r = r
        self.terms = terms
        self._d = None
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, p, n, r) -> "DiffForm":
        return cls(p, n, r, {})

    @classmethod
    def basis(cls, p, n, index) -> "DiffForm":
        """The basis form dz_index with coefficient 1."""
        index = tuple(index)
        return cls(p, n, len(index), {index: 1})

    def _with_terms(self, terms, r=None) -> "DiffForm":
        """This form's p and n with new coefficients of one kind.

        Zero coefficients are dropped; everything else is trusted.
        """
        return DiffForm._trusted(
            self.p,
            self.n,
            self.r if r is None else r,
            {i: c for i, c in terms.items() if not c.is_zero()},
        )

    # ------------------------------------------------------------------
    # structure

    @property
    def is_polynomial(self) -> bool:
        # the constructors keep every coefficient of one kind
        for c in self.terms.values():
            return isinstance(c, MultiPoly)
        return True

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index):
        """The coefficient at a multi-index; zero polynomial if absent."""
        index = tuple(index)
        if index in self.terms:
            return self.terms[index]
        return MultiPoly.zero(self.p, self.n)

    def max_var_degree(self) -> int:
        """Largest per-variable exponent over all polynomial coefficients."""
        best = 0
        for c in self.terms.values():
            m = c.max_var_degree() if isinstance(c, MultiPoly) else max(
                c.num.max_var_degree(), c.den.max_var_degree()
            )
            if m > best:
                best = m
        return best

    # the same characteristic and arity, with the same messages
    _check = MultiPoly._check

    # ------------------------------------------------------------------
    # linear structure

    def _merge(self, other, sign) -> "DiffForm":
        """self + sign * other, for sign +1 or -1, in one pass.

        A zero form of another degree is the neutral element on either
        side; coefficients are promoted to RatFun when the operands' kinds
        differ.  The indices are sorted again only when other brings one
        that self lacks.
        """
        self._check(other)
        r = self.r
        if r != other.r:
            if self.is_zero():
                r = other.r
            elif not other.is_zero():
                raise DegreeMismatch(
                    "cannot add forms of degrees %d and %d" % (self.r, other.r)
                )
        out = dict(self.terms)
        grew = False
        for index, coeff in other.terms.items():
            if index in out:
                coeff = out[index] + coeff if sign > 0 else out[index] - coeff
                if coeff.is_zero():
                    del out[index]
                    continue
            else:
                grew = True
                if sign < 0:
                    coeff = -coeff
            out[index] = coeff
        if grew:
            out = dict(sorted(out.items()))
        out = _one_kind(out, self.is_polynomial != other.is_polynomial)
        return _closed_by_construction(
            DiffForm._trusted(self.p, self.n, r, out), self, other
        )

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self):
        return _closed_by_construction(
            DiffForm._trusted(
                self.p, self.n, self.r, {i: -c for i, c in self.terms.items()}
            ),
            self,
        )

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self._merge(other, -1)

    def __mul__(self, other):
        """Coefficient-wise multiplication by a scalar or function."""
        if type(other) is int:
            other = MultiPoly.constant(self.p, self.n, other)
        if isinstance(other, (MultiPoly, RatFun)):
            return self._with_terms(
                {i: c * other for i, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.p.p != other.p.p or self.n != other.n:
            return False
        if self.is_zero() and other.is_zero():
            return True  # the zero form is degree-blind
        if self.r != other.r or set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[i] for i, c in self.terms.items())

    def __hash__(self):
        raise TypeError("DiffForm is unhashable")

    # ------------------------------------------------------------------
    # exterior operations

    def wedge(self, other: "DiffForm") -> "DiffForm":
        """Exterior product self ^ other.

        As for d, the result is one signed sum per target index: every
        sign * c1 * c2 bound for z^(E1+E2) dz_K is added mod p into one
        exponent -> residue dict, the sign folded into c1 as a residue,
        and _reduced_form drops the sums that cancelled.  When the two
        forms' degree bounds sum past the cap, the result is checked by
        poly._check_cap, so products that cancel raise nothing.  Rational
        operands are cleared first (see the module docstring), and every
        coefficient sits over lam * mu.
        """
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            out = self._wedge_polynomial(other)
        else:
            lam, a = clear_denominators(self)
            mu, b = clear_denominators(other)
            out = _divided(a._wedge_polynomial(b), lam * mu)
        return _closed_by_construction(out, self, other)

    def _wedge_polynomial(self, other) -> "DiffForm":
        q = self.p.p
        right = [(index, list(b.terms.items())) for index, b in other.terms.items()]
        vector_add = _kernel(_ADD_KERNELS, self.n)
        sums = {}
        for left, a in self.terms.items():
            for index, b_terms in right:
                sign, new_index = merge_indices(left, index)
                if not sign:
                    continue
                target = sums.setdefault(new_index, {})
                get = target.get
                for e1, c1 in a.terms.items():
                    if sign < 0:
                        c1 = q - c1
                    for e2, c2 in b_terms:
                        e = vector_add(e1, e2)
                        target[e] = (get(e, 0) + c1 * c2) % q
        grown = self.max_var_degree() + other.max_var_degree() > max_degree_limit()
        return _reduced_form(self.p, self.n, self.r + other.r, sums, grown)

    def d(self) -> "DiffForm":
        """Exterior derivative, computed on first use and then kept.

        For polynomial forms it is one signed sum per target index: every
        sign * c * m * z^(E - e_j) bound for dz_J is added mod p into one
        exponent -> residue dict, and _reduced_form drops the sums that
        cancelled, as for wedge.  The moves (k, sign, target sum) of an
        index are found once per coefficient, in one pass over 1..n that
        counts the entries of the index below j: the sign is (-1)^count,
        as a residue.  Each monomial's exponents are copied into one list,
        and each move sets one entry, takes the tuple and restores the
        entry.  A rational form is cleared first (see the module
        docstring), and every coefficient sits over its one lam.
        """
        if self._d is None:
            if self.is_polynomial:
                self._d = _closed_by_construction(self._d_polynomial())
            else:
                _keep_cleared_d(self, *clear_denominators(self))
        return self._d

    def _d_polynomial(self) -> "DiffForm":
        p = self.p.p
        n = self.n
        sums = {}
        for index, coeff in self.terms.items():
            moves = []
            pos = 0
            r = len(index)
            for j in range(1, n + 1):
                if pos < r and index[pos] == j:
                    pos += 1
                    continue
                # dz_j ^ dz_index = (-1)^pos dz_target, merge_indices' rule
                # counted inline: pos entries of index lie below j
                target = sums.setdefault(index[:pos] + (j,) + index[pos:], {})
                moves.append((j - 1, p - 1 if pos % 2 else 1, target))
            for exps, c in coeff.terms.items():
                e = list(exps)
                for k, sign, target in moves:
                    m = exps[k]
                    if m % p:
                        e[k] = m - 1
                        key = tuple(e)
                        e[k] = m
                        target[key] = (target.get(key, 0) + sign * c * m) % p
        return _reduced_form(self.p, n, self.r + 1, sums)

    def is_closed(self) -> bool:
        return self.d().is_zero()

    # ------------------------------------------------------------------

    def __str__(self):
        from .printer import form_to_text

        return form_to_text(self)

    def __repr__(self):
        # a zero form may have a degree too long for str()
        return "DiffForm(p=%d, n=%d, r=%s, %s)" % (
            self.p.p, self.n, _shown(self.r), self
        )


# ----------------------------------------------------------------------


def _closed_by_construction(form, *operands) -> "DiffForm":
    """form, given a new zero derivative if every operand carries one.

    With no operands form is closed outright: a d-image or a gamma0 lift.
    """
    for f in operands:
        if f._d is None or f._d.terms:
            return form
    form._d = DiffForm._trusted(form.p, form.n, form.r + 1, {})
    return form


def _keep_cleared_d(form, lam, cleared) -> None:
    """Keep d(cleared) / lam on form as its derivative, unless it has one.

    form = cleared / lam, cleared polynomial, lam a nonzero differential
    constant; d(lam) = 0, so d(form) = d(cleared) / lam.  d and
    poincare.integrate keep it on the form they clear, so integrate
    clears a form once, and on the potential they divide by lam.
    """
    if form._d is None:
        form._d = _closed_by_construction(_divided(cleared.d(), lam))


def _divided(form, lam) -> "DiffForm":
    """The polynomial form with every coefficient divided by lam.

    lam is a nonzero differential constant over the form's p and n.  The
    numerators are nonzero, so the result is clean by construction.
    """
    terms = {i: RatFun._trusted(c, lam) for i, c in form.terms.items()}
    return DiffForm._trusted(form.p, form.n, form.r, terms)


def _reduced_form(p, n, r, sums, check=False) -> "DiffForm":
    """The degree-r form sum_K sums[K] dz_K over F_p, p a Prime.

    sums maps each target index K to an exponent -> residue dict, reduced
    mod p as it was summed.  Its zeros, the sums that cancelled, are
    dropped by poly._nonzero; a dict without one becomes the coefficient
    as it is.  The monomials stay in the order they were first touched:
    nothing reads a coefficient in order, and the printer and the
    documents sort for themselves.  The indices K are taken in ascending
    order, which the form keeps.  The one-pass d and wedge both end here,
    and so does the homotopy builder of poincare.integrate, whose values
    are nonzero residues already, so it pays no copy.  With check set,
    each coefficient passes poly._check_cap, in ascending index order.
    """
    out = {}
    for index, target in sorted(sums.items()):
        terms = _nonzero(target)
        if terms:
            if check:
                _check_cap(terms)
            out[index] = MultiPoly._trusted(p, n, terms)
    return DiffForm._trusted(p, n, r, out)


# ----------------------------------------------------------------------
# functional aliases


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product a ^ b."""
    return a.wedge(b)


def is_closed(form: DiffForm) -> bool:
    return form.is_closed()

