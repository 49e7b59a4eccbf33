"""Exterior algebra of differential forms over F_p(z1..zn).

A degree-r form is a map from strictly increasing r-tuples of variable
indices (1-based) to nonzero coefficients; coefficients are MultiPoly or
RatFun values, and a single form never mixes the two kinds: the constructor
promotes everything to RatFun as soon as one rational coefficient appears.
Degree 0 forms are keyed by the empty tuple.  Forms of degree above n can
only be zero and are kept around so that d on top-degree forms stays total.

Sign conventions, fixed once here and reused everywhere:

* dz_j ^ dz_I = (-1)^k dz_J where J is I with j inserted at position k
  (0-based), and 0 when j already occurs in I;
* d(a dz_I) = sum_j partial_j(a) dz_j ^ dz_I;
* wedge multiplies coefficients and merges index tuples with the sign of
  the permutation sorting their concatenation.

Together these give d(d(omega)) = 0 (mixed partials commute and the two
insertions anticommute) and the graded Leibniz rule for d over wedge.

As for polynomials, validation happens at the trust boundary.  The
constructor DiffForm(p, n, r, terms) checks indices, coefficient types,
characteristic and arity, and promotes mixed coefficients; the parser,
JSON documents and user calls go through it.  +, -, d, wedge and the
coefficient-wise maps of _with_terms build their results with the
_trusted constructor, which checks nothing and only restores the
canonical index order.

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
Every other result, the coefficient-wise maps of _with_terms among them,
starts without one, so the closedness of a projector image, a Cartier
image or a potential is computed, never assumed.  A split's rational part
omega - Q_r(omega) is a difference: the splits compute d of the small
image first, so its zero derivative follows from two computed ones.
Only this module reads or sets a form's kept derivative.
"""

from __future__ import annotations

from operator import add

from .errors import (
    ArityMismatch,
    DegreeMismatch,
    IndexOutOfRange,
    PrimeMismatch,
)
from .poly import MultiPoly, _check_arity, max_degree_limit
from .ratfun import RatFun
from .scalar import Prime

# ----------------------------------------------------------------------
# multi-index helpers; multi-indices are plain strictly increasing tuples


def sorted_index_sign(indices):
    """Sort an index sequence, tracking the permutation sign.

    Returns (sign, tuple); sign is 0 when an index repeats (the wedge of a
    basis vector with itself).

    >>> sorted_index_sign((2, 1))
    (-1, (1, 2))
    """
    seq = list(indices)
    sign = 1
    # insertion sort; quadratic but the tuples have at most n entries
    for a in range(1, len(seq)):
        b = a
        while b > 0 and seq[b - 1] > seq[b]:
            seq[b - 1], seq[b] = seq[b], seq[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and seq[b - 1] == seq[b]:
            return 0, None
    return sign, tuple(seq)


def insert_index(index, j):
    """Sign and result of dz_j ^ dz_index; (0, None) when j is in index.

    >>> insert_index((1, 3), 2)
    (-1, (1, 2, 3))
    """
    pos = 0
    for i in index:
        if i == j:
            return 0, None
        if i < j:
            pos += 1
    sign = -1 if pos % 2 else 1
    return sign, index[:pos] + (j,) + index[pos:]


def remove_index(index, j):
    """Sign and result of extracting dz_j from dz_index.

    dz_index = sign * dz_j ^ dz_rest, where sign = (-1)^position.
    """
    pos = index.index(j)
    sign = -1 if pos % 2 else 1
    return sign, index[:pos] + index[pos + 1 :]


def merge_indices(left, right):
    """Sign and merged tuple for dz_left ^ dz_right; (0, None) on overlap."""
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


def _promote(coeff):
    if isinstance(coeff, RatFun):
        return coeff
    return RatFun(coeff)


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
        if not isinstance(r, int) or r < 0:
            raise DegreeMismatch("form degree must be a nonnegative int")
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
                        "index %r has length %d in a degree-%d form"
                        % (index, len(index), r)
                    )
                last = 0
                for i in index:
                    if not isinstance(i, int) or not 1 <= i <= n:
                        raise IndexOutOfRange(
                            "index entry %r outside 1..%d" % (i, n)
                        )
                    if i <= last:
                        raise IndexOutOfRange(
                            "index %r is not strictly increasing" % (index,)
                        )
                    last = i
                if isinstance(coeff, int):
                    coeff = MultiPoly.constant(p, n, coeff)
                if not isinstance(coeff, (MultiPoly, RatFun)):
                    raise TypeError("coefficient must be MultiPoly or RatFun")
                if coeff.p != p:
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
        if rational:
            clean = {i: _promote(c) for i, c in clean.items()}
        self.terms = dict(sorted(clean.items()))
        self._d = None

    @classmethod
    def _trusted(cls, p, n, r, terms) -> "DiffForm":
        """A form from terms that are clean by construction.

        p is a Prime, n and r are valid, and terms maps strictly
        increasing r-tuples in 1..n to nonzero coefficients over (p, n),
        all MultiPoly or all RatFun.  Only the index order is restored.
        """
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.r = r
        self.terms = dict(sorted(terms.items()))
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
        return all(isinstance(c, MultiPoly) for c in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, index):
        """The coefficient at a multi-index; zero polynomial if absent."""
        index = tuple(index)
        if index in self.terms:
            return self.terms[index]
        return MultiPoly.zero(self.p, self.n)

    def to_rational(self) -> "DiffForm":
        return self._with_terms({i: _promote(c) for i, c in self.terms.items()})

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

    def _check(self, other):
        if self.p != other.p:
            raise PrimeMismatch(
                "mixed characteristics %d and %d" % (self.p.p, other.p.p)
            )
        if self.n != other.n:
            raise ArityMismatch("mixed variable counts %d and %d" % (self.n, other.n))

    # ------------------------------------------------------------------
    # linear structure

    def _merge(self, other, sign) -> "DiffForm":
        """self + sign * other, for sign +1 or -1, in one pass.

        A zero form of another degree is the neutral element on either
        side; coefficients are promoted to RatFun when the operands' kinds
        differ.
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
        for index, coeff in other.terms.items():
            if index in out:
                coeff = out[index] + coeff if sign > 0 else out[index] - coeff
                if coeff.is_zero():
                    del out[index]
                    continue
            elif sign < 0:
                coeff = -coeff
            out[index] = coeff
        if self.is_polynomial != other.is_polynomial:
            out = {i: _promote(c) for i, c in out.items()}
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
        if isinstance(other, (int, MultiPoly, RatFun)):
            if isinstance(other, int):
                other = MultiPoly.constant(self.p, self.n, other)
            return self._with_terms(
                {i: c * other for i, c in self.terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        if self.p != other.p or self.n != other.n:
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

        For polynomial forms, as for d, the result is one signed sum per
        target index: every sign * c1 * c2 bound for z^(E1+E2) dz_K goes
        unreduced into one exponent -> int dict, and _reduced_form reduces
        each dict once.  A pair of coefficients whose degree bound passes
        the cap is multiplied by the checked MultiPoly product, in pair
        order, so DegreeOverflow is raised exactly where the pairwise
        route raises it.  Rational forms take the pairwise route: one
        RatFun product per pair of indices, folded with + in index order.
        """
        self._check(other)
        if self.is_polynomial and other.is_polynomial:
            return _closed_by_construction(
                self._wedge_polynomial(other), self, other
            )
        r = self.r + other.r
        out = {}
        for left, a in self.terms.items():
            for right, b in other.terms.items():
                sign, index = merge_indices(left, right)
                if sign == 0:
                    continue
                coeff = a * b
                if sign < 0:
                    coeff = -coeff
                if index in out:
                    coeff = out[index] + coeff
                out[index] = coeff
        return _closed_by_construction(self._with_terms(out, r), self, other)

    def _wedge_polynomial(self, other) -> "DiffForm":
        cap = max_degree_limit()
        right = [
            (index, b, b.max_var_degree(), list(b.terms.items()))
            for index, b in other.terms.items()
        ]
        sums = {}
        for left, a in self.terms.items():
            bound = a.max_var_degree()
            for index, b, degree, b_terms in right:
                sign, new_index = merge_indices(left, index)
                if not sign:
                    continue
                target = sums.setdefault(new_index, {})
                get = target.get
                if bound + degree > cap:
                    for e, c in (a * b).terms.items():
                        target[e] = get(e, 0) + sign * c
                    continue
                for e1, c1 in a.terms.items():
                    c1 *= sign
                    for e2, c2 in b_terms:
                        e = tuple(map(add, e1, e2))
                        target[e] = get(e, 0) + c1 * c2
        return _reduced_form(self.p, self.n, self.r + other.r, sums)

    def d(self) -> "DiffForm":
        """Exterior derivative, computed on first use and then kept.

        For polynomial forms it is one signed sum per target index: every
        sign * c * m * z^(E - e_j) bound for dz_J goes unreduced into one
        exponent -> int dict, and _reduced_form reduces each dict once,
        as for wedge.
        """
        if self._d is None:
            d = self._d_polynomial() if self.is_polynomial else self._d_rational()
            self._d = _closed_by_construction(d)
        return self._d

    def _d_polynomial(self) -> "DiffForm":
        p = self.p.p
        n = self.n
        sums = {}
        for index, coeff in self.terms.items():
            for j in range(1, n + 1):
                sign, new_index = insert_index(index, j)
                if not sign:
                    continue
                target = sums.setdefault(new_index, {})
                get = target.get
                k = j - 1
                for exps, c in coeff.terms.items():
                    m = exps[k]
                    v = m % p
                    if v:
                        e = exps[:k] + (m - 1,) + exps[k + 1 :]
                        target[e] = get(e, 0) + sign * c * v
        return _reduced_form(self.p, n, self.r + 1, sums)

    def _d_rational(self) -> "DiffForm":
        # d acts on numerators only; partials are folded in with RatFun +
        # and -, in index order
        out = {}
        for index, coeff in self.terms.items():
            for j in range(1, self.n + 1):
                sign, new_index = insert_index(index, j)
                if not sign:
                    continue
                da = coeff.partial(j)
                if da.is_zero():
                    continue
                if new_index in out:
                    prev = out[new_index]
                    da = prev + da if sign > 0 else prev - da
                elif sign < 0:
                    da = -da
                out[new_index] = da
        return self._with_terms(out, self.r + 1)

    def is_closed(self) -> bool:
        return self.d().is_zero()

    # ------------------------------------------------------------------

    def __str__(self):
        from .printer import form_to_text

        return form_to_text(self)

    def __repr__(self):
        return "DiffForm(p=%d, n=%d, r=%d, %s)" % (self.p.p, self.n, self.r, self)


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


def _reduced_form(p, n, r, sums) -> "DiffForm":
    """The degree-r form sum_K sums[K] dz_K over F_p, p a Prime.

    sums maps each target index K to an unreduced exponent -> int dict.
    Each dict is reduced mod p, cleared of zeros and sorted once; the
    one-pass d and wedge both end here, and so does the homotopy builder
    of poincare.integrate.
    """
    q = p.p
    out = {}
    for index, target in sums.items():
        terms = {}
        for e in sorted(target):
            v = target[e] % q
            if v:
                terms[e] = v
        if terms:
            out[index] = MultiPoly._trusted(p, n, terms)
    return DiffForm._trusted(p, n, r, out)


# ----------------------------------------------------------------------
# functional aliases


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product a ^ b."""
    return a.wedge(b)


def is_closed(form: DiffForm) -> bool:
    return form.is_closed()

