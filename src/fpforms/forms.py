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
"""

from __future__ import annotations

from .errors import (
    ArityMismatch,
    DegreeMismatch,
    IndexOutOfRange,
    PrimeMismatch,
)
from .poly import MultiPoly
from .ratfun import RatFun
from .scalar import Prime, Scalar

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

    >>> from .poly import variables
    >>> x, y = variables(3, 2)
    >>> w = DiffForm(3, 2, 1, {(1,): x * x * y})
    >>> print(w.d())
    2*z1^2 dz1^dz2
    >>> w.d().d().is_zero()
    True
    """

    __slots__ = ("p", "n", "r", "terms")

    def __init__(self, p, n, r, terms=None):
        p = Prime(p)
        if not isinstance(n, int) or n < 1:
            raise ArityMismatch("need at least one variable, got n=%r" % (n,))
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
                if isinstance(coeff, (int, Scalar)):
                    coeff = MultiPoly.constant(p, n, int(coeff))
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

    @classmethod
    def from_coefficient(cls, coeff) -> "DiffForm":
        """The degree-0 form with the given MultiPoly or RatFun value."""
        return cls(coeff.p, coeff.n, 0, {(): coeff})

    def _with_terms(self, terms, r=None) -> "DiffForm":
        return DiffForm(self.p, self.n, self.r if r is None else r, terms)

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

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check(other)
        if self.is_zero() and self.r != other.r:
            return other
        if other.is_zero() and self.r != other.r:
            return self
        if self.r != other.r:
            raise DegreeMismatch(
                "cannot add forms of degrees %d and %d" % (self.r, other.r)
            )
        out = dict(self.terms)
        for index, coeff in other.terms.items():
            if index in out:
                out[index] = out[index] + coeff
            else:
                out[index] = coeff
        return self._with_terms(out)

    def __neg__(self):
        return self._with_terms({i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Coefficient-wise multiplication by a scalar or function."""
        if isinstance(other, (int, Scalar, MultiPoly, RatFun)):
            if isinstance(other, (int, Scalar)):
                other = MultiPoly.constant(self.p, self.n, int(other))
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
        self._check(other)
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
        return DiffForm(self.p, self.n, r, out)

    def d(self) -> "DiffForm":
        """Exterior derivative."""
        out = {}
        for index, coeff in self.terms.items():
            for j in range(1, self.n + 1):
                if j in index:
                    continue
                da = coeff.partial(j)
                if da.is_zero():
                    continue
                sign, new_index = insert_index(index, j)
                if sign < 0:
                    da = -da
                if new_index in out:
                    da = out[new_index] + da
                out[new_index] = da
        return DiffForm(self.p, self.n, self.r + 1, out)

    def is_closed(self) -> bool:
        return self.d().is_zero()

    # ------------------------------------------------------------------

    def __str__(self):
        from .printer import form_to_text

        return form_to_text(self)

    def __repr__(self):
        return "DiffForm(p=%d, n=%d, r=%d, %s)" % (self.p.p, self.n, self.r, self)


# ----------------------------------------------------------------------
# functional aliases


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product a ^ b."""
    return a.wedge(b)


def is_closed(form: DiffForm) -> bool:
    return form.is_closed()

