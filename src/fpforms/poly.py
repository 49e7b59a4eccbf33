"""Sparse multivariate polynomials over F_p with their differential structure.

A polynomial in variables z1..zn is a mapping from exponent vectors (tuples
of n nonnegative ints) to nonzero residues in 1..p-1.  The zero polynomial
is the empty mapping.  No term order is maintained beyond a canonical sorted
iteration order fixed at construction, and no simplification ever happens
besides dropping zero coefficients: what you build is what you keep.

The differential structure is where characteristic p bites:

* partial(i) kills every monomial whose z_i-exponent is divisible by p,
  so the kernel of all partials is the subring of p-th powers K[z^p]
  rather than the constants;
* the (p-1)-fold partials act diagonally on monomials by exponent
  residue mod p, because (p-1)! = -1 (Wilson): the single obstruction that
  drives everything downstream, stated once in residue_mask;
* antiderivative(i) inverts partial(i) and is obstructed exactly on
  monomials with z_i-exponent = p-1 (mod p);
* frobenius_decompose splits f into sum g_E * z^E over residue patterns
  E in {0..p-1}^n, with every g_E a p-th-power-exponent polynomial.

Per-variable exponents are capped, at 64 by default and for a with block
by degree_limit, in the current thread or task only, so that runaway
constructions (denominators raised to a huge characteristic) fail fast
with DegreeOverflow instead of exhausting memory.

Validation happens at the trust boundary, not on every result.  The
constructor MultiPoly(p, n, terms) checks and normalizes whatever it is
given (the parser, JSON documents and user calls go through it).  Results
that are clean by construction (sums, negations, scalar multiples,
partials, residue masks, Frobenius parts) are built by the unchecked
_trusted constructor instead.  Only the operations that can raise an
exponent check the cap, and only on the exponents they grow: *, **,
antiderivative and substitute_pth.  So lowering the cap with
degree_limit after building a polynomial does not make the
exponent-preserving operations on it raise.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from operator import add, sub

from .errors import (
    ArityMismatch,
    DegreeOverflow,
    IndexOutOfRange,
    NotPthPower,
    ObstructedAntiderivative,
    PrimeMismatch,
)
from .scalar import Prime, inv_mod

DEFAULT_MAX_DEGREE = 64

# Every monomial stores a dense exponent tuple of n entries, so the
# validating constructors refuse an arity above this bound before a tuple
# is built; every test, demo and benchmark workload uses n <= 40.
MAX_VARIABLES = 1000

_max_degree = ContextVar("fpforms_max_degree", default=DEFAULT_MAX_DEGREE)


@contextmanager
def degree_limit(limit: int):
    """Cap per-variable exponents at limit for a with block, in the current
    thread or task only; the cap before comes back on exit."""
    if not isinstance(limit, int) or limit < 1:
        raise ValueError("degree limit must be a positive integer")
    token = _max_degree.set(limit)
    try:
        yield
    finally:
        _max_degree.reset(token)


def max_degree_limit() -> int:
    return _max_degree.get()


def monomial_text(exps, coeff=1) -> str:
    """Canonical text of coeff * z^exps, e.g. '2*z1^2*z3'."""
    parts = []
    if coeff != 1 or not any(exps):
        parts.append(str(coeff))
    for i, e in enumerate(exps, start=1):
        if e == 0:
            continue
        parts.append("z%d" % i if e == 1 else "z%d^%d" % (i, e))
    return "*".join(parts)


def _check_arity(n):
    """Raise ArityMismatch unless n is an int in 1..MAX_VARIABLES."""
    if not isinstance(n, int) or n < 1:
        raise ArityMismatch("need at least one variable, got n=%r" % (n,))
    if n > MAX_VARIABLES:
        raise ArityMismatch("n exceeds the variable limit %d" % MAX_VARIABLES)


def _check_degree(terms, var=None):
    """Raise DegreeOverflow at the first exponent above the cap.

    Scans the exponent vectors of terms in iteration order, all variables
    or only z_var; the message is the one the constructor gives.
    """
    limit = _max_degree.get()
    for exps in terms:
        for i, e in enumerate(exps, start=1):
            if e > limit and (var is None or i == var):
                raise DegreeOverflow(
                    "exponent %d of z%d exceeds the degree limit %d"
                    % (e, i, limit)
                )


class MultiPoly:
    """A sparse polynomial over F_p in n variables.

    Treat instances as immutable; all operations return new objects.

    >>> x, y = variables(3, 2)
    >>> print((x + 1) * (x + 2))
    z1^2 + 2
    >>> print((x * y).partial_multi((1, 2)))
    0
    """

    __slots__ = ("p", "n", "terms")

    def __init__(self, p, n, terms=None):
        p = Prime(p)
        _check_arity(n)
        self.p = p
        self.n = n
        clean = {}
        limit = _max_degree.get()
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ArityMismatch(
                        "exponent vector %r has length %d, expected %d"
                        % (exps, len(exps), n)
                    )
                for i, e in enumerate(exps, start=1):
                    if not isinstance(e, int) or e < 0:
                        raise ValueError("bad exponent %r for z%d" % (e, i))
                    if e > limit:
                        raise DegreeOverflow(
                            "exponent %d of z%d exceeds the degree limit %d"
                            % (e, i, limit)
                        )
                c = int(c) % p.p
                if c:
                    clean[exps] = (clean.get(exps, 0) + c) % p.p
                    if not clean[exps]:
                        del clean[exps]
        self.terms = {e: clean[e] for e in sorted(clean)}

    @classmethod
    def _trusted(cls, p, n, terms) -> "MultiPoly":
        """A polynomial from terms that are clean by construction.

        p is a Prime, n a valid arity, and terms a dict in the canonical
        sorted order mapping exponent vectors of length n to residues in
        1..p-1.  Nothing is checked, reduced, sorted or copied.
        """
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.terms = terms
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, p, n) -> "MultiPoly":
        return cls(p, n, {})

    @classmethod
    def constant(cls, p, n, c) -> "MultiPoly":
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, p, n, exps, c=1) -> "MultiPoly":
        return cls(p, n, {tuple(exps): c})

    @classmethod
    def variable(cls, p, n, i) -> "MultiPoly":
        if not 1 <= i <= n:
            raise IndexOutOfRange("variable z%d outside 1..%d" % (i, n))
        exps = [0] * n
        exps[i - 1] = 1
        return cls(p, n, {tuple(exps): 1})

    # ------------------------------------------------------------------
    # structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.n}

    def constant_value(self) -> int:
        """The residue c for a constant polynomial; errors otherwise."""
        if not self.is_constant():
            raise ValueError("not a constant polynomial: %s" % self)
        return self.terms.get((0,) * self.n, 0)

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def max_var_degree(self) -> int:
        """Largest exponent of any variable in any monomial (0 if zero)."""
        # one C-level pass over every exponent; a default= keyword would
        # send each call down builtin max's slower argument parsing
        return max(chain.from_iterable(self.terms)) if self.terms else 0

    def _check(self, other):
        if self.p != other.p:
            raise PrimeMismatch(
                "mixed characteristics %d and %d" % (self.p.p, other.p.p)
            )
        if self.n != other.n:
            raise ArityMismatch(
                "mixed variable counts %d and %d" % (self.n, other.n)
            )

    # ------------------------------------------------------------------
    # ring operations

    def _merge(self, other, sign) -> "MultiPoly":
        """self + sign * other, for sign +1 or -1, in one pass.

        The result keeps the canonical order; it is re-sorted only when
        other brings monomials that self lacks.
        """
        self._check(other)
        p = self.p.p
        out = dict(self.terms)
        grown = False
        for exps, c in other.terms.items():
            if exps in out:
                v = (out[exps] + sign * c) % p
                if v:
                    out[exps] = v
                else:
                    del out[exps]
            else:
                out[exps] = c if sign > 0 else p - c
                grown = True
        if grown:
            out = {e: out[e] for e in sorted(out)}
        return MultiPoly._trusted(self.p, self.n, out)

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.p, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        p = self.p.p
        return MultiPoly._trusted(
            self.p, self.n, {e: p - c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.p, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.p.p
            c = other % p
            terms = {e: v * c % p for e, v in self.terms.items()} if c else {}
            return MultiPoly._trusted(self.p, self.n, terms)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        p = self.p.p
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = (out.get(e, 0) + c1 * c2) % p
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        if self.max_var_degree() + other.max_var_degree() > _max_degree.get():
            _check_degree(out)
        return MultiPoly._trusted(self.p, self.n, {e: out[e] for e in sorted(out)})

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers need a nonnegative int")
        out = MultiPoly.constant(self.p, self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(self.p, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.p == other.p and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p.p, self.n, tuple(self.terms.items())))

    # ------------------------------------------------------------------
    # differential operations

    def _check_var(self, i):
        if not isinstance(i, int) or not 1 <= i <= self.n:
            raise IndexOutOfRange("variable z%r outside 1..%d" % (i, self.n))

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to z_i."""
        self._check_var(i)
        p = self.p.p
        out = {}
        k = i - 1
        for exps, c in self.terms.items():
            m = exps[k]
            v = c * (m % p) % p
            if v:
                # lowering one exponent by 1 keeps distinct keys distinct
                # and keeps their order
                out[exps[:k] + (m - 1,) + exps[k + 1 :]] = v
        return MultiPoly._trusted(self.p, self.n, out)

    def partial_pow(self, i: int, k: int) -> "MultiPoly":
        """k-fold partial derivative, computed by naive iteration.

        This is the ground-truth route that residue_mask is checked
        against.  Iteration stops as soon as the result vanishes, and
        partial(i)^p = 0 identically, so k may be large.
        """
        self._check_var(i)
        if not isinstance(k, int) or k < 0:
            raise ValueError("derivative order must be a nonnegative int")
        if k >= self.p.p:
            return MultiPoly.zero(self.p, self.n)
        out = self
        for _ in range(k):
            if out.is_zero():
                break
            out = out.partial(i)
        return out

    # kept as a name because the span table of bench/spans.py wraps it
    partial_pow_fast = partial_pow

    def residue_mask(self, index, every=True, sign=1, lower=False) -> "MultiPoly":
        """The one diagonal pass behind the (p-1)-fold operator calculus.

        Keeps the monomials z^E whose residue pattern on index has every
        E_i = p-1 (mod p) for i in index (every=True), or at least one such
        i (every=False); multiplies them by sign (+1 or -1) and, when lower
        is set, divides them by z_index^(p-1).

        By Wilson's theorem (p-1)! = -1, so the falling factorial of
        partial_i^(p-1) z_i^m is -1 when m = p-1 (mod p) and 0 otherwise:

            partial_I^(p-1) z^E = (-1)^|I| z^(E - (p-1) chi_I)
                                  if E_i = p-1 (mod p) for all i in I,

        and 0 otherwise.  That is residue_mask(I, sign=(-1)^|I|,
        lower=True); the projectors P_I, Q_r, O_I, the restricted slice and
        Cartier are the other sign, shift and pattern choices.  The
        variables of index must be distinct and within range, sign is +1
        or -1, and lower needs every=True (with every=False a kept monomial
        need not be divisible by z_index^(p-1)).
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1, got %r" % (sign,))
        if lower and not every:
            raise ValueError("lower=True needs every=True")
        n = self.n
        seen = set()
        for i in index:
            if not isinstance(i, int) or not 1 <= i <= n:
                raise IndexOutOfRange("variable z%r outside 1..%d" % (i, n))
            if i in seen:
                raise IndexOutOfRange(
                    "repeated variable z%d in %r" % (i, tuple(index))
                )
            seen.add(i)
        p = self.p.p
        top = p - 1
        pos = [i - 1 for i in seen]
        out = {}
        if every:
            shift = tuple(top if j in seen else 0 for j in range(1, n + 1))
            for exps, c in self.terms.items():
                for k in pos:
                    if exps[k] % p != top:
                        break
                else:
                    if lower:
                        exps = tuple(map(sub, exps, shift))
                    out[exps] = c if sign == 1 else p - c
        else:
            for exps, c in self.terms.items():
                for k in pos:
                    if exps[k] % p == top:
                        out[exps] = c if sign == 1 else p - c
                        break
        return MultiPoly._trusted(self.p, self.n, out)

    def partial_multi(self, index) -> "MultiPoly":
        """Product of (p-1)-fold partials over the variables in index.

        The operators commute, so the order of index does not matter;
        see residue_mask for the closed form.
        """
        sign = -1 if len(index) % 2 else 1
        return self.residue_mask(index, sign=sign, lower=True)

    def antiderivative(self, i: int) -> "MultiPoly":
        """Formal antiderivative in z_i with integration constant 0.

        Raises ObstructedAntiderivative on any monomial whose z_i-exponent
        is = p-1 (mod p): those are exactly the monomials outside the image
        of partial(i).
        """
        self._check_var(i)
        p = self.p.p
        out = {}
        j = i - 1
        for exps, c in self.terms.items():
            m = exps[j]
            if m % p == p - 1:
                raise ObstructedAntiderivative(
                    "monomial %s has z%d-exponent %d = p-1 (mod %d)"
                    % (monomial_text(exps, c), i, m, p)
                )
            v = c * inv_mod(m + 1, p) % p
            e = exps[:j] + (m + 1,) + exps[j + 1 :]
            out[e] = v
        _check_degree(out, i)
        return MultiPoly._trusted(self.p, self.n, out)

    def is_differential_constant(self) -> bool:
        """True when every partial derivative vanishes, i.e. f lies in K[z^p]."""
        p = self.p.p
        return all(e % p == 0 for exps in self.terms for e in exps)

    def frobenius_decompose(self):
        """Split f as sum over residue patterns E of g_E * z^E.

        Returns a dict mapping each pattern E in {0..p-1}^n to the
        differential-constant polynomial g_E.  Reassembling via
        sum(g_E * z^E) recovers f exactly.

        >>> p3 = Prime(3)
        >>> f = MultiPoly(p3, 2, {(4, 1): 1})
        >>> {pat: str(g) for pat, g in f.frobenius_decompose().items()}
        {(1, 1): 'z1^3'}
        """
        p = self.p.p
        out = {}
        for exps, c in self.terms.items():
            pattern = tuple(e % p for e in exps)
            base = tuple(e - r for e, r in zip(exps, pattern))
            bucket = out.setdefault(pattern, {})
            bucket[base] = c
        return {
            pattern: MultiPoly._trusted(self.p, self.n, bucket)
            for pattern, bucket in sorted(out.items())
        }

    def substitute_pth(self, shift=None) -> "MultiPoly":
        """f(z1..zn) -> f(z1^p..zn^p) * z^shift; may raise DegreeOverflow.

        shift is an exponent vector, zero when omitted.
        """
        p = self.p.p
        shift = tuple(shift) if shift else (0,) * self.n
        if len(shift) != self.n:
            raise ArityMismatch(
                "shift %r has length %d, expected %d"
                % (shift, len(shift), self.n)
            )
        if any(not isinstance(s, int) or s < 0 for s in shift):
            raise ValueError("bad shift %r" % (shift,))
        out = {
            tuple(e * p + s for e, s in zip(exps, shift)): c
            for exps, c in self.terms.items()
        }
        _check_degree(out)
        return MultiPoly._trusted(self.p, self.n, out)

    def unsubstitute_pth(self) -> "MultiPoly":
        """Inverse of substitute_pth; needs every exponent divisible by p."""
        p = self.p.p
        out = {}
        for exps, c in self.terms.items():
            if any(e % p for e in exps):
                raise NotPthPower(
                    "monomial %s is not a p-th power (p=%d)"
                    % (monomial_text(exps, c), p)
                )
            out[tuple(e // p for e in exps)] = c
        return MultiPoly._trusted(self.p, self.n, out)

    # ------------------------------------------------------------------
    # presentation

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)
        return " + ".join(monomial_text(e, c) for e, c in ordered)

    def __repr__(self):
        return "MultiPoly(p=%d, n=%d, %s)" % (self.p.p, self.n, self)


def variables(p, n):
    """The tuple of generators (z1, .., zn) over F_p.

    >>> x, y = variables(5, 2)
    >>> print(x * x * y)
    z1^2*z2
    """
    return tuple(MultiPoly.variable(p, n, i) for i in range(1, n + 1))
