"""Sparse multivariate polynomials over F_p with their differential structure.

A polynomial in variables z1..zn is a mapping from exponent vectors (tuples
of n nonnegative ints) to nonzero residues in 1..p-1.  The zero polynomial
is the empty mapping.  No term order is kept: the dict iterates in
whatever order its monomials were made, and no simplification ever happens
besides dropping zero coefficients: what you build is what you keep.  The
canonical order, ascending by exponent vector, exists only where it is
seen: the text of __str__ and of the printer, the format-1 documents, and
the errors that name a monomial, which scan the sorted terms once an
error is certain, so they name the least offender.

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
with DegreeOverflow instead of exhausting memory.  Input (the
constructor, the parser's atoms, documents, the sampler) names its first
offender where it stands.  A result computed from operands within the
cap follows one rule, _check_cap: it raises exactly when it has an
exponent above the cap, naming the first variable whose largest exponent
passes it, with that exponent; a form's coefficients are checked in
index order.  * and ** apply the rule before they build.

Validation happens at the trust boundary, not on every result.  The
constructor MultiPoly(p, n, terms) checks and normalizes whatever it is
given.  Results that are clean by construction (sums, negations, scalar
multiples, partials, residue masks, Frobenius parts) are built by the
unchecked _trusted constructor instead.  Only *, **, substitute_pth and
antiderivative, which can raise an exponent, check the cap, so lowering
it does not make the exponent-preserving operations raise.  The public
residue_mask and substitute_pth check their arguments and then call the
unchecked kernels _residue_mask and _substituted, which the operators,
Cartier and gamma0 call directly.

The exponent vectors of *, wedge, the lowering residue mask, the
Frobenius maps and the closed-form cofactor of ratfun.py are built by
kernels, each chosen once per call by _kernel: a + b, k*a + b and a // k.
Their tables are generated once, at import, from one constant template,
the way collections.namedtuple generates its code: for every arity n up
to _UNROLLED_ARITY, a lambda that spells out its n entries (at n = 6 it
builds a sum in about a quarter of the time of tuple(map(add, a, b))),
and above it the map expression itself, so every arity gives the same
tuples.  Generating the 24 lambdas adds about 1 ms to the import.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from operator import add, itemgetter

from .errors import (
    ArityMismatch,
    DegreeOverflow,
    IndexOutOfRange,
    NotPthPower,
    ObstructedAntiderivative,
    PrimeMismatch,
    _shown,
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
    if type(limit) is not int or limit < 1:
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
    """Raise ArityMismatch unless n is an int in 1..MAX_VARIABLES.

    A bool is refused: a form document would carry it as true or false.
    """
    if type(n) is not int or n < 1:
        raise ArityMismatch("need at least one variable, got n=%s" % _shown(n))
    if n > MAX_VARIABLES:
        raise ArityMismatch("n exceeds the variable limit %d" % MAX_VARIABLES)


def _check_var(i, n):
    """Raise IndexOutOfRange unless i is an int in 1..n, not a bool."""
    if type(i) is not int or not 1 <= i <= n:
        raise IndexOutOfRange("variable z%s outside 1..%d" % (_shown(i), n))


def _degree_overflow(e, i, limit) -> DegreeOverflow:
    """The error for exponent e of z_i above the cap limit."""
    return DegreeOverflow(
        "exponent %s of z%d exceeds the degree limit %s"
        % (_shown(e), i, _shown(limit))
    )


def _check_degree(terms):
    """Raise DegreeOverflow for input at its first exponent above the
    cap, in the order of terms, as the constructor does; a C-level max
    gates the scan."""
    limit = _max_degree.get()
    if terms and max(chain.from_iterable(terms)) > limit:
        for exps in terms:
            for i, e in enumerate(exps, start=1):
                if e > limit:
                    raise _degree_overflow(e, i, limit)


def _check_maxima(maxima):
    """The cap rule on a result whose largest z_i-exponent is maxima[i - 1]:
    DegreeOverflow for the first variable whose largest exponent passes it."""
    limit = _max_degree.get()
    for i, m in enumerate(maxima, start=1):
        if m > limit:
            raise _degree_overflow(m, i, limit)


def _check_cap(terms):
    """The cap rule on a computed result with the exponent vectors terms."""
    if terms and max(chain.from_iterable(terms)) > _max_degree.get():
        _check_maxima(map(max, zip(*terms)))


def _check_product(f, g):
    """The cap rule on f * g, before it is built: the z_i-leading monomial
    of a product over F_p never cancels, so max_i(f g) = max_i f + max_i g
    (a zero factor leaves no exponent at all)."""
    if f.max_var_degree() + g.max_var_degree() > _max_degree.get():
        _check_maxima(map(add, map(max, zip(*f.terms)), map(max, zip(*g.terms))))


def _check_power(f, k):
    """The cap rule on f**k, before it is built: max_i(f^k) = k max_i f."""
    if k * f.max_var_degree() > _max_degree.get():
        _check_maxima([k * m for m in map(max, zip(*f.terms))])


# Exponent vectors of up to this many entries get spelled-out kernels.
_UNROLLED_ARITY = 8

# The one template of the generated kernels, and the entry each kernel
# repeats for i = 0..n-1.
_KERNEL = "lambda {params}: ({entries},)"
_ADD_PARAMS = "a, b"
_ADD_ENTRY = "a[{i}] + b[{i}]"
_SCALE_ADD_PARAMS = "k, a, b"
_SCALE_ADD_ENTRY = "k * a[{i}] + b[{i}]"
_FLOORDIV_PARAMS = "a, k"
_FLOORDIV_ENTRY = "a[{i}] // k"


def _add_map(a, b):
    return tuple(map(add, a, b))


def _scale_add_map(k, a, b):
    return tuple(map(add, map(k.__mul__, a), b))


def _floordiv_map(a, k):
    return tuple(map(k.__rfloordiv__, a))


def _kernels(params, entry, fallback):
    """A kernel table: item n, for n = 1.._UNROLLED_ARITY, is the lambda of
    params whose tuple spells out entry for i = 0..n-1; item 0 is
    fallback, the same map as a function, which serves every arity."""
    table = [fallback]
    for n in range(1, _UNROLLED_ARITY + 1):
        entries = ", ".join(entry.format(i=i) for i in range(n))
        table.append(eval(_KERNEL.format(params=params, entries=entries), {}))
    return tuple(table)


_ADD_KERNELS = _kernels(_ADD_PARAMS, _ADD_ENTRY, _add_map)
_SCALE_ADD_KERNELS = _kernels(_SCALE_ADD_PARAMS, _SCALE_ADD_ENTRY, _scale_add_map)
_FLOORDIV_KERNELS = _kernels(_FLOORDIV_PARAMS, _FLOORDIV_ENTRY, _floordiv_map)


def _kernel(kernels, n):
    """The function of the table kernels for n-entry exponent vectors."""
    return kernels[n] if n <= _UNROLLED_ARITY else kernels[0]


def _nonzero(terms):
    """A dict of residues without its zeros; terms itself when it has none.

    The sums of *, d, wedge and the parser are reduced mod p as they are
    updated, so a sum that cancels keeps its first slot, as 0, until
    this one filter drops it; the rest keep their order.
    """
    if 0 in terms.values():
        return {e: c for e, c in terms.items() if c}
    return terms


class MultiPoly:
    """A sparse polynomial over F_p in n variables.

    Treat instances as immutable: a product by 1 returns the operand.

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
        q = p.p
        clean = {}
        limit = _max_degree.get()
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ArityMismatch(
                        "exponent vector %s has length %d, expected %d"
                        % (_shown(exps), len(exps), n)
                    )
                for e in exps:
                    if type(e) is not int or e < 0 or e > limit:
                        # an error is certain; a rescan names the first
                        # variable whose exponent fails, type and sign
                        # tested before the cap
                        for i, e in enumerate(exps, start=1):
                            if type(e) is not int or e < 0:
                                raise ValueError(
                                    "bad exponent %s for z%d" % (_shown(e), i)
                                )
                            if e > limit:
                                raise _degree_overflow(e, i, limit)
                if type(c) is not int:
                    raise TypeError("coefficient %s is not an int" % _shown(c))
                c %= q
                if c:
                    if exps in clean:
                        # a sum that cancels gives up its slot
                        c = (clean[exps] + c) % q
                        if not c:
                            del clean[exps]
                            continue
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, p, n, terms) -> "MultiPoly":
        """A polynomial from terms that are clean by construction.

        p is a Prime, n a valid arity, and terms a dict, in any order,
        mapping exponent vectors of length n to residues in 1..p-1.
        Nothing is checked, reduced, sorted or copied.
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
        _check_arity(n)
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, p, n, exps, c=1) -> "MultiPoly":
        return cls(p, n, {tuple(exps): c})

    @classmethod
    def variable(cls, p, n, i) -> "MultiPoly":
        _check_arity(n)
        _check_var(i, n)
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
        if self.p.p != other.p.p:
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

        The result keeps self's monomials in their order and puts the
        monomials that only other has after them.
        """
        self._check(other)
        p = self.p.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                v = (out[exps] + sign * c) % p
                if v:
                    out[exps] = v
                else:
                    del out[exps]
            else:
                out[exps] = c if sign > 0 else p - c
        return MultiPoly._trusted(self.p, self.n, out)

    def __add__(self, other):
        if type(other) is int:
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
        if type(other) is int:
            other = MultiPoly.constant(self.p, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other if type(other) is int else NotImplemented

    def __mul__(self, other):
        if type(other) is int:
            p = self.p.p
            c = other % p
            if c == 1:
                return self  # MultiPoly is immutable: a product by 1 is the operand
            terms = {e: v * c % p for e, v in self.terms.items()} if c else {}
            return MultiPoly._trusted(self.p, self.n, terms)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        _check_product(self, other)
        # a constant factor (zero, or one monomial at the zero exponent
        # vector) scales the other operand: no exponent moves
        for a, b in ((self, other), (other, self)):
            if len(b.terms) <= 1 and not any(next(iter(b.terms), ())):
                return a * next(iter(b.terms.values()), 0)
        p = self.p.p
        out = {}
        get = out.get
        right = other.terms.items()
        vector_add = _kernel(_ADD_KERNELS, self.n)
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = vector_add(e1, e2)
                out[e] = (get(e, 0) + c1 * c2) % p
        return MultiPoly._trusted(self.p, self.n, _nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("polynomial powers need a nonnegative int")
        _check_power(self, k)
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
        if type(other) is int:
            other = MultiPoly.constant(self.p, self.n, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.p.p == other.p.p and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p.p, self.n, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # differential operations

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to z_i."""
        _check_var(i, self.n)
        p = self.p.p
        out = {}
        k = i - 1
        for exps, c in self.terms.items():
            m = exps[k]
            v = c * (m % p) % p
            if v:
                # lowering one exponent by 1 keeps distinct keys distinct
                e = list(exps)
                e[k] = m - 1
                out[tuple(e)] = v
        return MultiPoly._trusted(self.p, self.n, out)

    def partial_pow(self, i: int, k: int) -> "MultiPoly":
        """k-fold partial derivative, computed by naive iteration.

        This is the ground-truth route that residue_mask is checked
        against.  Iteration stops as soon as the result vanishes, and
        partial(i)^p = 0 identically, so k may be large.
        """
        _check_var(i, self.n)
        if type(k) is not int or k < 0:
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
        variables of index must be distinct and within range, sign is the int
        +1 or -1, and lower needs every=True (with every=False a kept monomial
        need not be divisible by z_index^(p-1)).

        This entry checks its arguments and hands them to _residue_mask,
        the unchecked kernel.  The operators of operators.py and cartier.py
        call the kernel directly with a form's own multi-index, which the
        form already guarantees to be strictly increasing and in range.
        """
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError("sign must be +1 or -1, got %s" % _shown(sign))
        if lower and not every:
            raise ValueError("lower=True needs every=True")
        n = self.n
        seen = set()
        for i in index:
            _check_var(i, n)
            if i in seen:
                raise IndexOutOfRange(
                    "repeated variable z%d in %s" % (i, _shown(tuple(index)))
                )
            seen.add(i)
        return self._residue_mask(index, every, sign, lower)

    def _residue_mask(self, index, every=True, sign=1, lower=False) -> "MultiPoly":
        """residue_mask on trusted arguments, checking nothing.

        index holds distinct variables in 1..n, sign is +1 or -1, and
        lower implies every.  With every set, each variable of index
        filters the survivors of the one before, and the pass stops once
        none are left.  Kept monomials stay in the order they had.
        """
        p = self.p.p
        top = p - 1
        terms = self.terms
        if every:
            for i in index:
                if not terms:
                    break
                k = i - 1
                terms = {e: c for e, c in terms.items() if e[k] % p == top}
            if lower and terms:
                shift = [0] * self.n
                for i in index:
                    shift[i - 1] = -top
                vector_add = _kernel(_ADD_KERNELS, self.n)
                terms = {vector_add(e, shift): c for e, c in terms.items()}
        else:
            pos = [i - 1 for i in index]
            out = {}
            for exps, c in terms.items():
                for k in pos:
                    if exps[k] % p == top:
                        out[exps] = c
                        break
            terms = out
        if sign != 1:
            terms = {e: p - c for e, c in terms.items()}
        return MultiPoly._trusted(self.p, self.n, terms)

    def partial_multi(self, index) -> "MultiPoly":
        """Product of (p-1)-fold partials over the variables in index.

        The operators commute, so the order of index does not matter;
        see residue_mask for the closed form.
        """
        sign = -1 if len(index) % 2 else 1
        return self.residue_mask(index, sign=sign, lower=True)

    def antiderivative(self, i: int) -> "MultiPoly":
        """Formal antiderivative in z_i with integration constant 0.

        Raises ObstructedAntiderivative, naming the least such monomial,
        when any z_i-exponent is = p-1 (mod p): those are exactly the
        monomials outside the image of partial(i).
        """
        _check_var(i, self.n)
        p = self.p.p
        top = p - 1
        out = {}
        j = i - 1
        for exps, c in self.terms.items():
            m = exps[j]
            if m % p == top:
                exps = min(e for e in self.terms if e[j] % p == top)
                raise ObstructedAntiderivative(
                    "monomial %s has z%d-exponent %d = p-1 (mod %d)"
                    % (monomial_text(exps, self.terms[exps]), i, exps[j], p)
                )
            e = list(exps)
            e[j] = m + 1
            out[tuple(e)] = c * inv_mod(m + 1, p) % p
        top = max(map(itemgetter(j), out)) if out else 0
        if top > _max_degree.get():
            raise _degree_overflow(top, i, _max_degree.get())
        return MultiPoly._trusted(self.p, self.n, out)

    def is_differential_constant(self) -> bool:
        """True when every partial derivative vanishes, i.e. f lies in K[z^p]."""
        return not any(map(self.p.p.__rmod__, chain.from_iterable(self.terms)))

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
        shift = tuple(shift) if shift else (0,) * self.n
        if len(shift) != self.n:
            raise ArityMismatch(
                "shift %s has length %d, expected %d"
                % (_shown(shift), len(shift), self.n)
            )
        if any(type(s) is not int or s < 0 for s in shift):
            raise ValueError("bad shift %s" % _shown(shift))
        return self._substituted(shift)

    def _substituted(self, shift) -> "MultiPoly":
        """substitute_pth on a trusted shift, a sequence of n nonnegative
        ints; only the cap is checked, on the exponents that grew."""
        p = self.p.p
        scale_add = _kernel(_SCALE_ADD_KERNELS, self.n)
        out = {scale_add(p, exps, shift): c for exps, c in self.terms.items()}
        _check_cap(out)
        return MultiPoly._trusted(self.p, self.n, out)

    def unsubstitute_pth(self) -> "MultiPoly":
        """Inverse of substitute_pth; NotPthPower names the least monomial
        with an exponent not divisible by p."""
        p = self.p.p
        residue = p.__rmod__
        terms = self.terms
        if any(map(residue, chain.from_iterable(terms))):
            exps = min(e for e in terms if any(map(residue, e)))
            raise NotPthPower(
                "monomial %s is not a p-th power (p=%d)"
                % (monomial_text(exps, terms[exps]), p)
            )
        floordiv = _kernel(_FLOORDIV_KERNELS, self.n)
        return MultiPoly._trusted(
            self.p, self.n, {floordiv(exps, p): c for exps, c in terms.items()}
        )

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
