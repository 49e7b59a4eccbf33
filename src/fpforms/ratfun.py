"""Rational functions over F_p with p-th-power denominators.

Any quotient P/Q can be rewritten with a denominator that is a p-th power:

    P/Q = (P * Q^(p-1)) / Q^p

and Q^p has every exponent divisible by p, so every partial derivative of
the denominator vanishes.  Derivatives of a RatFun therefore act on the
numerator alone, which keeps the differential calculus of rational
coefficients exactly as cheap as the polynomial one.

The constructor normalizes in one rule: num and den are scaled by the
inverse of den's leading coefficient (_leading_coefficient, its
coefficient at the lexicographically largest exponent vector), so every
denominator is monic, a constant one is 1 and associates are equal.  A
differential constant (all exponents divisible by p) is then kept, and
anything else is inflated by the identity above, with Q^(p-1) in closed
form when Q is a monomial or binomial (_cofrobenius) and Q^p by Frobenius.
No further reduction to lowest terms is attempted, so one value can still
have many representations.  Unequal denominators meet in one rule, _pair,
in +, -, == and the clearing: their common multiple is the one that the
other divides, found by exact division (_quotient), or else their product;
equal ones compare the numerators alone, which is exact as F_p[z] is an
integral domain.

As for polynomials and forms, validation happens at the trust boundary.
The constructor RatFun(num, den) checks and normalizes whatever it is
given; the parser, JSON documents, / and user calls go through it.
RatFun(num) with no denominator gets the unit denominator directly, as
it needs no normal form.  A product of differential constants is again
one, and over F_p products, exact quotients and Frobenius images of
monic polynomials are monic, so the results of +, -, *, the derivatives
and the residue masks are clean by construction and are built by the
unchecked _trusted constructor.  + and - merge only the numerators when
the denominators are equal, * by an int scales the numerator alone,
building no RatFun for the int, and clear_denominators folds _pair over
the distinct denominators, 1 among them, for one multiplier each.  Mixed
characteristics or arities still raise, from the MultiPoly operations
underneath.
"""

from __future__ import annotations

from bisect import insort
from operator import sub

from .errors import ZeroDenominator
from .poly import _ADD_KERNELS, MultiPoly, _check_power, _kernel
from .scalar import inv_mod


def _unit(p, n) -> MultiPoly:
    """The constant 1 over F_p in n variables, p a Prime."""
    return MultiPoly._trusted(p, n, {(0,) * n: 1})


def _cofrobenius(den) -> MultiPoly:
    """den^(p-1), the factor that turns den into den^p.

    b*m gives m^(p-1), as b^(p-1) = 1 mod p, and a*m1 + b*m gives
    sum_j (-a/b)^j m1^j m^(p-1-j), as C(p-1, j) = (-1)^j: p distinct terms
    and no intermediate product.  Three or more terms go through
    den ** (p-1); either way the cap is checked before anything is built.
    """
    p = den.p.p
    if len(den.terms) > 2:
        return den ** (p - 1)
    _check_power(den, p - 1)
    (m, b), *rest = den.terms.items()
    exps = tuple(e * (p - 1) for e in m)
    out = {exps: 1}
    vector_add = _kernel(_ADD_KERNELS, den.n)
    for m1, a in rest:
        step = tuple(map(sub, m1, m))
        ratio = (p - a) * inv_mod(b, p) % p
        c = 1
        for _ in range(p - 1):
            exps = vector_add(exps, step)
            c = c * ratio % p
            out[exps] = c
    return MultiPoly._trusted(den.p, den.n, out)


def _leading_coefficient(f) -> int:
    """The coefficient of f's lexicographically largest monomial, the
    first one the printer writes; a RatFun denominator has it equal to 1."""
    return f.terms[max(f.terms)]


class RatFun:
    """A quotient num/den with differential-constant denominator.

    >>> from .poly import variables
    >>> (z,) = variables(3, 1)
    >>> print(RatFun(MultiPoly.constant(3, 1, 1), z))
    (z1^2)/(z1^3)
    >>> print(RatFun(MultiPoly.constant(3, 1, 1), z ** 3))
    (1)/(z1^3)
    >>> print(RatFun(z * z, z ** 3).partial(1))
    (2*z1)/(z1^3)
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if not isinstance(num, MultiPoly):
            raise TypeError("numerator must be a MultiPoly")
        if den is None:
            self.num = num
            self.den = _unit(num.p, num.n)
            return
        if not isinstance(den, MultiPoly):
            raise TypeError("denominator must be a MultiPoly")
        num._check(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        inverse = inv_mod(_leading_coefficient(den), num.p.p)
        num, den = num * inverse, den * inverse
        if num.is_zero():
            den = _unit(num.p, num.n)
        elif not den.is_differential_constant():
            num = num * _cofrobenius(den)
            # Frobenius: den^p over F_p is den with every exponent times p
            den = den.substitute_pth()
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, num, den) -> "RatFun":
        """A quotient from parts that are clean by construction.

        num and den are MultiPoly values over the same p and n, and den is
        a monic differential constant.  Nothing is checked; as in the
        constructor, a zero numerator gets the denominator 1.
        """
        self = object.__new__(cls)
        if not num.terms:
            den = _unit(num.p, num.n)
        self.num = num
        self.den = den
        return self

    # ------------------------------------------------------------------
    # structure

    @property
    def p(self):
        return self.num.p

    @property
    def n(self):
        return self.num.n

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        """True when the value lies in F_p: den divides num with a constant."""
        q = _quotient(self.num, self.den)
        return q is not None and q.is_constant()

    def is_differential_constant(self) -> bool:
        # d(num/den) = d(num)/den because the denominator is constant
        # under every partial, so only the numerator matters.
        return self.num.is_differential_constant()

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, MultiPoly):
            return RatFun(other)
        if type(other) is int:
            return RatFun(MultiPoly.constant(self.p, self.n, other))
        return None

    # ------------------------------------------------------------------
    # field operations

    def _merge(self, other, sign) -> "RatFun":
        """self + sign * other, for sign +1 or -1, over the dens' _pair."""
        if self.den == other.den:
            return RatFun._trusted(self.num._merge(other.num, sign), self.den)
        ma, mb = _pair(self.den, other.den)
        return RatFun._trusted(
            (self.num * ma)._merge(other.num * mb, sign), self.den * ma
        )

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._merge(other, -1)

    def __rsub__(self, other):
        return NotImplemented if self._coerce(other) is None else -self + other

    def __mul__(self, other):
        if type(other) is int:
            return RatFun._trusted(self.num * other, self.den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun._trusted(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        ma, mb = _pair(self.den, other.den)
        return self.num * ma == other.num * mb

    def __hash__(self):
        raise TypeError(
            "RatFun is unhashable: equal values can have different denominators"
        )

    # ------------------------------------------------------------------
    # differential operations

    def partial(self, i: int) -> "RatFun":
        return RatFun._trusted(self.num.partial(i), self.den)

    def partial_pow(self, i: int, k: int) -> "RatFun":
        return RatFun._trusted(self.num.partial_pow(i, k), self.den)

    def partial_multi(self, index) -> "RatFun":
        return RatFun._trusted(self.num.partial_multi(index), self.den)

    def residue_mask(self, index, every=True, sign=1, lower=False) -> "RatFun":
        return RatFun._trusted(
            self.num.residue_mask(index, every, sign, lower), self.den
        )

    def _residue_mask(self, index, every=True, sign=1, lower=False) -> "RatFun":
        """residue_mask on trusted arguments, through the numerator's kernel."""
        return RatFun._trusted(
            self.num._residue_mask(index, every, sign, lower), self.den
        )

    def _substituted(self, shift) -> "RatFun":
        """num(z^p) * z^shift / den(z^p) on a trusted shift.  den(z^p) is
        again a monic differential constant, so the quotient is clean by
        construction."""
        return RatFun._trusted(
            self.num._substituted(shift), self.den._substituted((0,) * self.n)
        )

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun(p=%d, n=%d, %s)" % (self.p.p, self.n, self)


def _quotient(f, g):
    """f / g when g divides f, else None, by long division by g's
    lexicographically largest monomial; a constant g scales f.  The
    dividend's monomials wait in a sorted list, so each leading term is
    its last entry, and a cancelled one stays there with residue 0.

    As F_p[z] is an integral domain, deg_i(q g) = deg_i q + deg_i g: a
    quotient monomial outside 0..deg_i f - deg_i g proves that g does not
    divide f, so nothing is built past f's degrees or checks the cap.
    """
    f._check(g)
    p = f.p.p
    if g.is_constant():
        return f * inv_mod(g.constant_value(), p)
    maxima = [map(max, zip(*h.terms)) for h in (f, g)]
    room = [a - b for a, b in zip(*maxima)]
    if min(room, default=0) < 0:
        return None
    lead = max(g.terms)
    inverse = inv_mod(g.terms[lead], p)
    rest = [(e, c) for e, c in g.terms.items() if e != lead]
    vector_add = _kernel(_ADD_KERNELS, f.n)
    left = dict(f.terms)
    order = sorted(left)
    out = {}
    while order:
        top = order.pop()
        c = left.pop(top)
        if not c:
            continue
        step = tuple(map(sub, top, lead))
        if any(e < 0 or e > r for e, r in zip(step, room)):
            return None
        c = out[step] = c * inverse % p
        # step + e < top for every e < lead, so top never comes back
        for e, b in rest:
            e = vector_add(step, e)
            if e not in left:
                insort(order, e)
            left[e] = (left.get(e, 0) - c * b) % p
    return MultiPoly._trusted(f.p, f.n, out)


def _pair(a, b) -> tuple:
    """(ma, mb) with ma * a == mb * b: the one rule where denominators meet.

    The side that the other divides gets 1 and the other the quotient; when
    neither divides the other, each side gets the other denominator.  The
    quotient of two p-th powers is a p-th power, so ma * a stays one.
    """
    q = _quotient(a, b)
    if q is not None:
        return _unit(a.p, a.n), q
    q = _quotient(b, a)
    return (b, a) if q is None else (q, _unit(a.p, a.n))


def clear_denominators(form):
    """Rewrite a form as (lam, lam * form), the second one polynomial.

    lam folds _pair over every distinct denominator, 1 included, in order
    of first appearance, and a table maps each one to an m with
    m * den == lam: each earlier m takes the factor that lam takes.  lam is
    built first and each m divides it, so the first lam that passes the
    cap raises; every cleared numerator, num * m, checks the cap too.  lam
    is a differential constant, so multiplying by it preserves closedness,
    p-closedness and exactness in both directions.  A polynomial form
    comes back as itself with lam = 1.  With one distinct denominator,
    lam is that denominator and a coefficient over it keeps its
    numerator: the products by 1 copy nothing, but check the cap.
    """
    if form.is_polynomial:
        return _unit(form.p, form.n), form
    table = dict.fromkeys(coeff.den for coeff in form.terms.values())
    lam = _unit(form.p, form.n)
    for den in table:
        ma, mb = _pair(lam, den)
        lam = lam * ma
        for seen, m in table.items():
            if m is not None:
                table[seen] = m * ma
        table[den] = mb
    out = {index: c.num * table[c.den] for index, c in form.terms.items()}
    return lam, form._with_terms(out)
