"""Rational functions over F_p with p-th-power denominators.

Any quotient P/Q can be rewritten with a denominator that is a p-th power:

    P/Q = (P * Q^(p-1)) / Q^p

and Q^p has every exponent divisible by p, so every partial derivative of
the denominator vanishes.  Derivatives of a RatFun therefore act on the
numerator alone, which keeps the differential calculus of rational
coefficients exactly as cheap as the polynomial one.

The constructor normalizes: a denominator that is already a differential
constant (all exponents divisible by p) is kept as given, anything else is
inflated by the identity above.  No reduction to lowest terms is attempted,
so one value has many representations.  Equality compares the numerators
alone when the two denominators are the same polynomial, which is exact
because F_p[z] is an integral domain, and cross-multiplies otherwise.

As for polynomials and forms, validation happens at the trust boundary.
The constructor RatFun(num, den) checks and normalizes whatever it is
given; the parser, JSON documents, / and user calls go through it.  A
product of differential constants is again one, so the results of +, -,
*, the derivatives and the residue masks are clean by construction and
are built by the unchecked _trusted constructor.  + and - merge only the
numerators when the denominators are equal.  Mixed characteristics or
arities still raise, from the MultiPoly operations underneath.
"""

from __future__ import annotations

from .errors import ZeroDenominator
from .poly import MultiPoly
from .scalar import inv_mod


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
            den = MultiPoly.constant(num.p, num.n, 1)
        if not isinstance(den, MultiPoly):
            raise TypeError("denominator must be a MultiPoly")
        num._check(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.p, num.n, 1)
        elif not den.is_differential_constant():
            num = num * den ** (num.p.p - 1)
            # Frobenius: den^p over F_p is den with every exponent times p
            den = den.substitute_pth()
        self.num = num
        self.den = den

    @classmethod
    def _trusted(cls, num, den) -> "RatFun":
        """A quotient from parts that are clean by construction.

        num and den are MultiPoly values over the same p and n, and den is
        a nonzero differential constant.  Nothing is checked; as in the
        constructor, a zero numerator gets the denominator 1.
        """
        self = object.__new__(cls)
        if not num.terms:
            den = MultiPoly._trusted(num.p, num.n, {(0,) * num.n: 1})
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
        """True when the value lies in F_p, i.e. num = c * den."""
        if self.num.is_zero():
            return True
        exps, a = next(iter(self.den.terms.items()))
        b = self.num.coefficient(exps)
        if b == 0:
            return False
        c = b * inv_mod(a, self.p.p) % self.p.p
        return self.num == self.den * c

    def is_differential_constant(self) -> bool:
        # d(num/den) = d(num)/den because the denominator is constant
        # under every partial, so only the numerator matters.
        return self.num.is_differential_constant()

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, MultiPoly):
            return RatFun(other)
        if isinstance(other, int):
            return RatFun(MultiPoly.constant(self.p, self.n, other))
        return None

    # ------------------------------------------------------------------
    # field operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFun._trusted(self.num + other.num, self.den)
        return RatFun._trusted(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFun._trusted(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFun._trusted(self.num - other.num, self.den)
        return RatFun._trusted(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
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
        return self.num * other.den == other.num * self.den

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

    def substitute_pth(self, shift=None) -> "RatFun":
        """num(z^p) * z^shift / den(z^p)."""
        return RatFun(self.num.substitute_pth(shift), self.den.substitute_pth())

    def to_polynomial(self) -> MultiPoly:
        """The underlying polynomial when den is a nonzero constant."""
        if not self.den.is_constant():
            raise ValueError("denominator %s is not constant" % self.den)
        c = self.den.constant_value()
        return self.num * inv_mod(c, self.p.p)

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFun(p=%d, n=%d, %s)" % (self.p.p, self.n, self)


def clear_denominators(form):
    """Rewrite a rational form as (lam, omega') with omega' polynomial.

    lam is the product of the distinct nontrivial denominators appearing in
    the form (deduplicated by equality), and omega' = lam * form coefficient
    by coefficient.  lam is itself a differential constant, so multiplying
    by it preserves closedness, p-closedness and exactness in both
    directions.  Polynomial input comes back unchanged with lam = 1.
    """
    one = MultiPoly.constant(form.p, form.n, 1)
    dens: list[MultiPoly] = []
    for coeff in form.terms.values():
        if isinstance(coeff, RatFun) and not coeff.den.is_constant():
            if not any(coeff.den == d for d in dens):
                dens.append(coeff.den)
    if not dens:
        out = {}
        for index, coeff in form.terms.items():
            out[index] = coeff.to_polynomial() if isinstance(coeff, RatFun) else coeff
        return one, form._with_terms(out)
    lam = one
    for d in dens:
        lam = lam * d
    # each cofactor divides lam, so it cannot overflow where lam did not
    cofactors = []
    for k in range(len(dens)):
        cof = one
        for d in dens[:k] + dens[k + 1:]:
            cof = cof * d
        cofactors.append(cof)
    out = {}
    for index, coeff in form.terms.items():
        if not isinstance(coeff, RatFun):
            out[index] = coeff * lam
        elif coeff.den.is_constant():
            # fold the constant denominator into the numerator
            out[index] = coeff.to_polynomial() * lam
        else:
            out[index] = coeff.num * cofactors[dens.index(coeff.den)]
    return lam, form._with_terms(out)
