"""The prime field F_p: its characteristic and its inverses.

Residues are plain ints in least nonnegative form, so -1 appears as p - 1
and equality is integer equality.  The characteristic is wrapped in
:class:`Prime`, which verifies primality once at construction; everything
downstream can then trust it.  Primes up to 2**31 - 1 are supported.
"""

from __future__ import annotations

from .errors import DivisionByZero, PrimeOutOfRange, _shown

MAX_PRIME = 2**31 - 1

_WITNESSES = (2, 3, 5, 7)


def is_prime(m: int) -> bool:
    """Deterministic primality test for 0 <= m <= 2**31 - 1.

    Miller-Rabin with the witness bases 2, 3, 5 and 7 is exact for every
    m below 3215031751 = 151 * 751 * 28351, the first strong pseudoprime
    to all four, for which it returns True.  That covers the supported
    range, and Prime rejects larger values before calling it.  Below
    121 = 11^2, a number that 2, 3, 5 and 7 do not divide is prime, so
    those skip Miller-Rabin.

    >>> [q for q in range(20) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19]
    """
    if m < 2:
        return False
    for q in _WITNESSES:
        if m % q == 0:
            return m == q
    if m < 121:
        return True
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class Prime:
    """A verified prime characteristic p with 2 <= p <= 2**31 - 1."""

    __slots__ = ("p",)

    def __init__(self, p):
        if isinstance(p, Prime):
            self.p = p.p
            return
        if not isinstance(p, int) or isinstance(p, bool):
            raise PrimeOutOfRange(
                "characteristic must be an integer, got %s" % _shown(p)
            )
        if not 2 <= p <= MAX_PRIME:
            raise PrimeOutOfRange("characteristic %s outside 2..2**31-1" % _shown(p))
        if not is_prime(p):
            raise PrimeOutOfRange("%d is not prime" % p)
        self.p = p

    def __int__(self):
        return self.p

    def __index__(self):
        return self.p

    def __eq__(self, other):
        if isinstance(other, Prime):
            return self.p == other.p
        if isinstance(other, int):
            return self.p == other
        return NotImplemented

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Prime(%d)" % self.p

    def __str__(self):
        return str(self.p)


def inv_mod(a: int, p: int) -> int:
    """Inverse of the residue a mod p; raises DivisionByZero on 0 mod p.

    >>> inv_mod(2, 7), inv_mod(-1, 5)
    (4, 4)
    """
    a %= p
    if a == 0:
        raise DivisionByZero("0 has no inverse in F_%d" % p)
    # Fermat: a**(p-2) inverts a for 0 < a < p.
    return pow(a, p - 2, p)
