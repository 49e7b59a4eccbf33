import random

import pytest

from fpforms import DivisionByZero, Prime, PrimeOutOfRange
from fpforms.scalar import MAX_PRIME, inv_mod, is_prime


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for k in range(2, 50):
        assert is_prime(k) == (k in primes), k
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_matches_a_sieve():
    # below 121 = 11^2 is_prime decides by trial division alone; the sieve
    # checks that shortcut and the Miller-Rabin route above it
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 1)
    for q in range(2, 101):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit + 1, q))
    expected = [m for m, prime in enumerate(sieve) if prime]
    assert [m for m in range(limit + 1) if is_prime(m)] == expected


def test_is_prime_catches_carmichael_numbers():
    # strong pseudoprime traps for weak probabilistic tests
    for k in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_prime(k)


def test_is_prime_large_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    assert is_prime(1_000_000_007)
    assert not is_prime(1_000_000_007 * 3)


def test_witness_bases_stop_at_the_first_strong_pseudoprime(monkeypatch):
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7, so is_prime is right only below it; Prime refuses it
    # on range alone, before is_prime runs
    pseudoprime = 151 * 751 * 28351
    assert pseudoprime == 3215031751
    assert is_prime(pseudoprime)
    assert MAX_PRIME < pseudoprime

    def untouched(m):
        raise AssertionError("is_prime ran on %d" % m)

    monkeypatch.setattr("fpforms.scalar.is_prime", untouched)
    with pytest.raises(PrimeOutOfRange, match="^characteristic 3215031751 outside "):
        Prime(pseudoprime)


def test_prime_ctor_rejects_composites_and_overflow():
    with pytest.raises(PrimeOutOfRange):
        Prime(4)
    with pytest.raises(PrimeOutOfRange):
        Prime(1)
    with pytest.raises(PrimeOutOfRange):
        Prime(MAX_PRIME + 2)
    # str() refuses an int of more than 4300 digits; the message names
    # such a characteristic by its digit count
    for p, shown in (
        (10**5000, "<5001-digit int>"),
        (-(10**5000), "-<5001-digit int>"),
    ):
        with pytest.raises(PrimeOutOfRange) as caught:
            Prime(p)
        assert str(caught.value) == "characteristic %s outside 2..2**31-1" % shown
    with pytest.raises(PrimeOutOfRange) as caught:
        Prime(MAX_PRIME + 2)
    assert str(caught.value) == "characteristic 2147483649 outside 2..2**31-1"
    assert int(Prime(Prime(13))) == 13
    assert Prime(7) == 7 == Prime(7)
    assert len({Prime(5), Prime(5), 5}) == 1


def test_inv_mod_inverts_and_rejects_zero():
    rng = random.Random(1002)
    for p in (2, 3, 13, MAX_PRIME):
        for _ in range(50):
            a = rng.randrange(1, p) + p * rng.randrange(-3, 3)
            assert a * inv_mod(a, p) % p == 1
        for k in (0, 1, -2, 5):
            with pytest.raises(DivisionByZero):
                inv_mod(k * p, p)
