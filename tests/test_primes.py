"""Primality: the sieve lookup and Miller-Rabin agree."""

import random

import pytest

from sievegap import primes
from sievegap.errors import DomainError
from sievegap.primes import is_prime, primality, primes_upto, sieve_flags


def test_is_prime_matches_miller_rabin_inside_and_beyond_sieve():
    primes_upto(1 << 16)                 # is_prime now looks these up
    rng = random.Random(11)
    ns = list(range(-3, 2000)) + [rng.randrange(1 << 16) for _ in range(2000)]
    ns += list(range(10 ** 12, 10 ** 12 + 2000))      # beyond any sieve
    for n in ns:
        assert is_prime(n) == primality(n)[0], n


# OEIS A014233: psi_k, the least odd strong pseudoprime to each of the
# first k prime bases
A014233 = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
           3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
           3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
           3_317_044_064_679_887_385_961_981)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))


def test_a014233_strong_pseudoprimes_are_composite():
    for k, psi in enumerate(A014233, start=1):
        # the table's values: psi_k fools the first k bases
        assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k])
        assert primality(psi)[0] is False, psi
    assert primality(399165290221 * 798330580441) == (False, "deterministic")
    assert primality(A014233[-1])[1] == "probabilistic"


def test_primality_matches_sieve_up_to_1e6():
    flags = sieve_flags(10 ** 6)
    assert [n for n in range(10 ** 6 + 1) if primality(n)[0] != flags[n]] == []


def test_primality_matches_sympy_below_psi13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2017)
    ns = []
    for _ in range(1500):
        bits = rng.randint(8, A014233[-1].bit_length())
        ns.append(rng.randrange(1 << (bits - 1), 1 << bits) | 1)
        lo = 1 << (bits // 2)
        ns.append(sympy.randprime(lo, 2 * lo) * sympy.randprime(lo, 2 * lo))
        ns.append(sympy.randprime(1 << (bits - 1), 1 << bits))
    ns += [psi + delta for psi in A014233 for delta in (-2, 2)]
    for n in (n for n in ns if n < A014233[-1]):
        assert primality(n) == (sympy.isprime(n), "deterministic"), n


def test_prime_sieve_too_large_for_memory_is_refused(monkeypatch):
    """A sieve that cannot be allocated raises DomainError with its limit,
    not MemoryError, and leaves the cached sieve as it was.  The
    allocation failure is faked above 10^8."""
    real = primes.sieve_flags

    def fake_sieve_flags(limit):
        if limit > 10 ** 8:
            raise MemoryError
        return real(limit)

    monkeypatch.setattr(primes, "sieve_flags", fake_sieve_flags)
    small = primes_upto(1000).tolist()
    with pytest.raises(DomainError, match=r"^a prime sieve to 100000000000 "
                                          r"does not fit in memory$"):
        primes_upto(10 ** 11)
    assert primes_upto(1000).tolist() == small and is_prime(997)
