"""Primality: the sieve lookup and Miller-Rabin agree."""

import random

from sievegap.primes import is_prime, primality, primes_upto


def test_is_prime_matches_miller_rabin_inside_and_beyond_sieve():
    primes_upto(1 << 16)                 # is_prime now looks these up
    rng = random.Random(11)
    ns = list(range(-3, 2000)) + [rng.randrange(1 << 16) for _ in range(2000)]
    ns += list(range(10 ** 12, 10 ** 12 + 2000))      # beyond any sieve
    for n in ns:
        assert is_prime(n) == primality(n)[0], n
