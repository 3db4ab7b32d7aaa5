"""Composite runs of polynomial values and coprimality witnesses."""

import math

import pytest

from sievegap.applications import (composite_run_bruteforce,
                                   composite_run_constructed,
                                   coprimality_constructed,
                                   coprimality_witness)
from sievegap.errors import DomainError
from sievegap.primes import primality, primes_upto


def _strip_small(g: int, d: int) -> int:
    for p in (int(p) for p in primes_upto(max(d, 2))):
        if p > d:
            break
        while g % p == 0:
            g //= p
    return g


# ---------------------------------------------------------------------------
# brute-force runs


def test_brute_run_identity_poly():
    r = composite_run_bruteforce("n", 30)
    assert (r.start, r.length) == (24, 5)


def test_brute_run_square_poly():
    # every n >= 1 has n^2 in {1} or composite
    r = composite_run_bruteforce("n^2", 100)
    assert (r.start, r.length) == (1, 100)


def test_brute_run_matches_direct_scan():
    fn = lambda n: n * n + 1
    X = 2000
    best, best_start, run, run_start = 0, 1, 0, 1
    for n in range(1, X + 1):
        if primality(fn(n))[0]:
            run, run_start = 0, n + 1
        else:
            run += 1
            if run > best:
                best, best_start = run, run_start
    r = composite_run_bruteforce("n^2+1", X)
    assert (r.start, r.length) == (best_start, best)


def test_brute_run_negative_values_test_their_absolute_value():
    # |n - 10| on [1, 12] is prime at n = 3, 5, 7, 8 and 12
    r = composite_run_bruteforce("n-10", 12)
    assert (r.start, r.length) == (9, 3)


def test_brute_run_tie_breaks_smallest_start():
    # f(n) = n on [1, 10]: runs 1, 8..10 -> wait, scan directly instead
    r = composite_run_bruteforce("n", 10)
    assert (r.start, r.length) == (8, 3)


def test_brute_run_validation():
    with pytest.raises(DomainError):
        composite_run_bruteforce("n", 0)
    with pytest.raises(DomainError):
        composite_run_bruteforce("n^4+1", 10 ** 9)


# ---------------------------------------------------------------------------
# constructed runs


def test_constructed_run_verified_and_in_window():
    for seed in range(5):
        r = composite_run_constructed("n^2+1", 10 ** 6, seed)
        assert r.verified
        assert 10 ** 6 // 2 <= r.start <= r.start + r.length - 1 <= 10 ** 6
        for n in range(r.start, r.start + r.length):
            assert not primality(n * n + 1)[0]


def test_constructed_run_inside_composite_region():
    # element-wise: every element of the constructed interval passes an
    # independent primality re-check
    r = composite_run_constructed("n^2+1", 10 ** 4, seed=0)
    for n in range(r.start, r.start + r.length):
        assert not primality(n * n + 1)[0]


def test_constructed_run_deterministic():
    a = composite_run_constructed("n^2+1", 10 ** 6, seed=3)
    b = composite_run_constructed("n^2+1", 10 ** 6, seed=3)
    assert (a.start, a.length) == (b.start, b.length)


def test_constructed_run_identity_poly():
    r = composite_run_constructed("n", 10 ** 6, seed=1)
    assert r.verified and r.length >= 5


# ---------------------------------------------------------------------------
# coprimality witnesses


def test_coprime_witness_search_verified():
    w = coprimality_witness("n", 17, 3000)
    assert w.found
    # independent verification: every value shares a prime > 1 with another
    vals = [w.n + i for i in range(1, 18)]
    for i, v in enumerate(vals):
        assert any(_strip_small(math.gcd(v, u), 1) > 1
                   for j, u in enumerate(vals) if i != j)


def test_coprime_witness_not_found_small_bound():
    w = coprimality_witness("n", 17, 100)
    assert not w.found and w.n is None


def test_coprime_witness_k2_never_found_for_identity():
    # gcd(n+1, n+2) = 1 always
    w = coprimality_witness("n", 2, 500)
    assert not w.found


def test_coprime_witness_validation():
    with pytest.raises(DomainError):
        coprimality_witness("n", 1, 100)


def test_coprime_constructed_per_index_divisibility():
    c = coprimality_constructed("n^2+1", 100, seed=0)
    assert c.k_verified == c.k_requested >= 10
    for i in range(1, c.k_verified + 1):
        v = (c.n + i) ** 2 + 1
        assert _strip_small(v, 2) > 1   # a prime factor > deg f survives


def test_coprime_constructed_deterministic():
    a = coprimality_constructed("n^2+1", 60, seed=2)
    b = coprimality_constructed("n^2+1", 60, seed=2)
    assert (a.n, a.k_verified) == (b.n, b.k_verified)


def test_coprime_constructed_too_small_x():
    with pytest.raises(DomainError):
        coprimality_constructed("n^2+1", 3, seed=0)
