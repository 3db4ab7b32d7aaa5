"""Composite runs of polynomial values and coprimality witnesses."""

import math

import numpy as np
import pytest

from sievegap import applications
from sievegap.applications import (composite_run_bruteforce,
                                   composite_run_constructed,
                                   coprimality_constructed,
                                   coprimality_witness)
from sievegap.errors import DomainError
from sievegap.primes import primality, primes_upto
from sievegap.systems import polynomial_system
from sievegap.window import ShiftVector, sift


def _strip_small(g: int, d: int) -> int:
    for p in (int(p) for p in primes_upto(max(d, 2))):
        if p > d:
            break
        while g % p == 0:
            g //= p
    return g


# ---------------------------------------------------------------------------
# brute-force runs


def _direct_scan(f: str, X: int) -> tuple[int, int, int]:
    """(start, length, probabilistic checks) of the longest run, from one
    primality call per n."""
    poly = polynomial_system(f).poly
    best, best_start, run, run_start, prob = 0, 1, 0, 1, 0
    for n in range(1, X + 1):
        is_p, tag = primality(abs(poly(n)))
        prob += tag == "probabilistic"
        if is_p:
            run, run_start = 0, n + 1
        else:
            run += 1
            if run > best:
                best, best_start = run, run_start
    return best_start, best, prob


def test_brute_run_identity_poly():
    r = composite_run_bruteforce("n", 30)
    assert (r.start, r.length) == (24, 5)


def test_brute_run_square_poly():
    # every n >= 1 has n^2 in {1} or composite
    r = composite_run_bruteforce("n^2", 100)
    assert (r.start, r.length) == (1, 100)


def test_brute_run_matches_direct_scan():
    r = composite_run_bruteforce("n^2+1", 2000)
    assert (r.start, r.length) == _direct_scan("n^2+1", 2000)[:2]


def test_brute_run_negative_values_test_their_absolute_value():
    # |n - 10| on [1, 12] is prime at n = 3, 5, 7, 8 and 12
    r = composite_run_bruteforce("n-10", 12)
    assert (r.start, r.length) == (9, 3)


def test_brute_run_tie_breaks_smallest_start():
    # f(n) = n: the primes 2, 3, 5, 7 leave the runs [1, 1], [4, 4],
    # [6, 6] and [8, 10]; on [1, 10] the longest is [8, 10], and on
    # [1, 6] the three runs of length 1 tie and [1, 1] wins
    r = composite_run_bruteforce("n", 10)
    assert (r.start, r.length) == (8, 3)
    r = composite_run_bruteforce("n", 6)
    assert (r.start, r.length) == (1, 1)


# X large enough for each path: quadratics and 2n+1 sieve every value to
# sqrt(max |f|); n^3+2 presieves to 300 and tests the rest; n^4+1 at
# X = 56000 evaluates in Python ints and passes 2^63 from n = 55109 on.
# (n^2+n)/2 mod 2 has period 4, so its values are divided by 2 directly.
@pytest.mark.parametrize("f,X", [
    ("n^2+1", 3000), ("2n+1", 3000), ("n^2+n+41", 3000),
    ("(n^2+n)/2", 3000), ("n^2-2", 3000), ("n^2+2n", 3000),
    ("n-500", 1000), ("n^2", 500), ("n^3+2", 2000), ("n^4+1", 56000)])
def test_brute_run_matches_primality_scan(f, X, monkeypatch):
    expected = {x: _direct_scan(f, x) for x in (1, 2, X)}
    if polynomial_system(f).poly.degree <= 2:
        # the sieve reaches isqrt(max |f|) <= X: no value needs the test
        monkeypatch.setattr(applications, "primality", None)
    for x, scan in expected.items():
        r = composite_run_bruteforce(f, x)
        assert (r.start, r.length, r.probabilistic_checks) == scan, x


def test_brute_run_overflow_names_first_n():
    # 84^20 < 2^128 <= 85^20
    with pytest.raises(DomainError, match=r"^\|f\(85\)\| exceeds 128 bits$"):
        composite_run_bruteforce("n^20", 100)


def test_brute_run_counts_probabilistic_checks_after_presieve():
    # f(n) = n + psi_13 lies past the deterministic Miller-Rabin bound;
    # on [1, 40] every value is composite and two have no prime factor
    # <= 300, so only those two reach the probabilistic test
    r = composite_run_bruteforce("n+3317044064679887385961981", 40)
    assert (r.start, r.length, r.probabilistic_checks) == (1, 40, 2)


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


@pytest.mark.parametrize("f", ["(n^2+n+2)/2", "(n^2+n)/2", "(n^7-n+7)/7"])
def test_small_prime_classes_divide_every_value(f):
    """At p <= deg f, f mod p can lack period p; I_p holds only the
    classes on which p divides every value, so each n that sift strikes
    by p has p | f(n), and the constructed runs verify."""
    system = polynomial_system(f)
    for p in primes_upto(50).tolist():
        win = sift(system, p, ShiftVector(), -60, 300, z=p - 1)
        for n in (np.flatnonzero(~win.bits) - 60).tolist():
            assert system.poly(n) % p == 0, (p, n)
    for seed in range(3):
        r = composite_run_constructed(f, 10 ** 6, seed)
        assert r.verified
        for n in range(r.start, r.start + r.length):
            assert not primality(abs(system.poly(n)))[0], (seed, n)


# ---------------------------------------------------------------------------
# coprimality witnesses


def test_prime_factor_above_matches_trial_division():
    """g has a prime factor > d: every prime divides 0, and otherwise the
    largest prime factor of |g| exceeds d."""
    def largest(g):
        top, p = 0, 2
        while g > 1:
            while g % p == 0:
                g, top = g // p, p
            p += 1
        return top

    for d in (0, 1, 2, 5):
        assert applications._has_prime_factor_above(0, d)
        for g in range(-60, 61):
            if g:
                assert applications._has_prime_factor_above(g, d) == \
                    (largest(abs(g)) > d), (g, d)


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
