"""Prime generation and primality testing.

Miller-Rabin is deterministic below psi_13 ~ 3.3e24 (OEIS A014233),
using the fewest prime bases proven for the input's range; larger
inputs fall back to a seeded probabilistic test and the result is
flagged accordingly.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import numpy as np

from .errors import fits_in_memory

# OEIS A014233: psi_k is the least odd composite that is a strong
# pseudoprime to each of the first k prime bases, so those k bases decide
# every n < psi_k (psi_12 and psi_13: Sorenson and Webster, Math. Comp. 2017)
_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
        3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
        3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
        3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
        3_317_044_064_679_887_385_961_981)
_DETERMINISTIC_BOUND = _PSI[-1]

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_cached_limit = 0
_cached_flags: np.ndarray | None = None
_cached_primes: np.ndarray | None = None


def sieve_flags(limit: int) -> np.ndarray:
    """Boolean array f of length limit+1 with f[n] true iff n is prime."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return flags


def _ensure(limit: int) -> None:
    global _cached_limit, _cached_flags, _cached_primes
    if limit <= _cached_limit:
        return
    limit = max(limit, 2 * _cached_limit, 1 << 16)
    with fits_in_memory(f"a prime sieve to {limit}"):
        flags = sieve_flags(limit)
        primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    _cached_flags, _cached_primes, _cached_limit = flags, primes, limit


def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of all primes p <= limit."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    _ensure(limit)
    assert _cached_primes is not None
    return _cached_primes[: np.searchsorted(_cached_primes, limit, side="right")]

def primes_in_range(lo: float, hi: float) -> np.ndarray:
    """Primes p with lo < p <= hi (bounds may be non-integer)."""
    if hi < 2:
        return np.empty(0, dtype=np.int64)
    ps = primes_upto(int(hi))
    return ps[np.searchsorted(ps, lo, side="right"):]


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a proves n composite."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality for n below the proven witness bound.

    n inside the range already sieved by primes_upto is looked up there.
    """
    flags = _cached_flags
    if flags is not None and 0 <= n < len(flags):
        return bool(flags[n])
    ok, _ = primality(n)
    return ok


def primality(n: int) -> tuple[bool, str]:
    """Primality test with a certainty tag.

    Returns (is_prime, "deterministic" | "probabilistic").  The
    probabilistic branch only triggers beyond the proven witness bound.
    """
    if n < 2:
        return False, "deterministic"
    for p in _TRIAL_PRIMES:
        if n == p:
            return True, "deterministic"
        if n % p == 0:
            return False, "deterministic"
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        for a in _TRIAL_PRIMES[:bisect_right(_PSI, n) + 1]:
            if _mr_witness(n, a, d, s):
                return False, "deterministic"
        return True, "deterministic"
    rng = random.Random(0xD1CE)     # fixed bases: reproducible answers
    for _ in range(64):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return False, "probabilistic"
    return True, "probabilistic"
