"""Shared helpers: brute-force oracles and random small systems."""

import math
import random

import numpy as np
import pytest

from sievegap.systems import SievingSystem
from sievegap.window import ShiftVector


def random_table_system(rng: random.Random, prime_cap: int = 50,
                        max_classes: int = 3) -> SievingSystem:
    """A random table system on primes <= prime_cap with |I_p| <= max_classes."""
    from sievegap.primes import primes_upto
    table = {}
    for p in (int(p) for p in primes_upto(prime_cap)):
        k = rng.randint(0, min(max_classes, p - 1))
        table[p] = tuple(sorted(rng.sample(range(p), k)))
    return SievingSystem("table", table=table)


def splitmix_word(key: int, i: int, t: int) -> int:
    """The 53-bit word of rng at counter (i, t), in Python ints: the top
    bits of the SplitMix64 finalizer of key + gamma (i 2^24 + t)."""
    mask = (1 << 64) - 1
    z = (key + 0x9E3779B97F4A7C15 * ((i << 24) + t)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) >> 11


def random_shift(system: SievingSystem, x: int,
                 rng: random.Random) -> ShiftVector:
    """A uniform shift over the active primes <= x from a test's own
    stream: rng.randrange(p) for each p in increasing order."""
    return ShiftVector({p: rng.randrange(p) for p in system.active_primes(x)})


def brute_members(system: SievingSystem, x: int, shift, lo: int, hi: int,
                  z: int = 1) -> list[int]:
    """Per-integer oracle for (S_{z,x} + b) on [lo, hi].

    n is allowed at p iff n mod p avoids (I_p + b_p) mod p; the per-prime
    allowed table is precomputed so the inner loop is a lookup.
    """
    tables, b = [], shift.entries
    for p in system.active_primes(x, z):
        allowed = bytearray([1]) * p
        for r in system.residues(p):
            allowed[(r + b.get(p, 0)) % p] = 0
        tables.append((p, bytes(allowed)))
    out = []
    for n in range(lo, hi + 1):
        if all(t[n % p] for p, t in tables):
            out.append(n)
    return out


def brute_verify_empty(system: SievingSystem, x: int, shift, lo: int,
                       hi: int, z: int = 1) -> bool:
    """Per-integer oracle for verify_empty: each n in [lo, hi] is tested
    against every active prime until one sieves it."""
    if lo > hi:
        return True
    primes = system.active_primes(x, z)
    tables = {p: set(system.residues(p)) for p in primes}
    offsets = {p: shift.entries.get(p, 0) for p in primes}
    for n in range(lo, hi + 1):
        sieved = False
        for p in primes:
            if (n - offsets[p]) % p in tables[p]:
                sieved = True
                break
        if not sieved:
            return False
    return True


def binomial_eval(poly, n: int) -> int:
    """f(n) = sum_j a_j C(n, j) in the binomial basis: the reference for
    IntPolynomial evaluation, sharing no code with its Horner rule."""
    def binom(m: int, k: int) -> int:
        return math.comb(m, k) if m >= 0 else \
            (-1) ** k * math.comb(-m + k - 1, k)
    return sum(a * binom(n, j) for j, a in enumerate(poly.binomial_coeffs))


def brute_roots(poly, p: int) -> tuple[int, ...]:
    """Evaluation oracle for I_p of a polynomial system: every class r
    mod p on which p divides every value of f.

    Up to max(d, 3), f = sum_j a_j C(n, j) has period p^m mod p, p^m the
    least power of p above d (Lucas: C(n, j) mod p has period p^m for
    j < p^m), so r is tested at every n = r mod p in [0, p^m).  Above,
    it evaluates d! f by Horner's rule over the whole of [0, p) in
    numpy; d! is invertible mod such p, so d! f and f have the same
    roots."""
    if p <= max(poly.degree, 3):
        period = p
        while period <= poly.degree:
            period *= p
        return tuple(r for r in range(p) if all(
            binomial_eval(poly, n) % p == 0 for n in range(r, period, p)))
    coeffs, _ = poly.scaled_standard_coeffs()
    ns = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * ns + c % p) % p
    return tuple(int(n) for n in np.flatnonzero(vals == 0))


def brute_gap(members: list[int], lo: int, hi: int):
    """Scan oracle for the largest gap between consecutive members."""
    if len(members) < 2:
        return hi - lo + 1, lo, True
    best, left = 0, members[0]
    for a, b in zip(members, members[1:]):
        if b - a > best:
            best, left = b - a, a
    return best, left, False
