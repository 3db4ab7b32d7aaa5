"""Shifted sifted sets over integer windows, and their largest gaps.

The shift b lives in Z/P(x)Z but is stored per-prime (a residue modulo
each relevant prime): P(x) has thousands of bits already at modest x,
so b is never materialized as one big integer except for explicit CRT
position queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSystemError, DomainError
from .systems import SievingSystem

MAX_WINDOW = 1 << 27     # one flag byte per integer: at most 128 MiB
CERTIFY_CHUNK = 1 << 16  # integers verify_empty holds at once


@dataclass
class ShiftVector:
    """A shift b mod P(x), stored as residues modulo each active prime.

    ``entries`` maps each prime p <= x with I_p nonempty to b mod p.
    Missing primes are treated as residue 0 by readers, so the zero
    shift is just an empty map.
    """

    entries: dict[int, int] = field(default_factory=dict)
    x: int = 0

    def residue(self, p: int) -> int:
        return self.entries.get(p, 0) % p

    def crt_value(self) -> tuple[int, int]:
        """(b mod P, P) as explicit integers, for position mapping only."""
        b, mod = 0, 1
        for p, r in sorted(self.entries.items()):
            # b' = b + mod * t with b' == r (mod p)
            t = (r - b) * pow(mod % p, -1, p) % p
            b += mod * t
            mod *= p
        return b, mod

    @classmethod
    def uniform(cls, system: SievingSystem, x: int,
                rng: random.Random) -> "ShiftVector":
        """Independent uniform residue for each active prime p <= x."""
        return cls({p: rng.randrange(p) for p in system.active_primes(x)}, x)


@dataclass
class SiftedWindow:
    """Membership bitmap of (S_{z,x} + b) over [lo, hi]."""

    lo: int
    hi: int
    bits: np.ndarray

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.bits) + self.lo

    def count(self) -> int:
        return int(self.bits.sum())

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


def sift(system: SievingSystem, x: int, shift: ShiftVector,
         lo: int, hi: int, z: int = 1) -> SiftedWindow:
    """Exact membership of (S_{z,x} + b) on [lo, hi] by strided marking.

    n is a member iff (n - b) mod p is not in I_p for every prime
    p in (z, x].
    """
    if lo > hi:
        raise DomainError(f"empty window [{lo}, {hi}]")
    if hi - lo + 1 > MAX_WINDOW:
        raise DomainError(f"window wider than {MAX_WINDOW}; chunk the request")
    if z >= x:
        raise DomainError(f"need z < x, got z={z}, x={x}")
    bits = np.ones(hi - lo + 1, dtype=bool)
    _strike(bits, lo, system, system.active_primes(x, z), shift)
    return SiftedWindow(lo, hi, bits)


def _strike(bits: np.ndarray, lo: int, system: SievingSystem,
            primes, shift: ShiftVector) -> None:
    """Clear bits[n - lo] for every n with (n - b) mod p in I_p, p in primes.

    The strided marker behind sift(); callers that already hold a window
    use it to sieve by further primes.
    """
    for p in primes:
        res = system.residues(p)
        if len(res) >= p:
            raise DegenerateSystemError(p)
        b = shift.residue(p)
        for r in res:
            bits[(b + r - lo) % p::p] = False


@dataclass
class GapResult:
    length: int
    left: int
    sentinel: bool = False  # fewer than two members: length is window width


def largest_gap(window: SiftedWindow) -> GapResult:
    """Max difference between consecutive members; first occurrence wins ties."""
    ms = window.members()
    if len(ms) < 2:
        return GapResult(window.width, window.lo, sentinel=True)
    diffs = np.diff(ms)
    i = int(np.argmax(diffs))
    return GapResult(int(diffs[i]), int(ms[i]))


def verify_empty(system: SievingSystem, x: int, shift: ShiftVector,
                 lo: int, hi: int, z: int = 1) -> bool:
    """True iff (S_{z,x} + b) has no member in [lo, hi].

    Independent of sift(): keeps the integers not yet sieved in an array
    and, prime by prime, drops each n whose m = (n - b_p) mod p lies in
    I_p, found by binary search in the sorted tuple residues(p).  So it
    certifies a constructed gap without sharing code with the strided
    marker, and holds no table beyond the cached residue sets.  The
    window is certified CERTIFY_CHUNK integers at a time, so memory
    stays bounded for any width.
    """
    if lo > hi:
        return True
    primes = system.active_primes(x, z)
    for start in range(lo, hi + 1, CERTIFY_CHUNK):
        alive = np.arange(start, min(start + CERTIFY_CHUNK - 1, hi) + 1,
                          dtype=np.int64)
        for p in primes:
            res = np.array(system.residues(p))
            m = (alive - shift.residue(p)) % p
            alive = alive[res.take(np.searchsorted(res, m), mode="clip") != m]
            if not alive.size:
                break
        if alive.size:
            return False
    return True
