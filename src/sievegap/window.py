"""Shifted sifted sets over integer windows, and their largest gaps.

The shift b lives in Z/P(x)Z but is stored per-prime (a residue modulo
each relevant prime): P(x) has thousands of bits already at modest x,
so b is never materialized as one big integer except for explicit CRT
position queries.  `ShiftVector` holds the primes it fixes as one sorted
int64 array and their residues as another, so that reading b at every
class of a class table is one `searchsorted`, and the stages set
residues by merging arrays instead of building dicts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from numpy.typing import ArrayLike

from .errors import DegenerateSystemError, DomainError
from .rng import uniform_residues
from .systems import SievingSystem

MAX_WINDOW = 1 << 27     # one flag byte per integer: at most 128 MiB
CERTIFY_CHUNK = 1 << 16  # integers verify_empty certifies at once
CERTIFY_BATCH = 1 << 16  # candidate witnesses verify_empty holds at once


class ShiftVector:
    """A shift b mod P(x), stored as residues modulo the primes it fixes.

    ``p`` holds those primes in increasing order and ``b`` their residues,
    0 <= b < p, both int64.  A prime the shift does not fix reads residue
    0, so the zero shift fixes no prime.  The constructor takes a mapping
    from primes to any integer residue and reduces each modulo its prime.
    """

    __slots__ = ("p", "b")

    def __init__(self, residues: Mapping[int, int] | None = None):
        primes = sorted(residues or {})
        self.p = np.array(primes, dtype=np.int64)
        self.b = np.array([residues[q] % q for q in primes], dtype=np.int64)

    @classmethod
    def _of(cls, p: np.ndarray, b: np.ndarray) -> "ShiftVector":
        out = cls.__new__(cls)
        out.p, out.b = p, b
        return out

    @property
    def entries(self) -> Mapping[int, int]:
        """A read-only {p: b_p} view of the shift."""
        return MappingProxyType(dict(zip(self.p.tolist(), self.b.tolist())))

    def fixes(self, p: np.ndarray) -> np.ndarray:
        """Whether the shift fixes a residue at each prime of p."""
        return _locate(self.p, p)[1]

    def at(self, p: np.ndarray) -> np.ndarray:
        """b mod p for each entry of the int64 prime array p."""
        i, hit = _locate(self.p, p)
        out = np.zeros(i.shape, dtype=np.int64)
        out[hit] = self.b[i[hit]]
        return out

    def with_residues(self, p: ArrayLike, b: ArrayLike) -> "ShiftVector":
        """The shift with b_q = b mod q at each prime q of p, replacing any
        residue it held at q; p holds distinct primes in any order."""
        p = np.asarray(p, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64) % p
        keep = ~_locate(np.sort(p), self.p)[1]
        ps = np.concatenate((self.p[keep], p))
        order = np.argsort(ps, kind="stable")
        return ShiftVector._of(ps[order],
                               np.concatenate((self.b[keep], b))[order])

    def crt_value(self) -> tuple[int, int]:
        """(b mod P, P) as explicit integers, for position mapping only."""
        b, mod = 0, 1
        for p, r in zip(self.p.tolist(), self.b.tolist()):
            # b' = b + mod * t with b' == r (mod p)
            t = (r - b) * pow(mod % p, -1, p) % p
            b += mod * t
            mod *= p
        return b, mod

    @classmethod
    def uniform(cls, system: SievingSystem, x: int,
                key: int) -> "ShiftVector":
        """b_p = rng.uniform_residues(key, p) at each active prime p <= x:
        the shift at x is the restriction of the shift at any larger x."""
        p = system.least_classes(x)[0]
        return cls._of(p, uniform_residues(key, p))


def _locate(keys: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each prime of p, a position in the increasing array keys, and
    whether keys holds that prime there."""
    i = np.searchsorted(keys, p)
    if not len(keys):
        return i, np.zeros(i.shape, dtype=bool)
    i = np.minimum(i, len(keys) - 1)
    return i, keys[i] == p


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
    p in (z, x].  The bounds must lie in [-2^62, 2^62], where every
    offset the marker forms fits in int64.
    """
    if lo > hi:
        raise DomainError(f"empty window [{lo}, {hi}]")
    if not -(1 << 62) <= lo <= hi <= 1 << 62:
        raise DomainError(
            f"window bounds must lie in [-2^62, 2^62], got [{lo}, {hi}]")
    if hi - lo + 1 > MAX_WINDOW:
        raise DomainError(f"window wider than {MAX_WINDOW}; chunk the request")
    if z >= x:
        raise DomainError(f"need z < x, got z={z}, x={x}")
    bits = np.ones(hi - lo + 1, dtype=bool)
    _strike(bits, lo, *system.classes(x, z), shift)
    return SiftedWindow(lo, hi, bits)


def _strike(bits: np.ndarray, lo: int, p: np.ndarray, r: np.ndarray,
            shift: ShiftVector) -> None:
    """Clear bits[n - lo] for every n with (n - b_p) mod p = r, over the
    classes (p, r) sorted by p and then r.

    The strided marker behind sift(); callers that already hold a window
    use it to sieve by further classes.  A degenerate prime's p classes
    end in r = p - 1, p - 1 places after r = 0.
    """
    for i in np.flatnonzero(r == p - 1).tolist():
        if i >= r[i] and p[i - r[i]] == p[i]:
            raise DegenerateSystemError(int(p[i]))
    for q, s in zip(p.tolist(), ((shift.at(p) + r - lo) % p).tolist()):
        bits[s::q] = False


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

    Certifies by witnesses over the classes (p, r), r in I_p, with b_p
    gathered per class.  For each chunk of CERTIFY_CHUNK integers, the
    integers of the chunk in each class are enumerated in one vectorised
    step, and a candidate n counts as sieved only if it lies in the
    chunk and (n - b_p) mod p == r holds on n itself.  The chunk is
    certified when the accepted witnesses cover it.  A faulty
    enumeration can therefore only leave integers uncovered, turning
    True into False but never the reverse, and the certifier shares no
    code with the strided marker behind sift().  Classes are taken in
    slices of at most CERTIFY_BATCH candidates, so memory stays bounded
    for any width and any table system.
    """
    if lo > hi:
        return True
    p, r = system.classes(x, z)
    b = shift.at(p)
    for start in range(lo, hi + 1, CERTIFY_CHUNK):
        end = min(start + CERTIFY_CHUNK - 1, hi)
        if not _witnesses_cover(p, r, b, start, end):
            return False
    return True


def _witnesses_cover(p: np.ndarray, r: np.ndarray, b: np.ndarray,
                     start: int, end: int) -> bool:
    """Whether the checked members of the classes (p, r) shifted by b
    cover every integer of [start, end]."""
    first = start + (b + r - start) % p
    counts = (end - first) // p + 1          # 0 when first > end
    ends = np.cumsum(counts)
    covered = np.zeros(end - start + 1, dtype=bool)
    i = 0
    while i < len(p):
        j = max(int(np.searchsorted(ends, ends[i] - counts[i]
                                    + CERTIFY_BATCH, "right")), i + 1)
        c = counts[i:j]
        cls = np.repeat(np.arange(i, j), c)
        step = np.arange(len(cls)) - np.repeat(np.cumsum(c) - c, c)
        n = first[cls] + step * p[cls]
        ok = (n >= start) & (n <= end) & ((n - b[cls]) % p[cls] == r[cls])
        covered[n[ok] - start] = True
        i = j
    return bool(covered.all())
