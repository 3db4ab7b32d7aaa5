"""Counter-based random streams (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): every seeded draw is a pure function of a
64-bit key and a counter (i, t), and keys come from a master seed and a
label path via blake2b.  So results depend on neither execution order,
batching nor Python's string hashing, and any draw replays alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 0x5EED_5117_E6A9  # documented fixed default, not wall-clock

ATTEMPT_BITS = 24                # each i owns 2^24 counter positions t
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def derive_seed(master: int, *labels: object) -> int:
    """64-bit key of the stream named by `labels`."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(int(master)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(repr(lab).encode())
    return int.from_bytes(h.digest(), "big")


def _words(key: int, i, t) -> np.ndarray:
    """The top 53 bits of the SplitMix64 finalizer of key + gamma (i 2^24
    + t) mod 2^64, broadcast as uint64 arrays.  0 <= t < 2^24 and 0 <= i
    < 2^40 keep distinct counters apart."""
    ctr = (np.asarray(i, dtype=np.uint64) << np.uint64(ATTEMPT_BITS)) \
        + np.asarray(t, dtype=np.uint64)
    with np.errstate(over="ignore"):    # uint64 arithmetic wraps mod 2^64
        z = np.uint64(key) + np.uint64(GOLDEN_GAMMA) * ctr
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
        z = z ^ (z >> np.uint64(31))
    return z >> np.uint64(11)


def uniforms(key: int, i, t) -> np.ndarray:
    """Uniforms in [0, 1) at counters (i, t): the words over 2^53."""
    return _words(key, i, t).astype(np.float64) * 2.0 ** -53


def uniform_residues(key: int, p) -> np.ndarray:
    """b_p = floor(k p / 2^53) in int64 for each 1 <= p < 2^37 of the
    array p, k the word at counter (p, 0): 0 <= b_p < p, each residue
    within 2^-53 of probability 1/p.  Exact in uint64: k = k1 2^26 + k0,
    and k1 p 2^26 is split again at 2^53."""
    p = np.asarray(p, dtype=np.uint64)
    k = _words(key, p, 0)
    hi, lo = (k >> np.uint64(26)) * p, (k & np.uint64(2 ** 26 - 1)) * p
    rest = ((hi & np.uint64(2 ** 27 - 1)) << np.uint64(26)) + lo
    return ((hi >> np.uint64(27)) + (rest >> np.uint64(53))).astype(np.int64)
