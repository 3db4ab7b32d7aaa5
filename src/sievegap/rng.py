"""Seeded substream derivation for reproducible randomized runs.

Child streams are derived from a 64-bit master seed plus a label path
via blake2b, so results do not depend on execution order or thread
count, and never on Python's randomized string hashing.

Covering rounds draw from counter-based streams instead (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): ``uniforms(key,
i, t)`` is a pure function of a 64-bit key and the counter (i, t), so a
whole round of indices is drawn as arrays while any single draw can be
replayed on its own.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

DEFAULT_SEED = 0x5EED_5117_E6A9  # documented fixed default, not wall-clock

ATTEMPT_BITS = 24                # each i owns 2^24 counter positions t
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def derive_seed(master: int, *labels: object) -> int:
    """64-bit child seed for the substream named by `labels`."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(int(master)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(repr(lab).encode())
    return int.from_bytes(h.digest(), "big")


def substream(master: int, *labels: object) -> random.Random:
    return random.Random(derive_seed(master, *labels))


def uniforms(key: int, i, t) -> np.ndarray:
    """53-bit uniforms in [0, 1) at counters (i, t), broadcast as arrays.

    The value is the SplitMix64 finalizer of key + gamma (i 2^24 + t)
    mod 2^64, top 53 bits over 2^53.  Needs 0 <= t < 2^24 and
    0 <= i < 2^40 so that distinct counters never collide.
    """
    ctr = (np.asarray(i, dtype=np.uint64) << np.uint64(ATTEMPT_BITS)) \
        + np.asarray(t, dtype=np.uint64)
    with np.errstate(over="ignore"):    # uint64 arithmetic wraps mod 2^64
        z = np.uint64(key) + np.uint64(GOLDEN_GAMMA) * ctr
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
