"""Counter-based streams: the residue draw against a Python-int oracle,
and stage-1 and stage-3 residues replayed one prime at a time."""

import numpy as np
from conftest import splitmix_word

from sievegap.construction import construct, derive_params, trivial_baseline
from sievegap.primes import primes_upto
from sievegap.rng import derive_seed, uniform_residues
from sievegap.systems import eratosthenes
from sievegap.window import ShiftVector

ERA = eratosthenes()
KEYS = (0, 1, derive_seed(7, "stage1"), (1 << 64) - 1)


def residue_reference(key: int, p: int) -> int:
    """floor(k p / 2^53) for the word k at counter (p, 0)."""
    return splitmix_word(key, p, 0) * p >> 53


def test_residues_equal_the_python_oracle_at_the_edges():
    """p = 1, 2, 3, 2^31 - 1 and the largest p the split product allows;
    test_cover checks uniforms at the counter edges against the same
    SplitMix64 oracle."""
    ps = [1, 2, 3, 5, 7919, (1 << 31) - 1, (1 << 37) - 1]
    for key in KEYS:
        got = uniform_residues(key, ps)
        assert got.dtype == np.int64
        assert got.tolist() == [residue_reference(key, p) for p in ps]
        assert got[0] == 0 and all(0 <= b < p for b, p in zip(got, ps))
        assert uniform_residues(key, 7919) == residue_reference(key, 7919)


def test_residues_equal_the_oracle_on_every_prime_below_1e5():
    ps = primes_upto(10 ** 5)
    for key in KEYS:
        assert uniform_residues(key, ps).tolist() == \
            [residue_reference(key, p) for p in ps.tolist()]


def test_residues_chi_square():
    """b_p / p over the primes below 10^6 in ten equal bins: far inside
    chi-square's 10^-6 tail (9 degrees of freedom: 44.8)."""
    ps = primes_upto(10 ** 6)
    b = uniform_residues(derive_seed(3, "stage1"), ps)
    counts = np.bincount(b * 10 // ps, minlength=10)
    expect = len(ps) / 10
    assert ((counts - expect) ** 2 / expect).sum() < 44.8


def test_shift_is_the_restriction_of_a_larger_shift():
    key = derive_seed(5, "stage1")
    small = ShiftVector.uniform(ERA, 100, key).entries
    large = ShiftVector.uniform(ERA, 1000, key).entries
    assert small == {p: b for p, b in large.items() if p <= 100}
    assert list(small) == ERA.active_primes(100)


def test_stage1_and_stage3_residues_replay_one_prime_at_a_time():
    """Without stage 2, construct keeps the stage-1 residue at each prime
    <= z_eff; the baseline's stage 3 leaves most primes of (x/2, x]
    unmatched, each with its draw from the stage-3 key.  Each replays
    alone from (seed, label, p)."""
    seed = 11
    params = derive_params(ERA, 10_000)
    assert params.degraded
    b = construct(ERA, params, seed).shift.entries
    p = ERA.active_primes(params.z_eff)[17]
    assert b[p] == residue_reference(derive_seed(seed, "stage1"), p)
    base = trivial_baseline(ERA, 10_000, seed)
    free = ERA.active_primes(10_000, 5_000)[base.matched:]
    assert len(free) > 100
    key = derive_seed(seed, "stage3")
    assert [base.shift.entries[q] for q in free] == \
        [residue_reference(key, q) for q in free]
