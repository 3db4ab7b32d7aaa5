"""Shifted sifted-set windows, gaps, and gap certification."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (brute_gap, brute_members, brute_verify_empty,
                      random_shift, random_table_system)

from sievegap import window
from sievegap.construction import construct, derive_params
from sievegap.errors import DomainError
from sievegap.primes import primes_upto
from sievegap.rng import derive_seed
from sievegap.systems import (SievingSystem, eratosthenes, period,
                              polynomial_system, sigma)
from sievegap.window import (CERTIFY_CHUNK, MAX_WINDOW, ShiftVector,
                             largest_gap, sift, verify_empty)

ERA = eratosthenes()


# ---------------------------------------------------------------------------
# ShiftVector


def test_shift_vector_residue_default_zero():
    b = ShiftVector({5: 3})
    assert b.entries.get(5, 0) == 3
    assert b.entries.get(7, 0) == 0
    assert b.at(np.array([5, 7])).tolist() == [3, 0]
    assert ShiftVector().at(np.array([2, 3])).tolist() == [0, 0]


def test_shift_vector_lookups_match_dict_oracle():
    """at, fixes and with_residues against a dict {p: b_p} on random
    shifts: the empty shift, absent primes, overridden primes and primes
    added past the largest fixed one, given in any order."""
    rng = random.Random(30)
    primes = [int(p) for p in primes_upto(400)]
    for trial in range(200):
        held = rng.sample(primes[:60], rng.randint(0, 40)) if trial else []
        d = {p: rng.randrange(p) for p in held}
        b = ShiftVector(d)
        assert list(b.p) == sorted(d) and b.entries == d
        ask = np.array(rng.sample(primes, rng.randint(0, 60)),
                       dtype=np.int64)
        assert b.at(ask).tolist() == [d.get(p, 0) for p in ask.tolist()]
        assert b.fixes(ask).tolist() == [p in d for p in ask.tolist()]
        top = max(held, default=2)
        new = rng.sample(held, len(held) // 3) + rng.sample(
            [p for p in primes if p > top], rng.randint(0, 5))
        rng.shuffle(new)
        r = [rng.randrange(-10 ** 6, 10 ** 6) for _ in new]
        merged = b.with_residues(np.array(new, dtype=np.int64), r)
        assert merged.entries == {**d, **{p: v % p for p, v in zip(new, r)}}
        assert list(merged.p) == sorted(merged.entries)
        assert b.entries == d                       # b itself is unchanged


def test_shift_vector_constructor_reduces_and_entries_round_trip():
    b = ShiftVector({7: 7 + 3, 5: -1, 3: 2 ** 64 + 1, 2: 2 ** 63})
    assert b.entries == {2: 0, 3: (2 ** 64 + 1) % 3, 5: 4, 7: 3}
    assert b.p.dtype == b.b.dtype == np.int64
    assert ShiftVector(b.entries).entries == b.entries
    assert ShiftVector().entries == {} and len(ShiftVector({}).p) == 0
    with pytest.raises(TypeError):
        b.entries[2] = 1                            # a read-only view


def test_shift_vector_crt_value_consistent():
    rng = random.Random(3)
    for _ in range(20):
        entries = {p: rng.randrange(p) for p in (2, 3, 5, 7, 11)}
        b, mod = ShiftVector(entries).crt_value()
        assert mod == 2 * 3 * 5 * 7 * 11
        for p, r in entries.items():
            assert b % p == r


def test_shift_vector_uniform_in_range():
    b = ShiftVector.uniform(ERA, 50, derive_seed(0, "stage1"))
    assert set(b.entries) == set(ERA.active_primes(50))
    assert all(0 <= r < p for p, r in b.entries.items())


# ---------------------------------------------------------------------------
# sift


def test_sift_eratosthenes_fixture():
    win = sift(ERA, 5, ShiftVector({}), 1, 30)
    assert list(win.members()) == [1, 7, 11, 13, 17, 19, 23, 29]


def test_sift_periodicity():
    rng = random.Random(41)
    for _ in range(5):
        sys_ = random_table_system(rng, prime_cap=13)
        x = 13
        P = period(sys_, x)
        b = random_shift(sys_, x, rng)
        win = sift(sys_, x, b, 1, 2 * P)
        assert np.array_equal(win.bits[:P], win.bits[P:])


def test_sift_monotone_in_cutoff():
    rng = random.Random(42)
    b = random_shift(ERA, 50, rng)
    small = set(sift(ERA, 20, b, 1, 500).members())
    large = set(sift(ERA, 50, b, 1, 500).members())
    assert large <= small


def test_sift_member_count_identity_over_period():
    rng = random.Random(17)
    for _ in range(10):
        sys_ = random_table_system(rng, prime_cap=13)
        x = 13
        P = period(sys_, x)
        if P > 1_000_000:
            continue
        count = sift(sys_, x, ShiftVector({}), 1, P).count()
        assert Fraction(count, P) == sigma(sys_, 1, x, exact=True)


def test_sift_matches_bruteforce_random_systems():
    rng = random.Random(2024)
    for _ in range(20):
        sys_ = random_table_system(rng)
        if any(len(sys_.residues(p)) >= p for p in sys_.active_primes(50)):
            continue
        b = random_shift(sys_, 50, rng)
        z = rng.choice([1, 1, 7])
        win = sift(sys_, 50, b, -100, 400, z=z)
        assert list(win.members()) == brute_members(sys_, 50, b, -100, 400, z)


def test_sift_rejects_bad_arguments():
    with pytest.raises(DomainError):
        sift(ERA, 5, ShiftVector({}), 10, 5)
    with pytest.raises(DomainError):
        sift(ERA, 5, ShiftVector({}), 1, 10, z=5)
    with pytest.raises(DomainError):
        sift(ERA, 5, ShiftVector({}), 1, MAX_WINDOW + 2)
    with pytest.raises(DomainError):          # a 128 MiB flag array at most
        sift(ERA, 5, ShiftVector({}), 1, 2 ** 27 + 1)


def test_sift_degenerate_prime_errors():
    sys_ = SievingSystem("table", table={2: (0, 1)})
    with pytest.raises(Exception, match="2"):
        sift(sys_, 2, ShiftVector({}), 1, 10)


# ---------------------------------------------------------------------------
# largest_gap


def test_largest_gap_fixtures():
    win = sift(ERA, 5, ShiftVector({}), 1, 31)
    gap = largest_gap(win)
    assert (gap.length, gap.left, gap.sentinel) == (6, 1, False)

    win = sift(ERA, 3, ShiftVector({}), 1, 13)
    assert largest_gap(win).length == 4


def test_largest_gap_all_members():
    empty_sys = SievingSystem("table", table={})
    win = sift(empty_sys, 10, ShiftVector({}), 1, 10)
    assert win.count() == 10
    assert largest_gap(win).length == 1


def test_largest_gap_sentinel():
    win = sift(ERA, 5, ShiftVector({}), 2, 6)  # single member? check
    gap = largest_gap(win)
    if win.count() < 2:
        assert gap.sentinel and gap.length == win.width
    else:
        assert not gap.sentinel


def test_largest_gap_matches_scan_oracle():
    rng = random.Random(9)
    for _ in range(20):
        sys_ = random_table_system(rng)
        if any(len(sys_.residues(p)) >= p for p in sys_.active_primes(50)):
            continue
        b = random_shift(sys_, 50, rng)
        win = sift(sys_, 50, b, 1, 2000)
        length, left, sentinel = brute_gap(list(win.members()), 1, 2000)
        gap = largest_gap(win)
        assert (gap.length, gap.left, gap.sentinel) == (length, left, sentinel)


# ---------------------------------------------------------------------------
# verify_empty


def test_verify_empty_agrees_with_sift():
    rng = random.Random(77)
    for _ in range(20):
        sys_ = random_table_system(rng)
        if any(len(sys_.residues(p)) >= p for p in sys_.active_primes(50)):
            continue
        b = random_shift(sys_, 50, rng)
        lo = rng.randint(-50, 50)
        hi = lo + rng.randint(0, 60)
        assert verify_empty(sys_, 50, b, lo, hi) == \
            (sift(sys_, 50, b, lo, hi).count() == 0)


def test_verify_empty_edge_cases():
    assert verify_empty(ERA, 5, ShiftVector({}), 10, 5)  # lo > hi
    # window containing the member 7 of S_5
    assert not verify_empty(ERA, 5, ShiftVector({}), 6, 8)
    # shift b = 1 per prime empties [2, 4]: members of S_5+1 near 2..4
    b1 = ShiftVector({2: 1, 3: 1, 5: 1})
    members = set(sift(ERA, 5, b1, 1, 10).members())
    lo = min(m for m in range(1, 8) if m not in members)
    assert verify_empty(ERA, 5, b1, lo, lo)


@pytest.mark.parametrize("chunk", [1, 7, 64, CERTIFY_CHUNK])
def test_verify_empty_matches_brute_oracle(chunk, monkeypatch):
    """Random table systems, some with a degenerate prime, and n^3 - n,
    at z = 1 and z > 1: random windows (negative lo, lo > hi), the
    inside of the largest gap, and that gap with its right-hand member,
    near 0 and near -10^9 and 10^9, with chunk sizes that split each
    window several times."""
    monkeypatch.setattr(window, "CERTIFY_CHUNK", chunk)
    rng = random.Random(505)
    outcomes = set()

    def check(sys_, x, z):
        b = random_shift(sys_, x, rng)
        windows = []
        for base in (0, -10 ** 9, 10 ** 9):
            lo = base + rng.randint(-300, 300)
            windows += [(lo, lo + rng.randint(0, 200)), (lo, lo - 1)]
            members = brute_members(sys_, x, b, base - 400, base + 2000, z)
            if len(members) >= 2:
                gap, left, _ = brute_gap(members, base - 400, base + 2000)
                windows += [(left + 1, left + gap - 1),
                            (left + 1, left + gap)]
        for lo, hi in windows:
            expect = brute_verify_empty(sys_, x, b, lo, hi, z)
            assert verify_empty(sys_, x, b, lo, hi, z) == expect
            outcomes.add(expect)

    for trial in range(40):
        sys_ = random_table_system(rng, prime_cap=rng.choice([13, 50]),
                                   max_classes=rng.choice([1, 3, 10]))
        if trial % 5 == 0:
            p = rng.choice([2, 3, 5, 7, 11, 13])
            sys_.table[p] = tuple(range(p))
        check(sys_, 50, rng.choice([1, 1, 3, 7]))
    # n^3 - n: |I_p| = 3 from p = 5 on, and every class at 2 and 3, so
    # z = 1 sieves every integer and z = 3 leaves the three-root primes
    cubic = polynomial_system("n^3-n")
    assert cubic.residues(5) == (0, 1, 4)
    assert cubic.residues(3) == (0, 1, 2)
    for z in (1, 3):
        check(cubic, 50, z)
    assert outcomes == {True, False}


def test_verify_empty_windows_wider_than_one_chunk():
    # a degenerate prime sieves every integer of every chunk
    full = SievingSystem("table", table={3: (0, 1, 2)})
    wide = 3 * CERTIFY_CHUNK + 5
    assert verify_empty(full, 3, ShiftVector({}), -7, wide)
    # one prime spares one class: the lone member in [1, p] lies in the
    # second chunk, and the first chunk alone is empty
    p = 2 * CERTIFY_CHUNK + 29                      # 131101 is prime
    lone = SievingSystem("table", table={p: tuple(range(1, p))})
    b = ShiftVector({p: CERTIFY_CHUNK + 100})
    assert not verify_empty(lone, p, b, 1, p)
    assert verify_empty(lone, p, b, 1, CERTIFY_CHUNK + 99)
    assert not verify_empty(lone, p, b, CERTIFY_CHUNK + 100, p)


def test_verify_empty_holds_no_per_prime_table():
    """Certifying a default construct's gap at x = 3*10^4 allocates a few
    chunk-sized arrays, not a length-p table for each of its 3245 primes
    (about 45 MB)."""
    x = 30_000
    built = construct(ERA, derive_params(ERA, x), seed=0)
    tracemalloc.start()
    try:
        assert verify_empty(ERA, x, built.shift, 1, built.length)
        assert not verify_empty(ERA, x, built.shift, 1, built.length + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MB"


def test_verify_empty_batches_candidates():
    """|I_p| = (p - 1)/2 at every prime <= 2000 puts about 10^7 candidate
    witnesses in each 2^16-integer chunk (over 400 MB if held at once);
    slices of CERTIFY_BATCH keep the peak to the flattened classes and
    one slice."""
    rng = random.Random(8)
    table = {p: tuple(rng.sample(range(p), (p - 1) // 2))
             for p in map(int, primes_upto(2000))}
    half = SievingSystem("table", table=table)
    b = random_shift(half, 2000, rng)
    tracemalloc.start()
    try:
        assert verify_empty(half, 2000, b, -CERTIFY_CHUNK,
                            2 * CERTIFY_CHUNK - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peak {peak / 2**20:.1f} MB"
