"""Three-stage randomized gap construction and the trivial baseline."""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import brute_members, random_shift, random_table_system

from sievegap.construction import (CUM_BLOCK, CUM_CHUNK, DEFAULT_M, Params,
                                   WeightTable, _survivors_above,
                                   apply_stage2, build_weight_tables,
                                   construct, derive_params, stage2_select,
                                   stage3_cleanup, trivial_baseline,
                                   weight_lut)
from sievegap.errors import DomainError, EnumerationLimitError
from sievegap.primes import primes_in_range
from sievegap.rng import derive_seed, uniforms
from sievegap.systems import (SievingSystem, eratosthenes, polynomial_system,
                              sigma)
from sievegap.window import ShiftVector, sift, verify_empty

ERA = eratosthenes()


# ---------------------------------------------------------------------------
# per-integer oracles for the stage-2 weights


def compute_AP(system, stage1_shift, H, q, n, J, M=DEFAULT_M):
    """{n + q h : 1 <= h <= J} intersected with S1 = S_{H^M} + b1."""
    if J < 1:
        return []
    s1 = set(brute_members(system, H ** M, stage1_shift, n + q, n + q * J))
    return [n + q * h for h in range(1, J + 1) if n + q * h in s1]


def oracle_sigma2(system, H, M, z):
    """The density product over the primes in (H^M, z], 1 if none."""
    HM = H ** M
    return float(sigma(system, HM, z)) if HM < z else 1.0


def weight_lambda(system, stage1_shift, H, q, n, *, M, K, z):
    """sigma2^{-|AP(KH; q, n)|} if the AP survives the (H^M, z] sieve, else 0."""
    HM = H ** M
    sigma2 = oracle_sigma2(system, H, M, z)
    ap = compute_AP(system, stage1_shift, H, q, n, int(K * H), M=M)
    if ap:
        mid = set(brute_members(system, z, stage1_shift, ap[0], ap[-1], z=HM))
        if not mid.issuperset(ap):
            return 0.0
    return sigma2 ** -len(ap)


def gather_weight_tables(system, params, stage1_shift, H):
    """The (K+1)y x J fancy-index gather that build_weight_tables replaced:
    every AP member is looked up in the window bitmaps, one q at a time."""
    K, y, M, z = params.K, params.y, params.M, params.z_eff
    HM = H ** M
    J = int(K * H)
    qs = params.Q[H]
    n_lo, n_hi = -K * y + 1, y
    lo_all = n_lo + min(qs)
    hi_all = n_hi + max(qs) * J
    s1 = sift(system, HM, stage1_shift, lo_all, hi_all) if \
        system.active_primes(HM) else None
    s2 = sift(system, z, stage1_shift, lo_all, hi_all, z=HM) if \
        system.active_primes(z, HM) else None
    sigma2 = oracle_sigma2(system, H, M, z)
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    hs = np.arange(1, J + 1, dtype=np.int64)
    out = {}
    for q in qs:
        pos = ns[:, None] + q * hs[None, :]
        in_s1 = s1.bits[pos - lo_all] if s1 is not None else \
            np.ones(pos.shape, dtype=bool)
        in_s2 = s2.bits[pos - lo_all] if s2 is not None else \
            np.ones(pos.shape, dtype=bool)
        ap_sizes = in_s1.sum(axis=1)
        bad = (in_s1 & ~in_s2).any(axis=1)
        vals = sigma2 ** (-ap_sizes.astype(float))
        vals[bad] = 0.0
        out[q] = float_table(H, q, n_lo, vals)
    return out


def float_table(H, q, n_lo, vals):
    """A WeightTable holding an arbitrary float table: cell k has the code
    k, and the lookup table is the floats themselves."""
    return WeightTable(H=H, q=q, n_lo=n_lo, codes=np.arange(len(vals)),
                       lut=vals, buf=np.empty(len(vals) + 1))


def values(tab):
    """lambda per cell of a WeightTable, expanded from its codes."""
    return tab.lut[tab.codes]


def whole_table_starts(vals):
    """The running sums before each CUM_BLOCK-cell block, from one
    np.cumsum over the whole table."""
    return np.r_[0.0, np.cumsum(vals)[CUM_BLOCK - 1::CUM_BLOCK]]


def small_params(system=ERA, **overrides) -> Params:
    """A hand-built desk instance: H=2, H^M ~ 24.3, q=29; sigma2 is the
    oracle's for ``system`` unless given."""
    kw = dict(x=100, delta=0.1, M=4.6, K=3, xi=1.1, y=60, z=30, z_eff=30,
              scales=[2.0], Q={2.0: [29]}, degraded=False, rho_hat=1.0)
    kw.update(overrides)
    kw.setdefault("sigma2", {H: oracle_sigma2(system, H, kw["M"], kw["z_eff"])
                             for H in kw["Q"]})
    return Params(**kw)


def stage1_members(system, params, b):
    """The sorted members of [1, y] that the stage-1 shift b leaves."""
    return sift(system, params.z_eff, b, 1, params.y).members()


# ---------------------------------------------------------------------------
# derive_params


def test_derive_params_formulas():
    p = derive_params(ERA, 10_000, delta=0.2)
    lx = math.log(10_000)
    assert p.y == math.ceil(10_000 * lx ** 0.2)
    assert p.y == 15_591
    assert p.z == round(p.y * math.log(lx) / math.sqrt(lx))
    assert p.z_eff == min(p.z, 5_000)


def test_derive_params_scales_are_xi_powers_in_range():
    p = derive_params(ERA, 3_000, delta=0.001, force_z=200)
    lo, hi = 2 * p.y / p.x, p.y / (p.xi * p.z)
    for H in p.scales:
        assert lo - 1e-9 <= H <= hi + 1e-9
        j = math.log(H) / math.log(p.xi)
        assert abs(j - round(j)) < 1e-6


def test_derive_params_q_family_invariants():
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    qs = p.Q[3.0]
    assert qs, "expected a nonempty prime family at H=3"
    for q in qs:
        assert p.y / (p.xi * 3.0) < q <= p.y / 3.0
        # identity-(iii) domain requirement
        assert q * p.K * 3.0 <= p.K * p.y
    cap = max(1, round(p.rho_hat * (1 - 1 / p.xi) * p.y
                       / (3.0 * math.log(p.x))))
    assert len(qs) <= cap


def test_derive_params_degraded_at_small_x():
    for x in (100, 200, 300):
        p = derive_params(ERA, x)
        assert p.degraded
        assert p.scales == []


def test_derive_params_validation():
    with pytest.raises(DomainError):
        derive_params(ERA, 50)
    with pytest.raises(DomainError):
        derive_params(ERA, 1000, delta=0.7)          # M <= 4 + delta


def test_derive_params_rejects_forced_scale_below_one():
    """H < 1 puts H^M below 1, where no stage-2 density is defined; the
    error names the scale rather than the density's bounds."""
    for H in (0.5, 0.1):
        with pytest.raises(DomainError, match=str(H)):
            derive_params(ERA, 150, force_scales=[2.0, H])


def test_derive_params_sigma2_per_scale():
    """sigma2[H] is the density over (H^M, z_eff] for each scale in Q,
    and 1 when H^M >= z_eff; it stays out of the report."""
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[2.0, 3.0, 4.0])
    assert set(p.sigma2) == set(p.Q)
    for H in p.Q:
        assert p.sigma2[H] == oracle_sigma2(ERA, H, p.M, p.z_eff)
    assert p.sigma2[4.0] == 1.0 < 4.0 ** p.M / p.z_eff
    assert "sigma2" not in p.to_dict()


def test_derive_params_warns_on_large_delta():
    p = derive_params(ERA, 1000, delta=0.4)
    assert any("threshold" in w for w in p.warnings)


# ---------------------------------------------------------------------------
# stage 1


def test_stage1_deterministic():
    a = ShiftVector.uniform(ERA, 50, derive_seed(123, "stage1"))
    b = ShiftVector.uniform(ERA, 50, derive_seed(123, "stage1"))
    assert a.entries == b.entries
    assert set(a.entries) == set(ERA.active_primes(50))
    assert all(0 <= r < p for p, r in a.entries.items())


def test_stage1_mod2_split():
    ones = sum(ShiftVector.uniform(ERA, 10, derive_seed(7, "s", t)).entries[2]
               for t in range(10_000))
    assert abs(ones / 10_000 - 0.5) < 0.03


# ---------------------------------------------------------------------------
# AP sets and weights


def test_compute_ap_empty_cases():
    b = ShiftVector({})
    assert compute_AP(ERA, b, 2.0, 29, 5, 0) == []


def test_compute_ap_matches_bruteforce():
    rng = random.Random(12)
    for _ in range(20):
        b = random_shift(ERA, 24, rng)
        bp = b.entries
        q, n, J, H = 29, rng.randint(-50, 50), 6, 2.0
        HM = H ** 4.6
        expect = []
        for h in range(1, J + 1):
            m = n + q * h
            if all((m - bp.get(p, 0)) % p != 0
                   for p in ERA.active_primes(HM)):
                expect.append(m)
        assert compute_AP(ERA, b, H, q, n, J) == expect


def test_weight_lambda_definition():
    rng = random.Random(5)
    p = small_params()
    HM = 2.0 ** p.M
    sigma2 = float(sigma(ERA, HM, p.z_eff))
    for _ in range(30):
        b = random_shift(ERA, p.z_eff, rng)
        bp = b.entries
        n = rng.randint(-p.K * p.y + 1, p.y)
        ap = compute_AP(ERA, b, 2.0, 29, n, int(p.K * 2.0), M=p.M)
        in_s2 = all(
            all((m - bp.get(pp, 0)) % pp != 0
                for pp in ERA.active_primes(p.z_eff, HM))
            for m in ap)
        expect = sigma2 ** -len(ap) if in_s2 else 0.0
        got = weight_lambda(ERA, b, 2.0, 29, n, M=p.M, K=p.K, z=p.z_eff)
        assert got == pytest.approx(expect, rel=1e-12)


def test_build_weight_tables_matches_pointwise():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(1, "stage1"))
    tables = build_weight_tables(ERA, p, b, 2.0)
    tab = tables[29]
    for k in range(0, len(values(tab)), 17):
        n = tab.n_lo + k
        assert values(tab)[k] == pytest.approx(
            weight_lambda(ERA, b, 2.0, 29, n, M=p.M, K=p.K, z=p.z_eff),
            rel=1e-12)
    assert tab.total == float(values(tab).sum())


def test_build_weight_tables_matches_gather_oracle():
    """Bit for bit: the same values, block sums and totals as the gather,
    on derived Eratosthenes instances and random table systems.  H = 5 and
    5.4 give J = 15 and 16, on either side of J (J + 2) = 256, where the
    packed slice sums outgrow a uint8."""
    cases = [(ERA, derive_params(ERA, 2_950, force_scales=[2.0, 3.0]),
              seed) for seed in (1, 2)]
    cases.append((ERA, derive_params(ERA, 5_000, force_scales=[5.0, 5.4]), 3))
    assert [np.min_scalar_type(J * (J + 2)) for J in (15, 16)] == \
        [np.uint8, np.uint16]
    rng = random.Random(61)
    while len(cases) < 9:
        sys_ = random_table_system(rng, prime_cap=400, max_classes=2)
        qs = sys_.active_primes(29, 24)
        if not qs:
            continue
        z = rng.choice([20, 30, 200])               # H^M ~ 24.3 for H = 2
        cases.append((sys_, small_params(sys_, z=z, z_eff=z, Q={2.0: qs}),
                      len(cases)))
    for sys_, params, seed in cases:
        b = ShiftVector.uniform(sys_, params.z_eff, derive_seed(seed, "stage1"))
        for H in params.Q:
            got = build_weight_tables(sys_, params, b, H)
            want = gather_weight_tables(sys_, params, b, H)
            assert list(got) == list(want)
            for q, tab in want.items():
                assert got[q].codes.dtype == np.uint8
                assert np.array_equal(values(got[q]), values(tab))
                starts = got[q]._sum_to(np.inf)
                assert np.array_equal(starts, tab._sum_to(np.inf))
                assert np.array_equal(starts, whole_table_starts(values(tab)))
                assert got[q].total == tab.total


def test_build_weight_tables_int16_codes_past_uint8():
    """At H = 90, J = 270 and the rejection code 271 do not fit a uint8:
    the codes are int16 and expand to the float gather's values.  M is
    lowered so that H^M < z_eff and the (H^M, z] sieve rejects some cells
    but not all."""
    H, M = 90.0, 1.84
    p = derive_params(ERA, 10_000, force_scales=[H])
    p = dataclasses.replace(
        p, M=M, sigma2={H: oracle_sigma2(ERA, H, M, p.z_eff)})
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(3, "stage1"))
    got = build_weight_tables(ERA, p, b, H)
    want = gather_weight_tables(ERA, p, b, H)
    assert list(got) == list(want) == p.Q[H]
    for q, tab in want.items():
        codes = got[q].codes
        assert codes.dtype == np.int16
        assert 0 < np.count_nonzero(codes == int(p.K * H) + 1) < len(codes)
        assert np.array_equal(values(got[q]), values(tab))
        assert got[q].total == tab.total


def test_build_weight_tables_packed_sums_past_uint8():
    """At H = 5.4, J = 16 and a sum of J packed slices can exceed 255.
    The one prime p in (H^M, z] removes every class but n = 0 (mod p), so
    the AP ending at 0 has 15 failing members and one survivor, a sum of
    15 (J + 2) + 1 = 271 that a uint8 would wrap to the code 15."""
    H, p = 5.4, 2341                                 # H^M ~ 2339
    J = int(3 * H)
    sys_ = SievingSystem("table", table={p: tuple(range(1, p))})
    params = small_params(sys_, z=3000, z_eff=3000, scales=[H],
                          Q={H: [11, 13]})
    b = ShiftVector({p: 0})
    got = build_weight_tables(sys_, params, b, H)
    want = gather_weight_tables(sys_, params, b, H)
    for q, tab in want.items():
        assert got[q].codes.dtype == np.uint8
        assert np.array_equal(values(got[q]), values(tab))
        ends_at_0 = [-q * h - tab.n_lo for h in range(1, J + 1)]
        assert (got[q].codes[ends_at_0] == J + 1).all()


def test_build_weight_tables_totals_pinned():
    """Every total of criterion 06's instance for the first stage-1 draw of
    seed 606, bit for bit: identity ii sums these, and its report prints
    them to 12 digits only."""
    params = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                           force_scales=[3.0])
    # the stage-1 shift of the parent recipe, written out: one randrange
    # per active prime from a random.Random seeded as the "lam" stream
    rng = random.Random(derive_seed(606, "lam", 0))
    b = ShiftVector({p: rng.randrange(p)
                     for p in ERA.active_primes(params.z_eff)})
    tables = build_weight_tables(ERA, params, b, 3.0)
    assert {q: tab.total.hex() for q, tab in tables.items()} == {
        907: "0x1.72a0526a75a6cp+13", 911: "0x1.726876904c072p+13",
        919: "0x1.72aa6fd70d365p+13", 929: "0x1.72c21655b220dp+13",
        937: "0x1.7278d690a115ap+13", 941: "0x1.72b033cae13a5p+13",
        947: "0x1.72c0c8dfe1d8ep+13", 953: "0x1.7264cbb0a3b00p+13",
        967: "0x1.728caaeb2b1a5p+13", 971: "0x1.72bb18444816ep+13",
        977: "0x1.72a127ac4159ap+13", 983: "0x1.72ccc9848b2d2p+13"}


def test_weight_lut_equals_per_cell_power():
    """lut[k] is the float that the per-cell power sigma2 ** -k gives, bit
    for bit, over arrays as long as a table: a numpy whose vectorised
    power rounds by position or by lane would fail here."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        sigma2 = float(rng.uniform(0.2, 1.0))
        J = int(rng.integers(1, 300))
        lut = weight_lut(sigma2, J)
        codes = rng.integers(0, J + 1, size=4 * 1024 + int(rng.integers(64)))
        assert np.array_equal(lut[codes], sigma2 ** (-codes.astype(float)))
        assert lut[J + 1] == 0.0


def test_build_weight_tables_sieves_s1_no_higher_than_z(monkeypatch):
    """With H^M > z_eff the stage-1 shift has no residue above z_eff, so
    |AP| counts the AP members of sift(system, z_eff, b1, ...) and no
    prime above z_eff is sieved; sigma2 = 1 makes every weight 1."""
    from sievegap import construction
    calls = []

    def spy(system, x, shift, lo, hi, z=1):
        win = sift(system, x, shift, lo, hi, z)
        calls.append(((x, z), win))
        return win

    monkeypatch.setattr(construction, "sift", spy)
    H = 8.0                                          # H^M ~ 14,300
    p = small_params(z=40, z_eff=40, scales=[H], Q={H: [7]})
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(2, "stage1"))
    tab = build_weight_tables(ERA, p, b, H)[7]
    [(cutoffs, win)] = calls
    assert cutoffs == (p.z_eff, 1)
    assert list(win.members()) == brute_members(ERA, p.z_eff, b, win.lo,
                                                win.hi)
    assert np.array_equal(values(tab), np.ones((p.K + 1) * p.y))
    assert tab.total == (p.K + 1) * p.y


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_deterministic_and_supported():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(2, "stage1"))
    s1 = stage1_members(ERA, p, b)
    r1 = stage2_select(ERA, p, b, s1, seed=99)
    r2 = stage2_select(ERA, p, b, s1, seed=99)
    assert r1.chosen == r2.chosen
    tables = build_weight_tables(ERA, p, b, 2.0)
    for q, n in r1.chosen.items():
        assert values(tables[q])[n - tables[q].n_lo] > 0


def test_stage2_point_mass():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(3, "stage1"))
    tables = build_weight_tables(ERA, p, b, 2.0)
    tab = tables[29]
    k_star = int(np.argmax(values(tab)))
    point = np.zeros_like(values(tab))
    point[k_star] = 1.0
    tab = float_table(tab.H, tab.q, tab.n_lo, point)
    for t in range(20):
        assert tab.n_at(float(uniforms(derive_seed(5, "s"), t, 0))) == \
            tab.n_lo + k_star


def test_n_at_matches_whole_table_search():
    """A draw picks the cell that a search of the whole table's cumulative
    sum picks, also when it lands exactly on a running sum; the stored
    running sums, built CUM_CHUNK cells at a time, are the whole table's
    np.cumsum at every CUM_BLOCK-th cell, bit for bit."""
    rng = random.Random(8)
    for size in (1, 5, CUM_BLOCK - 1, CUM_BLOCK, CUM_BLOCK + 1,
                 3 * CUM_BLOCK, 1000, CUM_CHUNK - 1, CUM_CHUNK,
                 CUM_CHUNK + 1, 3 * CUM_CHUNK + 5):
        vals = np.array([rng.random() * (rng.random() < 0.6)
                         for _ in range(size)])
        vals[0] += 0.5
        tab = float_table(2.0, 29, -7, vals)
        assert np.array_equal(tab._sum_to(np.inf), whole_table_starts(vals))
        cum = np.cumsum(vals)
        us = [rng.random() for _ in range(100)] + [0.0] + \
            [c / tab.total for c in cum]
        want = []
        for u in us:
            k = int(np.searchsorted(cum, u * tab.total, side="right"))
            want.append(tab.n_lo + min(k, size - 1))
            assert tab.n_at(u) == want[-1]
        assert tab.n_at(np.array(us)).tolist() == want


def stored_starts(tab):
    """The running sums a WeightTable has stored so far."""
    return tab._starts[:tab._summed // CUM_BLOCK + 1]


def test_n_at_sums_only_as_far_as_drawn():
    """A draw extends the stored running sums CUM_CHUNK cells at a time
    only through the chunk of the cell it picks.  Whatever order the draws
    come in (increasing, decreasing, or one batch over the whole table),
    the stored sums are a prefix of the whole table's np.cumsum, bit for
    bit, and every draw is the whole-table search's."""
    rng = random.Random(9)
    for size in (1, 5, CUM_BLOCK - 1, CUM_BLOCK, CUM_BLOCK + 1,
                 3 * CUM_BLOCK, 1000, CUM_CHUNK - 1, CUM_CHUNK,
                 CUM_CHUNK + 1, 3 * CUM_CHUNK + 5):
        vals = np.array([rng.random() * (rng.random() < 0.6)
                         for _ in range(size)])
        vals[0] += 0.5
        whole, cum = whole_table_starts(vals), np.cumsum(vals)
        us = sorted(rng.random() for _ in range(40))

        def search(u, total):
            k = int(np.searchsorted(cum, u * total, side="right"))
            return -7 + min(k, size - 1)

        for order in (us, us[::-1]):
            tab = float_table(2.0, 29, -7, vals)
            reach = 0
            for u in order:
                n = tab.n_at(u)
                assert n == search(u, tab.total)
                reach = max(reach, n + 7)
                assert tab._summed == min(
                    size, (reach // CUM_CHUNK + 1) * CUM_CHUNK)
                got = stored_starts(tab)
                assert np.array_equal(got, whole[:len(got)])
        tab = float_table(2.0, 29, -7, vals)
        spread = np.array(us[::-1] + [0.0, 1 - 2 ** -53])
        assert tab.n_at(spread).tolist() == [search(u, tab.total)
                                             for u in spread]
        assert np.array_equal(stored_starts(tab), whole)
        assert np.array_equal(tab._sum_to(np.inf), whole)


def test_n_at_of_no_uniforms_is_empty():
    tab = float_table(2.0, 29, -7, np.ones(3 * CUM_CHUNK))
    assert tab.n_at(np.array([])).shape == (0,)
    assert tab._summed == 0


def test_weight_tables_of_one_build_share_scratch_safely():
    """Two tables of one build_weight_tables call share one float scratch.
    Used interleaved, each gives the total, draws and running sums it
    gives when used alone; the first draw stops inside the table, so its
    later sums start from the sum it stored, not from the scratch."""
    p = derive_params(ERA, 2_950, force_scales=[2.0, 3.0])
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(4, "stage1"))
    assert (p.K + 1) * p.y > CUM_CHUNK
    qa, qb = p.Q[2.0][:2]
    us = {qa: 0.05, qb: 0.6}

    def use(tab):
        return tab.total, tab.n_at(us[tab.q]), tab._sum_to(np.inf)

    alone = {q: use(build_weight_tables(ERA, p, b, 2.0)[q])
             for q in (qa, qb)}
    tables = build_weight_tables(ERA, p, b, 2.0)
    a, bt = tables[qa], tables[qb]
    assert a.buf is bt.buf
    totals = a.total, bt.total
    draws = a.n_at(us[qa]), bt.n_at(us[qb])
    assert 0 < a._summed < len(a.codes)
    starts = a._sum_to(np.inf), bt._sum_to(np.inf)
    for i, q in enumerate((qa, qb)):
        total, n, whole = alone[q]
        assert totals[i] == total and draws[i] == n
        assert np.array_equal(starts[i], whole)
        assert np.array_equal(whole, whole_table_starts(values(tables[q])))


def test_total_and_draw_expand_no_table():
    """total and one draw on a 40,632-cell table (x = 10^4, H = 3) work in
    the build's shared scratch: they allocate under a quarter of the
    8 bytes per cell that a float64 copy of the table would take."""
    p = derive_params(ERA, 10_000, force_scales=[2.0, 3.0])
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(0, "stage1"))
    tab = next(iter(build_weight_tables(ERA, p, b, 3.0).values()))
    assert len(tab.codes) == 40_632
    tracemalloc.start()
    try:
        tab.total
        tab.n_at(0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(tab.codes) / 4


def test_stage2_sampling_frequencies():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(4, "stage1"))
    tab = build_weight_tables(ERA, p, b, 2.0)[29]
    probs = values(tab) / tab.total
    trials = 10_000
    drawn = tab.n_at(uniforms(derive_seed(6, "t"), np.arange(trials), 0))
    counts = np.bincount(drawn - tab.n_lo, minlength=len(probs))
    for k in np.flatnonzero(probs > 0.01):
        se = math.sqrt(probs[k] * (1 - probs[k]) / trials)
        assert abs(counts[k] / trials - probs[k]) <= 3 * se + 1e-12


def test_stage2_cover_mode_supported():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(8, "stage1"))
    r = stage2_select(ERA, p, b, stage1_members(ERA, p, b), seed=11,
                      mode="cover")
    tables = build_weight_tables(ERA, p, b, 2.0)
    for q, n in r.chosen.items():
        assert values(tables[q])[n - tables[q].n_lo] > 0


def test_stage2_caps_table_cells_before_building(monkeypatch):
    """Stage 2 refuses to hold more than MAX_TABLE_CELLS cells at once,
    before it builds any table: every scale's tables in cover mode, the
    largest scale's in sample mode, which draws from each scale's tables
    and drops them before building the next."""
    from sievegap import construction
    p = derive_params(ERA, 2_950, force_scales=[2.0, 3.0])
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(1, "stage1"))
    s1 = stage1_members(ERA, p, b)
    cells = [len(p.Q[H]) * (p.K + 1) * p.y for H in p.scales]
    want = {mode: stage2_select(ERA, p, b, s1, seed=5, mode=mode)
            for mode in ("sample", "cover")}
    calls = []

    def spy(*args):
        calls.append(args)
        return build_weight_tables(*args)

    monkeypatch.setattr(construction, "build_weight_tables", spy)
    for cap, refused in ((sum(cells) - 1, {"cover"}),
                         (max(cells) - 1, {"sample", "cover"}),
                         (sum(cells), set())):
        monkeypatch.setattr(construction, "MAX_TABLE_CELLS", cap)
        for mode in ("sample", "cover"):
            calls.clear()
            if mode in refused:
                with pytest.raises(EnumerationLimitError):
                    stage2_select(ERA, p, b, s1, seed=5, mode=mode)
                assert calls == []
            else:
                assert stage2_select(ERA, p, b, s1, seed=5, mode=mode) == \
                    want[mode]
                assert len(calls) == len(p.scales)


def test_stage2_rejects_every_all_zero_table():
    """No active prime <= H^M ~ 24.3 and I_29 = all but one class, with
    29 > J = 6 and 29 not dividing q = 31: every progression {n + 31 h}
    meets the classes 29 removes, so each table is all zero and q is
    rejected in both modes; stage 3 still certifies [1, L]."""
    sys_ = SievingSystem("table", table={29: tuple(range(1, 29))})
    p = small_params(sys_, Q={2.0: [31]})
    b = ShiftVector.uniform(sys_, p.z_eff, derive_seed(10, "stage1"))
    assert build_weight_tables(sys_, p, b, 2.0)[31].total == 0.0
    for mode in ("sample", "cover"):
        r = stage2_select(sys_, p, b, stage1_members(sys_, p, b), seed=17,
                          mode=mode)
        assert r.rejected == p.Q[2.0]
        assert r.tables_built == len(p.Q[2.0])
        assert r.chosen == {}
        built = construct(sys_, p, seed=17, mode=mode)
        assert built.rejected_q == p.Q[2.0]
        assert verify_empty(sys_, p.x, built.shift, 1, built.length)


def test_apply_stage2_sieves_chosen_class():
    p = small_params()
    b = ShiftVector.uniform(ERA, p.z_eff, derive_seed(9, "stage1"))
    r = stage2_select(ERA, p, b, stage1_members(ERA, p, b), seed=13)
    shifted = apply_stage2(ERA, b, r.chosen)
    for q, n_q in r.chosen.items():
        assert (n_q - shifted.entries[q]) % q in ERA.residues(q)


def test_apply_stage2_refuses_empty_residue_set():
    """A chosen q with I_q empty cannot sieve its class: apply_stage2
    names the first such q, in the order chosen lists them."""
    sys_ = SievingSystem("table", table={5: (2,), 7: (), 11: (1, 4), 13: ()})
    b = ShiftVector({5: 1})
    with pytest.raises(DomainError, match="q=13 has an empty residue set"):
        apply_stage2(sys_, b, {11: 3, 13: 0, 7: 2})
    with pytest.raises(DomainError, match="q=7 has an empty residue set"):
        apply_stage2(sys_, b, {7: 0})
    assert apply_stage2(sys_, b, {11: 3, 5: 9}).entries == {5: 2, 11: 2}
    assert apply_stage2(sys_, b, {}).entries == {5: 1}


# ---------------------------------------------------------------------------
# stage 3


def test_survivors_above_matches_oracle():
    """Shifts fixed at primes on both sides of the cutoff, as apply_stage2
    leaves them: survivors are the members of the cutoff sieve that every
    fixed prime above the cutoff also spares."""
    rng = random.Random(31)
    for trial in range(20):
        sys_ = ERA if trial % 2 else random_table_system(rng, prime_cap=60)
        if any(len(sys_.residues(p)) >= p for p in sys_.active_primes(60)):
            continue
        cutoff, y = rng.choice([(7, 300), (13, 500), (23, 800)])
        b = random_shift(sys_, cutoff, rng)
        above = [p for p in (int(p) for p in primes_in_range(cutoff, 60))
                 if sys_.residues(p) and rng.random() < 0.5]
        b = ShiftVector({**b.entries,
                         **{p: rng.randrange(p) for p in above}})
        expect = [m for m in brute_members(sys_, cutoff, b, 1, y)
                  if all(m in brute_members(sys_, p, b, m, m, z=p - 1)
                         for p in above)]
        assert _survivors_above(sys_, b, cutoff, y) == expect
        assert _survivors_above(sys_, b, cutoff, 0) == []


def test_stage3_empty_survivors_succeeds():
    b = ShiftVector({p: 1 for p in ERA.active_primes(50)})
    # [1, 1] shifted: n=1 has (1-1)%2=0 in I_2, so no survivors
    r = stage3_cleanup(ERA, 100, b, 0, [], derive_seed(0, "s3"))
    assert r.ok and r.matched == 0


def test_stage3_matches_and_removes_survivors():
    x = 100
    b1 = ShiftVector.uniform(ERA, x // 2, derive_seed(21, "stage1"))
    surv = [int(m) for m in sift(ERA, x // 2, b1, 1, 30).members()]
    r = stage3_cleanup(ERA, x, b1, 30, surv, derive_seed(1, "s3"))
    if r.ok:
        assert r.matched == len(surv)
        assert r.length == 30
    else:
        assert r.survivors > r.available
        assert r.length == surv[r.available] - 1
    assert verify_empty(ERA, x, r.shift, 1, r.length)


def test_stage3_pigeonhole_failure():
    # x=100: large primes in (50, 100] number 10; a wide target overflows
    b1 = ShiftVector.uniform(ERA, 50, derive_seed(22, "stage1"))
    surv = [int(m) for m in sift(ERA, 50, b1, 1, 100).members()]
    r = stage3_cleanup(ERA, 100, b1, 100, surv, derive_seed(2, "s3"))
    assert not r.ok
    assert r.survivors > r.available
    # the target shrinks to just below the first unmatched survivor
    assert r.matched == r.available
    assert r.length == surv[r.available] - 1
    assert verify_empty(ERA, 100, r.shift, 1, r.length)
    assert not verify_empty(ERA, 100, r.shift, 1, r.length + 1)


def test_stage3_never_certifies_a_short_survivor_list():
    """Stage 3 takes its survivors from the caller but certifies [1, L]
    itself: leaving out any one survivor raises instead of certifying,
    unless the uniform residue of an unmatched prime happens to sieve the
    survivor left out, when [1, L] is truly empty."""
    raised = 0
    for seed in range(21, 31):
        b1 = ShiftVector.uniform(ERA, 50, derive_seed(seed, "stage1"))
        surv = [int(m) for m in sift(ERA, 50, b1, 1, 30).members()]
        assert surv
        assert stage3_cleanup(ERA, 100, b1, 30, surv,
                              derive_seed(1, "s3")).ok
        for k, m in enumerate(surv):
            try:
                r = stage3_cleanup(ERA, 100, b1, 30, surv[:k] + surv[k + 1:],
                                   derive_seed(1, "s3"))
            except DomainError as e:
                assert "certification failed" in str(e)
                raised += 1
                continue
            assert brute_members(ERA, 100, r.shift, 1, r.length) == []
            assert any((m - r.shift.entries.get(q, 0)) % q == 0
                       for q in ERA.active_primes(100, 50)[r.matched:])
    assert raised >= 20


# ---------------------------------------------------------------------------
# full pipelines


def test_construct_certificate_and_reproducibility():
    p = derive_params(ERA, 200)
    a = construct(ERA, p, seed=31)
    b = construct(ERA, p, seed=31)
    assert a.length == b.length
    assert a.shift.entries == b.shift.entries
    assert verify_empty(ERA, 200, a.shift, 1, a.length)
    assert a.survivors_stage2 <= a.survivors_stage1


@pytest.mark.parametrize("x, scales, mode", [(10_000, None, "sample"),
                                             (3_000, [2.0, 3.0], "cover")])
def test_construct_sifts_the_stage1_window_once(monkeypatch, x, scales, mode):
    """construct sifts [1, y] at z_eff with the stage-1 shift once and
    hands the members to stage 2 (cover vertices) and stage 3."""
    from sievegap import construction
    p = derive_params(ERA, x, force_scales=scales)
    assert p.degraded == (scales is None)
    b1 = ShiftVector.uniform(ERA, p.z_eff, derive_seed(7, "stage1"))
    calls = []

    def spy(system, x, shift, lo, hi, z=1):
        calls.append((x, shift.entries, lo, hi, z))
        return sift(system, x, shift, lo, hi, z)

    monkeypatch.setattr(construction, "sift", spy)
    r = construct(ERA, p, seed=7, mode=mode)
    assert calls.count((p.z_eff, b1.entries, 1, p.y, 1)) == 1
    assert r.survivors_stage1 == sift(ERA, p.z_eff, b1, 1, p.y).count()
    assert verify_empty(ERA, x, r.shift, 1, r.length)


def test_construct_nondegraded_instance():
    p = derive_params(ERA, 2_950, delta=0.001, force_z=200,
                      force_scales=[3.0])
    assert not p.degraded
    r = construct(ERA, p, seed=5)
    assert verify_empty(ERA, 2_950, r.shift, 1, r.length)
    assert r.length >= p.y * 0.5


def test_construct_polynomial_system():
    sys_ = polynomial_system("n^2+1")
    p = derive_params(sys_, 300)
    r = construct(sys_, p, seed=17)
    assert verify_empty(sys_, 300, r.shift, 1, r.length)
    assert r.length >= 1


def test_trivial_baseline_certified():
    for seed in range(5):
        r = trivial_baseline(ERA, 100, seed)
        assert verify_empty(ERA, 100, r.shift, 1, r.length)
        assert r.length >= 1


def test_construct_degraded_still_linear_in_x():
    lengths = [construct(ERA, derive_params(ERA, 300), seed=s).length
               for s in range(5)]
    assert min(lengths) >= 0.1 * 300
