"""Hypergraph covering: hypothesis checks, round planning, recursion,
and the semi-random covering procedure."""

import io
import math

import numpy as np
import pytest
from conftest import splitmix_word

from sievegap import cover
from sievegap.cli import dispatch
from sievegap.cover import (RESAMPLE_HARD_CAP, CoverInstance, EdgeSampler,
                            RoundPlan, assign_indices, check_hypotheses,
                            degree_profile, plan_rounds,
                            progression_instance, run_cover)
from sievegap.errors import DomainError
from sievegap.rng import ATTEMPT_BITS, derive_seed, uniforms


class FullEdge(EdgeSampler):
    """Always returns the whole vertex set."""

    def __init__(self, n):
        self.n = n

    def sample(self, u):
        return (np.tile(np.arange(self.n, dtype=np.int64), len(u)),
                np.full(len(u), self.n))

    def inclusion_probs(self, vertices):
        return np.ones(len(vertices))

    def max_size(self):
        return self.n

    def codegree_bound(self):
        return float(self.n * self.n)


class SparseEdge(EdgeSampler):
    """Empty for u < 1/2, else a uniform singleton among vertices 0, 1, 2:
    indices holding it run out of attempts once those three are dead."""

    def sample(self, u):
        hit = u >= 0.5
        return (((u[hit] - 0.5) * 6).astype(np.int64),
                hit.astype(np.int64))

    def inclusion_probs(self, vertices):
        return np.where(vertices < 3, 1 / 6, 0.0)

    def max_size(self):
        return 1

    def codegree_bound(self):
        return 0.0


def _per_index(inst):
    """The sampler that each index draws from, in index order."""
    return [inst.samplers[g] for g in inst.group.tolist()]


def _mixed_family(n=40):
    """Singletons (indices 0-49 and 57-86), SparseEdge (50-56 and
    88-90) and one FullEdge (87)."""
    inst = progression_instance(n, 4.0, 0.05)
    inst.samplers += [SparseEdge(), FullEdge(n)]
    inst.group = np.repeat([0, 1, 0, 2, 1], [50, 7, 30, 1, 3])
    return inst


# ---------------------------------------------------------------------------
# hypotheses


def test_calibrated_family_passes_hypotheses():
    inst = progression_instance(10_000, 4.0, 0.05)
    rep = check_hypotheses(inst, 0.25, y=1e5)
    assert rep.all_ok, [c.to_dict() for c in rep.conditions if not c.ok]


def test_heavy_edge_fails_codegree_and_sparsity():
    inst = CoverInstance(vertices=np.arange(100, dtype=np.int64),
                         samplers=[FullEdge(100)],
                         group=np.zeros(5, dtype=np.intp), eta=0.05, C2=5.0)
    rep = check_hypotheses(inst, 0.25, y=1e5)
    by_name = {c.name: c for c in rep.conditions}
    assert not by_name["codegree"].ok
    assert not by_name["sparsity"].ok
    assert not by_name["edge_size"].ok


def test_small_c2_fails_degree_range():
    inst = progression_instance(10_000, 1.0, 0.05)
    rep = check_hypotheses(inst, 0.25, y=1e5)
    by_name = {c.name: c for c in rep.conditions}
    assert not by_name["C2_range"].ok
    assert by_name["C2_range"].threshold == pytest.approx(10 ** 0.5)


@pytest.mark.parametrize("delta", [200, float("nan"), 0.5, 0, -0.1])
def test_delta_outside_the_open_half_is_refused_by_both(delta):
    """check_hypotheses refuses delta outside (0, 1/2), NaN included,
    with plan_rounds' message before 10^{2 delta} can overflow."""
    inst = progression_instance(100, 4.0, 0.05)
    with pytest.raises(DomainError, match=r"^delta must lie in \(0, 1/2\)$"):
        check_hypotheses(inst, delta, y=1e5)
    with pytest.raises(DomainError, match=r"^delta must lie in \(0, 1/2\)$"):
        plan_rounds(0.05, delta, 4.0)


def test_hypotheses_and_profile_equal_the_per_index_loop():
    """Probabilities are computed once per sampler; every reported float
    equals the one-call-per-index loop bit for bit."""
    n = 40
    inst = _mixed_family(n)
    per_index = _per_index(inst)
    rep = check_hypotheses(inst, 0.25, y=1e5)
    degree, worst_p, worst_v = np.zeros(n), 0.0, None
    for i, sm in enumerate(per_index):
        probs = sm.inclusion_probs(inst.vertices)
        degree += probs
        j = int(np.argmax(probs))
        if probs[j] > worst_p:
            worst_p, worst_v = float(probs[j]), (i, int(inst.vertices[j]))
    by_name = {c.name: c for c in rep.conditions}
    assert (by_name["sparsity"].worst, by_name["sparsity"].offender) == \
        (worst_p, worst_v)
    assert by_name["codegree"].worst == \
        sum(sm.codegree_bound() for sm in per_index)
    assert by_name["degree_uniform"].worst == float(np.abs(degree - 4).max())
    assert by_name["edge_size"].worst == n
    part = {1: list(range(0, 91, 2)), 2: list(range(1, 91, 2))}
    expect = np.zeros((2, n))
    for j, idxs in part.items():
        for i in idxs:
            expect[j - 1] += per_index[i].inclusion_probs(inst.vertices)
    assert np.array_equal(degree_profile(inst, part).degrees, expect)


class TableEdge(SparseEdge):
    """Inclusion probabilities read from a fixed per-vertex array."""

    def __init__(self, probs):
        self.probs = probs

    def inclusion_probs(self, vertices):
        return self.probs[vertices]


# with 300 indices: one column per chunk, three, and all at once
@pytest.mark.parametrize("chunk", [1, 3 * 300, 1 << 22])
def test_degree_check_equals_the_sequential_loop(monkeypatch, chunk):
    """The degree sum runs once per distinct column of probabilities, a
    chunk of columns at a time, and still equals the loop degree +=
    probs in index order bit for bit, offender included."""
    from sievegap import cover
    monkeypatch.setattr(cover, "DEGREE_CHUNK", chunk)
    rng = np.random.default_rng(4)
    n = 500
    # a few distinct values per sampler, so that many vertices share a
    # column and the columns still differ
    samplers = [TableEdge(rng.choice(rng.random(3) / 40, size=n))
                for _ in range(5)]
    inst = CoverInstance(vertices=np.arange(n, dtype=np.int64),
                         samplers=samplers,
                         group=rng.integers(0, 5, size=300),
                         eta=0.05, C2=4.0)
    degree = np.zeros(n)
    for sm in _per_index(inst):
        degree += sm.inclusion_probs(inst.vertices)
    dev = np.abs(degree - 4.0)
    [cond] = [c for c in check_hypotheses(inst, 0.25, y=1e5).conditions
              if c.name == "degree_uniform"]
    assert (cond.worst, cond.offender) == (float(dev.max()),
                                           int(np.argmax(dev)))


def _degree_sums_oracle(probs, seq):
    """One sequential sum per column that np.unique(axis=1) finds."""
    cols, inv = np.unique(probs, axis=1, return_inverse=True)
    return np.add.accumulate(cols[seq], axis=0)[-1][inv.reshape(-1)]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_degree_sums_equal_the_unique_oracle(rows):
    """Columns drawn from a small pool, repeated and permuted, and pairs
    that agree in the first row only: the sums per vertex are those of
    grouping by np.unique(axis=1), bit for bit."""
    rng = np.random.default_rng(rows)
    pool = rng.random((rows, 6)) / 7
    pool[:, 3] = pool[:, 2]
    if rows > 1:
        pool[1:, 3] = rng.random(rows - 1) / 7     # same first entry only
    probs = pool[:, rng.integers(0, 6, size=300)]
    probs = probs[:, rng.permutation(300)]
    seq = rng.integers(0, rows, size=1000)
    got = cover._degree_sums(probs, seq)
    assert got.tobytes() == _degree_sums_oracle(probs, seq).tobytes()
    loop = np.zeros(300)
    for k in seq.tolist():
        loop += probs[k]
    assert got.tobytes() == loop.tobytes()


class CodegreeEdge(SparseEdge):
    """SparseEdge with a given codegree bound."""

    def __init__(self, bound):
        self.bound = bound

    def codegree_bound(self):
        return self.bound


def test_codegree_sum_is_the_left_to_right_loop():
    """The codegree sum adds the indices' bounds left to right in index
    order: a 1 first absorbs each 2^-60 after it, which a pairwise or a
    compensated sum would keep."""
    bounds = [1.0, 2.0 ** -60, 1 / 3, 3e-7]
    rng = np.random.default_rng(5)
    group = np.r_[0, rng.integers(1, 4, size=999)]
    inst = CoverInstance(vertices=np.arange(100, dtype=np.int64),
                         samplers=[CodegreeEdge(b) for b in bounds],
                         group=group, eta=0.05, C2=4.0)
    [cond] = [c for c in check_hypotheses(inst, 0.25, y=1e5).conditions
              if c.name == "codegree"]
    total = 0.0
    for g in group.tolist():
        total += bounds[g]
    assert cond.worst.hex() == total.hex()
    assert total != math.fsum(bounds[g] for g in group.tolist())
    assert cond.ok is False


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 22])
def test_codegree_sum_in_chunks_equals_the_unchunked_sum(monkeypatch, chunk):
    """Summed DEGREE_CHUNK indices at a time, each chunk carrying the
    running total into its first addition, the codegree sum is the one
    sequential sum over every index's bound, bit for bit."""
    from sievegap import cover
    bounds = np.array([1.0, 2.0 ** -60, 1 / 3, 3e-7, 0.1])
    group = np.random.default_rng(6).integers(0, 5, size=2000)
    inst = CoverInstance(vertices=np.arange(50, dtype=np.int64),
                         samplers=[CodegreeEdge(b) for b in bounds.tolist()],
                         group=group, eta=0.05, C2=4.0)
    whole = cover.sequential_sum(bounds[group])
    monkeypatch.setattr(cover, "DEGREE_CHUNK", chunk)
    [cond] = [c for c in check_hypotheses(inst, 0.25, y=1e5).conditions
              if c.name == "codegree"]
    assert cond.worst.hex() == whole.hex()


# ---------------------------------------------------------------------------
# round planning


def test_plan_rounds_explicit_beta_example():
    plan = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
    assert plan.beta == 4.0
    assert plan.m == 4
    assert 4 * math.log(4) / 3 < 10 ** 0.5 < 4


def test_plan_rounds_grid_default_matches_m():
    plan = plan_rounds(0.01, 0.25, 4.0)
    assert plan.m == 4
    thr = 10 ** 0.5
    assert plan.beta > thr > plan.beta * math.log(plan.beta) / (plan.beta - 1)


def _grid_beta_walk(delta):
    """The first admissible beta = 10^{2 delta} + 0.1 k, k = 1..10,000,
    found by walking the grid, or None."""
    thr = 10.0 ** (2 * delta)
    for k in range(1, 10_001):
        beta = thr + 0.1 * k
        if beta > thr and thr > beta * math.log(beta) / (beta - 1):
            return beta
    return None


def test_plan_rounds_default_beta_equals_the_grid_walk():
    """Only k = 1 can pass, since beta log beta / (beta - 1) increases:
    the default beta and m are the walk's on a fine grid of delta, and
    both refuse below the boundary near delta = 0.018, on either side of
    which two deltas one ulp apart are checked."""
    lo, hi = 0.001, 0.05
    assert _grid_beta_walk(lo) is None and _grid_beta_walk(hi) is not None
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _grid_beta_walk(mid) is not None else (mid, hi)
    assert 0.017 < hi < 0.019
    deltas = [k / 2000 for k in range(1, 1000)] + [lo, hi]
    for delta in deltas:
        beta = _grid_beta_walk(delta)
        if beta is None:
            with pytest.raises(DomainError,
                               match="^no admissible beta found on the grid$"):
                plan_rounds(0.05, delta, 4.0)
            continue
        plan = plan_rounds(0.05, delta, 4.0)
        assert plan.beta == beta
        assert plan.m == max(1, math.ceil(math.log(1 / 0.05)
                                         / math.log(beta)))


def test_plan_rounds_single_round_for_large_eta():
    assert plan_rounds(0.5, 0.25, 4.0, beta=4.0).m == 1


def test_plan_rounds_interval_geometry():
    plan = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
    total = sum(b - a for a, b in plan.intervals)
    beta, C2, m = plan.beta, 4.0, plan.m
    expect = (math.log(beta) / C2) * (1 - beta ** -m) / (1 - 1 / beta)
    assert total == pytest.approx(expect, rel=1e-12)
    assert total <= 1.0
    for (a1, b1), (a2, b2) in zip(plan.intervals, plan.intervals[1:]):
        assert b1 == pytest.approx(a2)
    # beta^m in [1/eta, beta/eta]
    assert 1 / 0.01 <= beta ** m <= beta / 0.01


def test_plan_rounds_rejects_bad_beta():
    with pytest.raises(DomainError):
        plan_rounds(0.01, 0.25, 4.0, beta=2.0)   # below 10^{0.5}
    with pytest.raises(DomainError):
        plan_rounds(1.5, 0.25, 4.0)


# ---------------------------------------------------------------------------
# index assignment


def _lists(part):
    """A partition with each round's indices as a list."""
    return {j: np.asarray(idxs).tolist() for j, idxs in part.items()}


def test_assign_indices_concentration_and_determinism():
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    s = 4000
    a = assign_indices(s, plan, derive_seed(3, "assign"))
    b = assign_indices(s, plan, derive_seed(3, "assign"))
    assert _lists(a) == _lists(b)
    for j, (lo, hi) in enumerate(plan.intervals, start=1):
        expect = s * (hi - lo)
        assert abs(len(a[j]) - expect) <= 3 * math.sqrt(s)
    used = [i for idxs in a.values() for i in idxs]
    assert len(used) == len(set(used))


def _partition_oracle(marks, plan):
    """The nested loop: each mark goes to the first interval [a, b)
    holding it."""
    part = {j: [] for j in range(1, plan.m + 1)}
    for i, t in enumerate(marks):
        for j, (a, b) in enumerate(plan.intervals, start=1):
            if a <= t < b:
                part[j].append(i)
                break
    return part


def _assign_oracle(s, plan, key):
    """Markings of s scalar uniforms(key, i, attempt) calls, redrawn at the
    next attempt until every round is nonempty."""
    for attempt in range(cover.ASSIGN_RETRY_CAP):
        part = _partition_oracle(
            [float(uniforms(key, i, attempt)) for i in range(s)], plan)
        if all(part.values()):
            return part


def test_assign_indices_matches_nested_loop_oracle():
    """The marks-to-rounds map equals the nested loop on every bound,
    its float neighbours and the 2^-53 grid points around it (which are
    all a uniform can be near a bound that lies off the grid), and
    assign_indices equals the loop over scalar uniforms on real keys."""
    plans = [plan_rounds(0.05, 0.25, 4.0), plan_rounds(0.01, 0.25, 4.0,
                                                       beta=4.0),
             RoundPlan(beta=3.3, m=3, intervals=[(j / 3, (j + 1) / 3)
                                                 for j in range(3)])]
    off_grid = 0
    for plan in plans:
        for seed in range(5):
            assert _lists(assign_indices(2000, plan, derive_seed(seed, "m"))) \
                == _assign_oracle(2000, plan, derive_seed(seed, "m"))
        bounds = [e for ab in plan.intervals for e in ab]
        off_grid += sum(not (e * 2 ** 53).is_integer() for e in bounds)
        marks = [0.0, 0.999, math.nextafter(1.0, 0.0)]
        for e in bounds:
            marks += [e, math.nextafter(e, 0.0), math.nextafter(e, 1.0),
                      math.floor(e * 2 ** 53) / 2 ** 53,
                      math.ceil(e * 2 ** 53) / 2 ** 53]
        got = cover._partition(np.array(marks), np.array(bounds))
        assert all(idxs.dtype == np.intp for idxs in got.values())
        assert _lists(got) == _partition_oracle(marks, plan)
    assert off_grid >= 4


def test_assign_indices_single_index():
    plan = plan_rounds(0.3, 0.25, 4.0, beta=4.0)
    assert plan.m == 1
    part = assign_indices(1, plan, derive_seed(0, "a"))
    assert sum(len(v) for v in part.values()) <= 1


def test_assign_indices_retry_exhaustion():
    plan = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
    with pytest.raises(DomainError, match="could not draw a marking"):
        assign_indices(plan.m, plan, derive_seed(0, "a"))  # 4 rounds, 4 indices


@pytest.mark.parametrize("s", [0, 1, 3])
def test_assign_indices_refuses_fewer_indices_than_rounds(s, monkeypatch):
    """Fewer indices than rounds are refused before any draw, with both
    counts in the message."""
    plan = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
    draws = []
    monkeypatch.setattr(cover, "uniforms", lambda *a: draws.append(a))
    with pytest.raises(DomainError,
                       match=f"^4 rounds need at least 4 indices, got {s}$"):
        assign_indices(s, plan, derive_seed(0, "a"))
    assert draws == []


def test_partitions_as_lists_or_arrays_agree():
    """assign_indices returns intp arrays in increasing order; the profile
    and the run give the same results from them as from lists."""
    inst = progression_instance(200, 4.0, 0.05)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, derive_seed(18, "a"))
    for idxs in part.values():
        assert idxs.dtype == np.intp and np.all(np.diff(idxs) > 0)
    as_lists = _lists(part)
    a, b = degree_profile(inst, part), degree_profile(inst, as_lists)
    assert (a.degrees.tobytes(), a.P.tobytes()) == \
        (b.degrees.tobytes(), b.P.tobytes())
    assert _outcome(run_cover(inst, plan, part, seed=19)) == \
        _outcome(run_cover(inst, plan, as_lists, seed=19))


# ---------------------------------------------------------------------------
# degree profile / P_j recursion


def test_degree_profile_zero_degrees():
    inst = progression_instance(100, 4.0, 0.05)
    prof = degree_profile(inst, {1: [], 2: []})
    assert np.all(prof.P == 1.0)
    assert prof.kappa == 1.0


def test_degree_profile_uniform_degrees_track_beta_powers():
    beta, m, n = 3.0, 3, 500
    inst = progression_instance(n, 4.0, 0.05)
    # round j gets ~ n * beta^{1-j} * log(beta) singleton edges, so
    # d_{I_j}(v) = beta^{1-j} log(beta) for every v
    counts = [round(n * beta ** (1 - j) * math.log(beta))
              for j in range(1, m + 1)]
    assert sum(counts) <= inst.s
    part, k = {}, 0
    for j, c in enumerate(counts, start=1):
        part[j] = list(range(k, k + c))
        k += c
    prof = degree_profile(inst, part)
    for j in range(1, m + 1):
        assert prof.P[j].min() == pytest.approx(beta ** -j, rel=0.1)
    # P_j nonincreasing in j
    for j in range(m):
        assert np.all(prof.P[j + 1] <= prof.P[j] + 1e-15)


def test_degree_profile_single_round_log_beta():
    beta, n = 4.0, 400
    inst = progression_instance(n, 4.0, 0.05)
    c = round(n * math.log(beta))
    prof = degree_profile(inst, {1: list(range(c))})
    assert prof.kappa == pytest.approx(1 / beta, rel=0.02)


# ---------------------------------------------------------------------------
# counter streams


def _uniform_reference(key, i, t):
    return splitmix_word(key, i, t) / 2 ** 53


def test_uniforms_equal_scalar_reference():
    last = (1 << ATTEMPT_BITS) - 1
    assert RESAMPLE_HARD_CAP <= last
    ii = np.array([0, 1, 2, 7919, 40_000, (1 << 40) - 1])
    tt = np.array([0, 1, 2, RESAMPLE_HARD_CAP - 1, last - 1, last])
    for key in (0, derive_seed(7, "cover", 1), (1 << 64) - 1):
        got = uniforms(key, ii[:, None], tt[None, :])
        for a, i in enumerate(ii.tolist()):
            for b, t in enumerate(tt.tolist()):
                assert got[a, b] == _uniform_reference(key, i, t)
        assert float(uniforms(key, 3, 4)) == _uniform_reference(key, 3, 4)
    # the last attempt of index i and the first of index i + 1 are
    # neighbouring counters, not the same one
    key = derive_seed(1, "cover", 2)
    assert uniforms(key, 5, last) != uniforms(key, 6, 0)


def test_uniforms_chi_square():
    """Equal-width bins of 10^5 draws, and of 5 10^4 pairs of successive
    attempts of one index: the statistics sit far inside chi-square's
    10^-6 tail (99 degrees of freedom: 171)."""
    u = uniforms(derive_seed(3, "cover", 1), np.arange(1000)[:, None],
                 np.arange(100)[None, :])
    assert u.min() >= 0.0 and u.max() < 1.0
    expect = u.size / 100
    counts = np.bincount((u.ravel() * 100).astype(int), minlength=100)
    assert ((counts - expect) ** 2 / expect).sum() < 171
    pairs = (u[:, 0::2] * 10).astype(int) * 10 + (u[:, 1::2] * 10).astype(int)
    counts = np.bincount(pairs.ravel(), minlength=100)
    expect = pairs.size / 100
    assert ((counts - expect) ** 2 / expect).sum() < 171


# ---------------------------------------------------------------------------
# run_cover


def test_run_cover_full_edge_covers_everything():
    n = 50
    inst = CoverInstance(vertices=np.arange(n, dtype=np.int64),
                         samplers=[FullEdge(n)],
                         group=np.zeros(1, dtype=np.intp), eta=0.05, C2=1.0)
    plan = plan_rounds(0.5, 0.25, 4.0, beta=4.0)
    part = assign_indices(1, plan, derive_seed(1, "a"))
    if not any(len(idxs) for idxs in part.values()):
        pytest.skip("index fell outside the marking intervals")
    res = run_cover(inst, plan, part, seed=2)
    assert res.uncovered_fraction == 0.0


def test_run_cover_zero_probability_vertex_stays_uncovered():
    n = 100
    inst = progression_instance(n, 4.0, 0.05)
    # extend the vertex set by one label no sampler can ever emit
    inst = CoverInstance(
        vertices=np.arange(n + 1, dtype=np.int64),
        samplers=inst.samplers, group=inst.group, eta=inst.eta, C2=inst.C2)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, derive_seed(4, "a"))
    res = run_cover(inst, plan, part, seed=5)
    assert n in set(int(v) for v in res.uncovered)


def _edges(sampler, u):
    members, sizes = sampler.sample(u)
    return [tuple(int(v) for v in e)
            for e in np.split(members, np.cumsum(sizes)[:-1])]


def test_run_cover_support_containment_replayable():
    """Every index's outcome replays from its own counter stream: the
    accepted edge is its first draw inside the alive set at the start of
    the round, and an index left empty had no such draw in its cap."""
    inst = progression_instance(300, 4.0, 0.05)
    inst.samplers.append(SparseEdge())
    inst.group = np.repeat([0, 1], [inst.s, 60])
    per_index = _per_index(inst)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, derive_seed(6, "a"))
    seed = 7
    res = run_cover(inst, plan, part, seed)
    alive = set(int(v) for v in inst.vertices)
    empty = 0
    for j, idxs in sorted(part.items()):
        key = derive_seed(seed, "cover", j)
        cap = res.rounds_trace[j - 1]["attempt_cap"]
        alive_start = frozenset(alive)
        for i in idxs:
            u = uniforms(key, i, np.arange(cap))
            inside = [bool(e) and alive_start.issuperset(e)
                      for e in _edges(per_index[i], u)]
            edge = (_edges(per_index[i], res.last_u[i:i + 1])[0]
                    if res.accepted[i] else ())
            if edge:
                t = inside.index(True)
                assert edge == _edges(per_index[i], u[t:t + 1])[0]
                alive -= set(edge)
            else:
                assert not any(inside)
                t = cap - 1
                empty += 1
            assert res.last_u[i] == u[t]
    assert 0 < empty < inst.s
    assert alive == set(int(v) for v in res.uncovered)


def test_run_cover_tracks_recursion_kappa():
    inst = progression_instance(500, 4.0, 0.05)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    fractions, kappas = [], []
    for t in range(60):
        part = assign_indices(inst.s, plan, derive_seed(8, "a", t))
        kappas.append(degree_profile(inst, part).kappa)
        res = run_cover(inst, plan, part, derive_seed(8, "t", t))
        fractions.append(res.uncovered_fraction)
    mean = float(np.mean(fractions))
    se = float(np.std(fractions, ddof=1) / math.sqrt(len(fractions)))
    kappa = float(np.mean(kappas))
    assert abs(mean - kappa) <= 3 * se + 0.01


def test_run_cover_deterministic():
    inst = progression_instance(200, 4.0, 0.05)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, derive_seed(9, "a"))
    r1 = run_cover(inst, plan, part, seed=10)
    r2 = run_cover(inst, plan, part, seed=10)
    assert np.array_equal(r1.accepted, r2.accepted)
    assert np.array_equal(r1.last_u, r2.last_u, equal_nan=True)
    assert list(r1.uncovered) == list(r2.uncovered)


class CountingEdge(EdgeSampler):
    """Another sampler's edges, recording how many uniforms each call
    draws."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def sample(self, u):
        self.calls.append(len(u))
        return self.inner.sample(u)


def test_run_cover_draws_one_call_per_sampler_per_block():
    """A block draws all pending indices of one sampler in one call, even
    when they are not contiguous: pending(t) w(t) uniforms for the block
    of width w(t) starting at attempt t.  In one round from a fully alive
    start, every draw of a (a singleton) is accepted at attempt 0, while
    an index of b waits for its first uniform >= 1/2."""
    n = 40
    a = CountingEdge(progression_instance(n, 4.0, 0.05).samplers[0])
    b = CountingEdge(SparseEdge())
    inst = CoverInstance(vertices=np.arange(n, dtype=np.int64),
                         samplers=[a, b],
                         group=np.repeat([0, 1, 0], [50, 7, 30]),
                         eta=0.05, C2=4.0)
    plan = RoundPlan(beta=3.3, m=1, intervals=[(0.0, 1.0)])
    seed = 11
    res = run_cover(inst, plan, {1: list(range(inst.s))}, seed)
    cap = res.rounds_trace[0]["attempt_cap"]
    u = uniforms(derive_seed(seed, "cover", 1), np.arange(50, 57)[:, None],
                 np.arange(cap)[None, :])
    waiting = [int((u[:, :t] < 0.5).all(axis=1).sum()) for t in range(cap)]
    blocks, t = [], 0
    while t < cap and waiting[t]:
        w = max(1, min(cap - t, t, cover.DRAW_BLOCK // waiting[t]))
        blocks.append(waiting[t] * w)
        t += w
    assert a.calls == [80]
    assert b.calls == blocks
    assert 1 < len(b.calls)
    assert res.accepted.sum() == 87 - (u < 0.5).all(axis=1).sum()


def _mixed_instance(n=40):
    """test_hypotheses_and_profile_equal_the_per_index_loop's family:
    singletons, SparseEdge and one FullEdge, in three rounds that leave
    vertices uncovered."""
    inst = _mixed_family(n)
    plan = RoundPlan(beta=3.3, m=3, intervals=[(j / 3, (j + 1) / 3)
                                               for j in range(3)])
    part = {1: list(range(0, 87, 4)), 2: list(range(1, 87, 4)),
            3: list(range(2, 87, 8)) + list(range(87, 91))}
    return inst, plan, part


def _outcome(res):
    return (res.accepted.tolist(), res.last_u.tobytes(),
            res.uncovered.tolist(), res.rounds_trace)


def test_run_cover_blocks_do_not_change_results(monkeypatch):
    """One attempt per block (the per-attempt waves), three draws per
    block and blocks bounded by the cap alone give the same outcome,
    NaN last_u included, on the mixed family and in a cover-mode
    construct report."""
    inst, plan, part = _mixed_instance()
    argv = ["construct", "--system", "eratosthenes", "--x", "3000",
            "--force-scales", "2", "3", "--mode", "cover", "--seed", "5"]
    seen = []
    for block in (1, 3, 1 << 20):
        monkeypatch.setattr(cover, "DRAW_BLOCK", block)
        out = io.StringIO()
        assert dispatch(argv, stream=out) == 0
        seen.append((_outcome(run_cover(inst, plan, part, seed=13)),
                     out.getvalue()))
    assert seen[0] == seen[1] == seen[2]
    res = run_cover(inst, plan, part, seed=13)
    assert 0 < res.accepted.sum() < inst.s
    assert 0 < len(res.uncovered)


class ShiftedEdge(EdgeSampler):
    """Another sampler's edges with every label v mapped to 3 v + 7."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, u):
        members, sizes = self.inner.sample(u)
        return 3 * members + 7, sizes


@pytest.mark.parametrize("label", [-1, 1, 3, 6])
def test_run_cover_refuses_a_label_outside_the_instance(label):
    """A drawn label below the smallest vertex, in a gap of the labels or
    above the largest one is refused, not ranked."""

    class Fixed(EdgeSampler):
        def sample(self, u):
            return np.full(len(u), label, dtype=np.int64), np.ones(
                len(u), dtype=np.int64)

    inst = CoverInstance(vertices=np.array([0, 2, 5], dtype=np.int64),
                         samplers=[Fixed()],
                         group=np.zeros(4, dtype=np.intp), eta=0.05, C2=4.0)
    plan = RoundPlan(beta=3.3, m=1, intervals=[(0.0, 1.0)])
    with pytest.raises(DomainError,
                       match="a sampler drew a vertex outside the instance"):
        run_cover(inst, plan, {1: [0, 1, 2, 3]}, seed=14)


@pytest.mark.parametrize("step", [1, -1])
def test_run_cover_ranks_labels_not_positions(step):
    """Labels 3 k + 7, listed in increasing or decreasing order, give the
    outcome of the same family on labels k."""
    inst, plan, part = _mixed_instance()
    shifted = CoverInstance(vertices=(3 * inst.vertices + 7)[::step],
                            samplers=[ShiftedEdge(sm) for sm in inst.samplers],
                            group=inst.group, eta=inst.eta, C2=inst.C2)
    res = run_cover(inst, plan, part, seed=15)
    got = run_cover(shifted, plan, part, seed=15)
    assert np.array_equal(got.accepted, res.accepted)
    assert np.array_equal(got.last_u, res.last_u, equal_nan=True)
    assert sorted(got.uncovered.tolist()) == \
        (3 * res.uncovered + 7).tolist()
    assert got.rounds_trace == res.rounds_trace


def _state(inst, plan, part, seed):
    """Everything a check, a profile and a run report on inst."""
    prof = degree_profile(inst, part)
    return (check_hypotheses(inst, 0.25, y=1e5).to_dict(),
            prof.degrees.tobytes(), prof.P.tobytes(), prof.kappa,
            _outcome(run_cover(inst, plan, part, seed)))


def test_editing_the_family_in_place_equals_a_fresh_instance():
    """Nothing is derived from samplers or group and kept: after a check
    and a run, editing either in place changes every later check,
    profile and run to those of a freshly built instance."""
    inst, plan, part = _mixed_instance()
    seen = [_state(inst, plan, part, 16)]

    def regroup():
        inst.group[:30] = 1

    def replace_full():
        inst.samplers[2] = SparseEdge()

    def append():
        inst.samplers.append(FullEdge(40))
        inst.group[88:] = 3

    for edit in (regroup, replace_full, append):
        edit()
        fresh = CoverInstance(vertices=inst.vertices,
                              samplers=list(inst.samplers),
                              group=inst.group.copy(), eta=inst.eta,
                              C2=inst.C2)
        seen.append(_state(inst, plan, part, 16))
        assert seen[-1] == _state(fresh, plan, part, 16)
    assert all(seen[k] != seen[k + 1] for k in range(len(seen) - 1))


@pytest.mark.parametrize("front", [False, True])
def test_a_sampler_no_index_draws_from_changes_nothing(front):
    """An extra FullEdge that no index names, listed last or first, leaves
    the check, the profile and the run of the mixed family as they were."""
    inst, plan, part = _mixed_instance()
    before = _state(inst, plan, part, 17)
    if front:
        inst.samplers.insert(0, FullEdge(40))
        inst.group = inst.group + 1
    else:
        inst.samplers.append(FullEdge(40))
    assert _state(inst, plan, part, 17) == before


def test_run_cover_with_empty_and_missing_rounds():
    """Round 2 has no indices and round 3 is missing from the partition:
    both draw nothing and accept nothing, and the indices in no round
    keep accepted False and last_u NaN."""
    inst = progression_instance(30, 4.0, 0.05)
    plan = RoundPlan(beta=3.3, m=3, intervals=[(j / 3, (j + 1) / 3)
                                               for j in range(3)])
    res = run_cover(inst, plan, {1: list(range(20)), 2: []}, seed=12)
    assert [(t["indices"], t["accepted"]) for t in res.rounds_trace] == \
        [(20, 20), (0, 0), (0, 0)]
    assert res.accepted[:20].all() and not res.accepted[20:].any()
    assert not np.isnan(res.last_u[:20]).any()
    assert np.isnan(res.last_u[20:]).all()
    hit = {int(v) for i in range(20)
           for v in _edges(inst.samplers[inst.group[i]],
                           res.last_u[i:i + 1])[0]}
    assert set(res.uncovered.tolist()) == set(range(30)) - hit
