"""Hypergraph covering: hypothesis checks, round planning, recursion,
and the semi-random covering procedure."""

import math
import random

import numpy as np
import pytest

from sievegap.cover import (CoverInstance, EdgeSampler, ProgressionSampler,
                            assign_indices, check_hypotheses, degree_profile,
                            plan_rounds, progression_instance, run_cover)
from sievegap.errors import DomainError
from sievegap.rng import derive_seed, substream


class FullEdge(EdgeSampler):
    """Always returns the whole vertex set."""

    def __init__(self, n):
        self.n = n

    def sample(self, rng):
        return np.arange(self.n, dtype=np.int64)

    def inclusion_probs(self, vertices):
        return np.ones(len(vertices))

    def max_size(self):
        return self.n

    def codegree_bound(self):
        return float(self.n * self.n)


# ---------------------------------------------------------------------------
# hypotheses


def test_calibrated_family_passes_hypotheses():
    inst = progression_instance(10_000, 4.0, 0.05)
    rep = check_hypotheses(inst, 0.25, y=1e5)
    assert rep.all_ok, [c.to_dict() for c in rep.conditions if not c.ok]


def test_heavy_edge_fails_codegree_and_sparsity():
    inst = CoverInstance(vertices=np.arange(100, dtype=np.int64),
                         samplers=[FullEdge(100)] * 5, eta=0.05, C2=5.0)
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


def test_assign_indices_concentration_and_determinism():
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    s = 4000
    a = assign_indices(s, plan, substream(3, "assign"))
    b = assign_indices(s, plan, substream(3, "assign"))
    assert a == b
    for j, (lo, hi) in enumerate(plan.intervals, start=1):
        expect = s * (hi - lo)
        assert abs(len(a[j]) - expect) <= 3 * math.sqrt(s)
    used = [i for idxs in a.values() for i in idxs]
    assert len(used) == len(set(used))


def test_assign_indices_single_index():
    plan = plan_rounds(0.3, 0.25, 4.0, beta=4.0)
    assert plan.m == 1
    part = assign_indices(1, plan, substream(0, "a"))
    assert sum(len(v) for v in part.values()) <= 1


def test_assign_indices_retry_exhaustion():
    plan = plan_rounds(0.01, 0.25, 4.0, beta=4.0)
    with pytest.raises(DomainError):
        assign_indices(1, plan, substream(0, "a"))  # 4 rounds, 1 index


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
# run_cover


def test_run_cover_full_edge_covers_everything():
    n = 50
    inst = CoverInstance(vertices=np.arange(n, dtype=np.int64),
                         samplers=[FullEdge(n)], eta=0.05, C2=1.0)
    plan = plan_rounds(0.5, 0.25, 4.0, beta=4.0)
    part = assign_indices(1, plan, substream(1, "a"))
    if not any(part.values()):
        pytest.skip("index fell outside the marking intervals")
    res = run_cover(inst, plan, part, seed=2)
    assert res.uncovered_fraction == 0.0


def test_run_cover_zero_probability_vertex_stays_uncovered():
    n = 100
    inst = progression_instance(n, 4.0, 0.05)
    # extend the vertex set by one label no sampler can ever emit
    inst = CoverInstance(
        vertices=np.arange(n + 1, dtype=np.int64),
        samplers=inst.samplers, eta=inst.eta, C2=inst.C2)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, substream(4, "a"))
    res = run_cover(inst, plan, part, seed=5)
    assert n in set(int(v) for v in res.uncovered)


def test_run_cover_support_containment_replayable():
    inst = progression_instance(300, 4.0, 0.05)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    part = assign_indices(inst.s, plan, substream(6, "a"))
    seed = 7
    res = run_cover(inst, plan, part, seed)
    for j, idxs in part.items():
        for i in idxs[:40]:
            edge = res.chosen.get(i, ())
            if not edge:
                continue
            rng = substream(seed, "cover", j, i)
            draws = [tuple(int(v) for v in inst.samplers[i].sample(rng))
                     for _ in range(25_000)]
            assert edge in draws


def test_run_cover_tracks_recursion_kappa():
    inst = progression_instance(500, 4.0, 0.05)
    plan = plan_rounds(0.05, 0.25, 4.0, beta=4.0)
    fractions, kappas = [], []
    for t in range(60):
        part = assign_indices(inst.s, plan, substream(8, "a", t))
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
    part = assign_indices(inst.s, plan, substream(9, "a"))
    r1 = run_cover(inst, plan, part, seed=10)
    r2 = run_cover(inst, plan, part, seed=10)
    assert r1.chosen == r2.chosen
    assert list(r1.uncovered) == list(r2.uncovered)
