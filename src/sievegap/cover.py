"""Hypergraph covering rounds: hypothesis checks, round planning, and a
semi-random covering procedure verified statistically.

An instance is a vertex array, a list of random-edge samplers with exact
per-vertex inclusion probabilities, and s indices, each naming the
sampler it draws from; the probabilities summed over the indices come
to roughly a constant C2 per vertex.  A sampler draws edges as positions
into the vertex array; the vertices' labels only name them in reports.
The covering procedure assigns each index to one of m rounds via a
uniform mark falling into disjoint intervals of geometric lengths, then
greedily keeps sampled edges that lie inside the set of vertices still
alive at the start of their round.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, fits_in_memory
from .rng import derive_seed, uniforms

ASSIGN_RETRY_CAP = 100
RESAMPLE_FACTOR = 5.0       # attempts per index ~ factor / alive fraction
RESAMPLE_HARD_CAP = 20_000  # < 2^rng.ATTEMPT_BITS, so attempts never collide
MAX_EDGES = 1 << 40         # rng.uniforms keeps indices below 2^40 apart
DEGREE_CHUNK = 1 << 22      # partial sums the degree checks hold at once
DRAW_BLOCK = 1 << 18        # draws one block of covering attempts holds


class EdgeSampler:
    """A random edge: subsets of V with known inclusion probabilities.

    An edge is a function of one uniform in [0, 1), so a batch of draws
    is one array of uniforms.
    """

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges drawn by the uniforms u, as (members, sizes): edge k
        is the sizes[k] vertex positions, indices into the instance's
        vertices in [0, N), that follow the first k edges in members."""
        raise NotImplementedError

    def max_size(self) -> int:
        raise NotImplementedError

    def inclusion_probs(self, vertices: np.ndarray) -> np.ndarray:
        """Pr(v in e) for each v in vertices."""
        raise NotImplementedError

    def codegree_bound(self) -> float:
        """An upper bound on max_{v != w} Pr(v in e and w in e)."""
        raise NotImplementedError


class ProgressionSampler(EdgeSampler):
    """Edge = {a + q h : 1 <= h <= L} intersected with V = [0, N).

    The anchor a is chosen by picking a uniform vertex v and a uniform
    offset h* in [1, L], setting a = v - q h*.  The step q is >= N, so
    only h = h* lands in V: every edge is the singleton {v}, whatever q,
    h* and L are, with Pr(v in e) = 1/N exactly and zero codegree.  A
    draw therefore needs one uniform u, for v = floor(u N).
    """

    def __init__(self, n_vertices: int):
        self.n = n_vertices

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v = np.minimum((u * self.n).astype(np.int64), self.n - 1)
        return v, np.ones(len(v), dtype=np.int64)

    def inclusion_probs(self, vertices: np.ndarray) -> np.ndarray:
        return np.full(len(vertices), 1.0 / self.n)

    def max_size(self) -> int:
        return 1

    def codegree_bound(self) -> float:
        return 0.0


@dataclass
class CoverInstance:
    # integer labels, naming in reports the vertices that samplers draw
    # as positions 0..N-1 of this array
    vertices: np.ndarray
    samplers: list[EdgeSampler]   # the edge distributions
    group: np.ndarray             # intp: index i draws from samplers[group[i]]
    eta: float
    C2: float

    @property
    def s(self) -> int:
        return len(self.group)


def progression_instance(n_vertices: int, C2: float, eta: float,
                         edges: int | None = None) -> CoverInstance:
    """The calibrated synthetic family: C2 * N singleton-progression
    edges (or `edges` of them), all drawn from one sampler.  N and the
    edge count must each lie in [1, 2^40), and a vertex or group array
    too large for memory is refused with its size."""
    s = int(round(C2 * n_vertices)) if edges is None else edges
    if not (1 <= n_vertices < MAX_EDGES and 1 <= s < MAX_EDGES):
        raise DomainError(f"need 1 to 2^40 - 1 vertices and edges, got "
                          f"N={n_vertices} and {s:.6g} edges")
    with fits_in_memory(f"a family of {n_vertices} vertices"):
        vertices = np.arange(n_vertices, dtype=np.int64)
    with fits_in_memory(f"a family of {s} edges"):
        group = np.zeros(s, dtype=np.intp)
    return CoverInstance(vertices=vertices,
                         samplers=[ProgressionSampler(n_vertices)],
                         group=group, eta=eta, C2=C2)


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass
class ConditionReport:
    name: str
    ok: bool
    worst: float
    threshold: float
    offender: object = None

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "worst": self.worst,
                "threshold": self.threshold,
                "offender": None if self.offender is None else str(self.offender)}


@dataclass
class HypothesisReport:
    y: float
    conditions: list[ConditionReport]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def to_dict(self) -> dict:
        return {"y": self.y, "all_ok": self.all_ok,
                "conditions": [c.to_dict() for c in self.conditions]}


def sequential_sum(values) -> float:
    """The floats of values added left to right from 0.0, as the builtin
    sum adds them up to Python 3.11.  np.sum adds pairwise, and sum()
    compensates from Python 3.12 on; a running sum does neither."""
    return float(np.cumsum(np.r_[0.0, values])[-1])


def _gathered_sum(values: np.ndarray, index: np.ndarray) -> float:
    """sequential_sum(values[index]), gathered DEGREE_CHUNK terms at a
    time: each chunk adds the running total into its first term, so the
    additions and their order are those of one pass."""
    total = 0.0
    for c in range(0, len(index), DEGREE_CHUNK):
        part = values[index[c:c + DEGREE_CHUNK]]
        part[0] += total
        total = float(np.add.accumulate(part, out=part)[-1])
    return total


def _degree_sums(probs: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """sum_k probs[seq[k]] for each vertex, added in the order of seq as
    the loop degree += probs[seq[k]] adds it.

    Vertices whose probabilities agree in every row of probs see the same
    sequence of terms, so the sequential sum (np.add.accumulate, never
    pairwise) runs once per distinct column of probs, DEGREE_CHUNK
    partial sums at a time.  Equal columns are found as neighbours in
    lexicographic order.
    """
    order = np.lexsort(probs[::-1])
    srt = probs[:, order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(srt[:, 1:] != srt[:, :-1], axis=0)
    cols = srt[:, new]
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    sums = np.empty(cols.shape[1])
    step = max(1, DEGREE_CHUNK // len(seq))
    for c in range(0, len(sums), step):
        part = cols[seq, c:c + step]
        sums[c:c + step] = np.add.accumulate(part, axis=0, out=part)[-1]
    return sums[inv]


def _sampler_rows(instance: CoverInstance):
    """(distinct, probs, row): the samplers some index draws from, in
    order; their inclusion probabilities, one row per sampler; and for
    each index i, the row of the sampler it draws from."""
    used = np.bincount(instance.group, minlength=len(instance.samplers)) > 0
    distinct = [instance.samplers[g] for g in np.flatnonzero(used).tolist()]
    probs = np.stack([sm.inclusion_probs(instance.vertices)
                      for sm in distinct])
    return distinct, probs, (np.cumsum(used) - 1)[instance.group]


def check_hypotheses(instance: CoverInstance, delta: float,
                     y: float) -> HypothesisReport:
    """Verify the covering hypotheses at scale y, which must exceed e^e.

    Checks: edge-size cap (log y)^{1/2}/loglog y, per-edge sparsity
    y^{-1/2-1/100}, codegree sum y^{-1/2}, per-vertex degree sum within
    eta of C2, and 10^{2 delta} <= C2 <= 100, for 0 < delta < 1/2.
    """
    _check_delta(delta)
    if y <= math.e ** math.e:
        raise DomainError("scale y too small for the size cap to make sense")
    conds: list[ConditionReport] = []
    distinct, probs, row = _sampler_rows(instance)

    size_cap = math.sqrt(math.log(y)) / math.log(math.log(y))
    worst_size = max(sm.max_size() for sm in distinct)
    conds.append(ConditionReport("edge_size", worst_size <= size_cap,
                                 float(worst_size), size_cap))

    # the offender is the first index whose sampler has the largest prob
    sparsity_cap = y ** (-0.5 - 0.01)
    peak = probs.max(axis=1)
    worst_p = float(peak.max())
    i = int(np.argmax((peak == worst_p)[row]))
    j = int(np.argmax(probs[row[i]]))
    worst_v = (i, int(instance.vertices[j])) if worst_p > 0 else None
    conds.append(ConditionReport("sparsity", worst_p <= sparsity_cap,
                                 worst_p, sparsity_cap, worst_v))

    codeg_cap = y ** -0.5
    bounds = np.array([sm.codegree_bound() for sm in distinct], dtype=float)
    codeg = _gathered_sum(bounds, row)           # in index order
    conds.append(ConditionReport("codegree", codeg <= codeg_cap,
                                 codeg, codeg_cap))

    degree = _degree_sums(probs, row)
    dev = np.abs(degree - instance.C2)
    j = int(np.argmax(dev))
    conds.append(ConditionReport("degree_uniform", float(dev[j]) <= instance.eta,
                                 float(dev[j]), instance.eta,
                                 int(instance.vertices[j])))

    lo = 10.0 ** (2 * delta)
    ok = lo <= instance.C2 <= 100.0
    conds.append(ConditionReport("C2_range", ok, instance.C2,
                                 lo, "C2 must lie in [10^{2 delta}, 100]"))
    return HypothesisReport(y=y, conditions=conds)


# ---------------------------------------------------------------------------
# round planning


@dataclass
class RoundPlan:
    beta: float
    m: int
    intervals: list[tuple[float, float]]   # disjoint [a, b) inside [0, 1]


def _check_delta(delta: float) -> None:
    if not 0 < delta < 0.5:
        raise DomainError("delta must lie in (0, 1/2)")


def _beta_admissible(beta: float, delta: float) -> bool:
    thr = 10.0 ** (2 * delta)
    return beta > thr and thr > beta * math.log(beta) / (beta - 1)


def plan_rounds(eta: float, delta: float, C2: float,
                beta: float | None = None) -> RoundPlan:
    """Choose beta, the round count m, and the marking intervals.

    beta must satisfy beta > 10^{2 delta} > beta log beta / (beta - 1).
    It defaults to 10^{2 delta} + 0.1, the first value of the grid
    10^{2 delta} + 0.1 k (k >= 1): every grid value passes the first
    inequality, and beta log beta / (beta - 1) increases for beta > 1,
    so the grid holds an admissible value exactly when its first value
    is one.  An explicit beta is accepted if it satisfies both.
    m = ceil(log(1/eta) / log beta); interval j has length
    beta^{1-j} log(beta) / C2.
    """
    if not 0 < eta < 1:
        raise DomainError("eta must lie in (0, 1)")
    _check_delta(delta)
    if beta is None:
        beta = 10.0 ** (2 * delta) + 0.1
        if not _beta_admissible(beta, delta):
            raise DomainError("no admissible beta found on the grid")
    elif not _beta_admissible(beta, delta):
        raise DomainError(f"beta={beta} violates the admissibility inequalities")
    m = max(1, math.ceil(math.log(1 / eta) / math.log(beta)))
    intervals = []
    t = 0.0
    for j in range(1, m + 1):
        length = beta ** (1 - j) * math.log(beta) / C2
        intervals.append((t, t + length))
        t += length
    if t > 1.0 + 1e-12:
        raise DomainError(
            f"interval lengths sum to {t:.4f} > 1; C2 too small for beta={beta}")
    return RoundPlan(beta=beta, m=m, intervals=intervals)


def _partition(marks: np.ndarray, bounds: np.ndarray) -> dict[int, np.ndarray]:
    """Round j = 1..m receives {i : bounds[2j-2] <= marks[i] < bounds[2j-1]},
    in increasing order of i, for nondecreasing bounds a_1, b_1, ...,
    a_m, b_m; a mark in no interval is in no round."""
    # a mark in [a_j, b_j) has exactly 2j - 1 bounds at or below it
    pos = np.searchsorted(bounds, marks, side="right")
    used = np.flatnonzero(pos % 2 == 1)
    rounds = (pos[used] + 1) // 2
    return {j: used[rounds == j] for j in range(1, len(bounds) // 2 + 1)}


def assign_indices(s: int, plan: RoundPlan,
                   key: int) -> dict[int, np.ndarray]:
    """Marks t_i = rng.uniforms(key, i, a), i = 0..s-1, at attempt a = 0;
    round j receives the intp array of {i : t_i in interval j}, in
    increasing order, and indices in no interval stay unused.  While some
    round is empty, the marking is redrawn at a + 1 (bounded retries).
    The intervals must be disjoint and in increasing order, as
    plan_rounds makes them, and s must be at least plan.m; either is
    refused before any draw.
    """
    bounds = np.array([e for ab in plan.intervals for e in ab], dtype=float)
    if np.any(np.diff(bounds) < 0):
        raise DomainError("marking intervals must be disjoint and increasing")
    if s < plan.m:
        raise DomainError(f"{plan.m} rounds need at least {plan.m} "
                          f"indices, got {s}")
    for attempt in range(ASSIGN_RETRY_CAP):
        part = _partition(uniforms(key, np.arange(s), attempt), bounds)
        if all(len(idxs) for idxs in part.values()):
            return part
    raise DomainError("could not draw a marking with all rounds nonempty")


# ---------------------------------------------------------------------------
# degree profile and the P_j recursion


@dataclass
class DegreeProfile:
    degrees: np.ndarray      # shape (m, N): d_{I_j}(v)
    P: np.ndarray            # shape (m + 1, N): P_0 = 1, recursion below
    kappa: float             # min_v P_m(v)


def degree_profile(instance: CoverInstance,
                   partition: dict[int, Sequence[int]]) -> DegreeProfile:
    """d_{I_j}(v) = sum of inclusion probabilities over round j, and the
    recursion P_{j+1}(v) = P_j(v) exp(-d_{I_{j+1}}(v) / P_j(v)).

    partition maps round j to its indices, as any int sequence (a list
    or an index array, as assign_indices returns)."""
    n = len(instance.vertices)
    m = max(partition) if partition else 0
    degrees = np.zeros((m, n))
    _, probs, row = _sampler_rows(instance)
    for j, idxs in partition.items():
        if len(idxs):
            degrees[j - 1] = _degree_sums(
                probs, row[np.asarray(idxs, dtype=np.intp)])
    P = np.ones((m + 1, n))
    for j in range(m):
        P[j + 1] = P[j] * np.exp(-degrees[j] / P[j])
    return DegreeProfile(degrees=degrees, P=P, kappa=float(P[m].min()))


# ---------------------------------------------------------------------------
# the covering procedure


@dataclass
class CoverResult:
    # accepted[i] says index i kept an edge; last_u[i] is the uniform of
    # its last draw, the accepted one (the edge samplers[group[i]].sample(
    # last_u[i:i + 1])) or else its attempt_cap-th (NaN in no round)
    accepted: np.ndarray
    last_u: np.ndarray
    uncovered: np.ndarray
    uncovered_fraction: float
    rounds_trace: list[dict]


def _draw_round(instance: CoverInstance, idx: np.ndarray, key: int,
                cap: int, alive: np.ndarray):
    """Attempts t = 0..cap-1 of the round's index array idx, in blocks: a
    block draws attempts t..t+w-1 of every index still pending, with one
    sample call per sampler they draw from, and each index keeps the
    first of them that it accepts.  The width w starts at 1 and doubles
    while the block holds at most DRAW_BLOCK draws; past DRAW_BLOCK
    pending indices, a block draws in slices of DRAW_BLOCK indices.

    Returns, per position of idx, whether an attempt drew an edge that
    is nonempty and lies inside alive, and the uniform of that attempt
    (else of attempt cap-1); then the members of every accepted edge.
    A drawn member outside [0, len(alive)) is refused.
    """
    grp = instance.group[idx]
    # pending holds positions of idx, kept sorted by group so that each
    # sampler's draws of a block form one contiguous slice
    pending = np.argsort(grp, kind="stable")
    accepted = np.zeros(len(idx), dtype=bool)
    last_u = np.empty(len(idx))
    kept = [np.empty(0, dtype=np.int64)]
    t = 0
    while t < cap and len(pending):
        w = max(1, min(cap - t, t, DRAW_BLOCK // len(pending)))
        missed = []
        for lo in range(0, len(pending), DRAW_BLOCK):
            pos = pending[lo:lo + DRAW_BLOCK]
            # draw r * w + k is attempt t + k of the index at pos[r]
            u = uniforms(key, idx[pos, None], t + np.arange(w)).ravel()
            g = grp[pos]
            cuts = (np.flatnonzero(g[1:] != g[:-1]) + 1) * w
            drawn = [instance.samplers[g[c // w]].sample(us)
                     for c, us in zip([0, *cuts], np.split(u, cuts))]
            members = np.concatenate([m for m, _ in drawn])
            sizes = np.concatenate([n for _, n in drawn])
            if len(members) and not (
                    0 <= members.min() <= members.max() < len(alive)):
                raise DomainError(
                    "a sampler drew a vertex outside the instance")
            owner = np.repeat(np.arange(len(u)), sizes)
            ok = (sizes > 0) & (np.bincount(owner[alive[members]],
                                            minlength=len(u)) == sizes)
            ok = ok.reshape(-1, w)
            hit = ok.any(axis=1)
            # each index's first accepted draw of the block, else its last
            pick = np.arange(0, len(u), w) + np.where(
                hit, ok.argmax(axis=1), w - 1)
            last_u[pos] = u[pick]
            first = np.zeros(len(u), dtype=bool)
            first[pick[hit]] = True
            kept.append(members[first[owner]])
            accepted[pos[hit]] = True
            missed.append(pos[~hit])
        t += w
        pending = np.concatenate(missed)
    return accepted, last_u, np.concatenate(kept)


def run_cover(instance: CoverInstance, plan: RoundPlan,
              partition: dict[int, Sequence[int]], seed: int) -> CoverResult:
    """Rounds j = 1..m: each index i in round j redraws its edge until it
    lies inside the set of vertices alive at the start of the round.

    Freezing the alive set per round makes indices within a round
    exchangeable (parallel semantics); the redraw conditions the edge on
    the alive set, so per-vertex hit rates scale like d_{I_j}(v) divided
    by the alive fraction, tracking the P_j recursion.  Attempts are
    capped; an index that never lands inside the alive set contributes
    the empty edge.  Every accepted edge is literally a sampler output:
    attempt t of index i in round j is the edge of the uniform
    rng.uniforms(derive_seed(seed, "cover", j), i, t), and the accepted
    edge is the first of attempts 0, 1, ... inside the alive set.
    Because of the freeze, a round draws a block of attempts of all its
    pending indices at once (see _draw_round).  Edges are positions into
    instance.vertices, and uncovered lists the labels of the vertices
    left alive.  partition maps round j to its indices, as any int
    sequence (a list or an index array, as assign_indices returns); a
    round it lacks has no indices.
    """
    alive = np.ones(len(instance.vertices), dtype=bool)
    accepted = np.zeros(instance.s, dtype=bool)
    last_u = np.full(instance.s, np.nan)
    trace = []
    for j in range(1, plan.m + 1):
        alive_start = alive.copy()
        frac = alive_start.mean()
        cap = min(RESAMPLE_HARD_CAP,
                  max(1, int(math.ceil(RESAMPLE_FACTOR / max(frac, 1e-9)))))
        idxs = np.asarray(partition.get(j, ()), dtype=np.intp)
        ok, last_u[idxs], members = _draw_round(
            instance, idxs, derive_seed(seed, "cover", j), cap, alive_start)
        accepted[idxs] = ok
        alive[members] = False
        trace.append({"round": j, "alive_fraction_start": float(frac),
                      "indices": len(idxs), "accepted": int(ok.sum()),
                      "attempt_cap": cap})
    return CoverResult(accepted=accepted, last_u=last_u,
                       uncovered=instance.vertices[alive],
                       uncovered_fraction=float(alive.mean()),
                       rounds_trace=trace)
