"""Three-stage randomized construction of a shift with a long empty
initial interval, plus the trivial baseline construction.

Stage 1 draws a uniform shift modulo the product of small primes.
Stage 2 greedily re-chooses residues modulo mid-size primes q, sampling
a class n_q with weight sigma2^{-|AP|} when the surviving portion of
the progression {n_q + q h} also survives the mid-range sieve.  Stage 3
matches each element still surviving in the target interval [1, y] with
a distinct large prime and sieves it away individually.  The certified
interval is [1, L] with L <= y: when stage 3 runs out of primes, L stops
just below the first unmatched survivor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cover as cover_mod
from .constants import c_rho
from .errors import DomainError, EnumerationLimitError
from .rng import derive_seed, uniform_residues, uniforms
from .systems import SievingSystem, estimate_rho, sigma
from .window import ShiftVector, _strike, sift, verify_empty

DEFAULT_M = 4.6
DEFAULT_K = 3
DEFAULT_XI = 1.1
CUM_BLOCK = 256      # weight-table cells per block sum
CUM_CHUNK = 32 * CUM_BLOCK   # cells expanded per pass over a table
MAX_TABLE_CELLS = 2 ** 30   # weight-table cells stage 2 may hold at once


@dataclass
class Params:
    """Derived parameters for the construction at cutoff x."""

    x: int
    delta: float
    M: float
    K: int
    xi: float
    y: int
    z: int
    z_eff: int                       # z clamped to x/2 so stage 3 has primes
    scales: list[float]
    Q: dict[float, list[int]]
    sigma2: dict[float, float]       # H -> density over (H^M, z_eff]
    degraded: bool
    rho_hat: float
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"x": self.x, "delta": self.delta, "M": self.M, "K": self.K,
                "xi": self.xi, "y": self.y, "z": self.z, "z_eff": self.z_eff,
                "scales": self.scales,
                "Q_sizes": {f"{H:.6g}": len(qs) for H, qs in self.Q.items()},
                "degraded": self.degraded, "rho_hat": self.rho_hat,
                "warnings": self.warnings}


def derive_params(system: SievingSystem, x: int, delta: float | None = None,
                  force_z: int | None = None,
                  force_scales: list[float] | None = None) -> Params:
    """Populate y, z, the scale set and the prime families Q_H.

    M, K and xi are DEFAULT_M, DEFAULT_K and DEFAULT_XI.
    y = ceil(x (log x)^delta); z = round(y loglog x / sqrt(log x));
    scales are the powers of xi inside [2y/x, y/(xi z)]; Q_H holds the
    smallest primes q in (y/(xi H), y/H] with a nonempty residue set,
    capped near rho_hat (1 - 1/xi) y / (H log x); sigma2[H] is the stage-2
    density product over the primes in (H^M, z_eff] (1 when H^M >= z_eff).
    """
    if x < 100:
        raise DomainError("x must be >= 100")
    if delta is not None and delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if force_z is not None and force_z < 1:
        raise DomainError(f"force_z must be >= 1, got {force_z}")
    warnings: list[str] = []
    rho_hat = estimate_rho(system, x)
    if rho_hat == 0:
        raise DomainError(f"no prime <= {x} has a forbidden class, so the "
                          f"system sieves nothing")
    if delta is None:
        delta = min(0.9 * c_rho(min(rho_hat, 1.0)), 0.45)
    elif delta >= c_rho(min(rho_hat, 1.0)):
        warnings.append(
            f"delta={delta} is at or above the admissible threshold "
            f"c_rho({rho_hat:.3f})")
    M, K, xi = DEFAULT_M, DEFAULT_K, DEFAULT_XI
    if not 4 + delta < M:
        raise DomainError(f"need 4 + delta < M = {M}, got delta={delta}")
    lx = math.log(x)
    y = math.ceil(x * lx ** delta)
    z = force_z if force_z is not None else round(y * math.log(lx) / math.sqrt(lx))
    z = max(z, 2)
    z_eff = min(z, x // 2)
    if z_eff != z:
        warnings.append(f"z={z} exceeds x/2; stages use z_eff={z_eff}")
    if force_scales is not None:
        if not all(H >= 1 for H in force_scales):
            raise DomainError(f"forced scales must be >= 1: {force_scales}")
        if len(set(force_scales)) < len(force_scales):
            raise DomainError(
                f"forced scales must be distinct: {force_scales}")
        scales = sorted(force_scales)
    else:
        lo, hi = 2 * y / x, y / (xi * z)
        scales = []
        if lo <= hi and lo > 0:
            j = math.ceil(math.log(lo) / math.log(xi))
            while xi ** j <= hi:
                if xi ** j >= lo:
                    scales.append(xi ** j)
                j += 1
    degraded = not scales
    Q: dict[float, list[int]] = {}
    for H in scales:
        cands = system.active_primes(y / H, y / (xi * H))
        target = max(1, round(rho_hat * (1 - 1 / xi) * y / (H * lx)))
        Q[H] = cands[: min(len(cands), target)]
    Q = {H: qs for H, qs in Q.items() if qs}
    if scales and not Q:
        degraded = True
        warnings.append("no scale has admissible primes; running degraded")
        scales = []
    sigma2 = {H: float(sigma(system, H ** M, z_eff)) if H ** M < z_eff
              else 1.0 for H in Q}
    return Params(x=x, delta=delta, M=M, K=K, xi=xi, y=y, z=z, z_eff=z_eff,
                  scales=scales, Q=Q, sigma2=sigma2, degraded=degraded,
                  rho_hat=rho_hat, warnings=warnings)


# ---------------------------------------------------------------------------
# stage 2: weights and selection


@dataclass
class WeightTable:
    H: float
    q: int
    n_lo: int                    # codes[k] is the cell of n = n_lo + k
    codes: np.ndarray            # |AP| per cell, or J + 1 where lambda = 0
    lut: np.ndarray              # lambda of each code, shared by a scale
    # float64 scratch of at least len(codes) cells, which the tables of one
    # build share.  No call leaves state in it, so the tables may be used
    # in any order.
    buf: np.ndarray = field(repr=False, compare=False)

    def _values(self) -> np.ndarray:
        """lambda of every cell, expanded into the float scratch CUM_CHUNK
        cells at a time."""
        size = len(self.codes)
        vals = self.buf[:size]
        for lo in range(0, size, CUM_CHUNK):
            self.lut.take(self.codes[lo:lo + CUM_CHUNK],
                          out=vals[lo:lo + CUM_CHUNK], mode="clip")
        return vals

    @cached_property
    def total(self) -> float:
        """numpy's pairwise sum of the whole table."""
        return float(self._values().sum())

    @cached_property
    def starts(self) -> np.ndarray:
        """The running sums of the block sums: one before each block of
        CUM_BLOCK cells and one after the last.  A block sum is numpy's
        sum() of the block's cells."""
        vals = self._values()
        full = len(vals) - len(vals) % CUM_BLOCK
        tail = [vals[full:].sum()] if full < len(vals) else []
        return np.cumsum(np.r_[
            0.0, vals[:full].reshape(-1, CUM_BLOCK).sum(axis=1), tail])

    def n_at(self, u):
        """The n drawn by each uniform in u (an array, or one float in
        [0, 1)).  With r = u total, the block is the last whose start is at
        most r, and the cell the first in it whose running sum from the
        block's start exceeds r - start.  Each is capped at the last block
        or cell where the running sums still grow, so no draw lands on a
        cell of weight 0."""
        if self.total <= 0:
            raise DomainError("cannot sample from an all-zero weight table")
        r = np.atleast_1d(np.asarray(u, dtype=float)) * self.total
        starts = self.starts
        b = np.minimum(np.searchsorted(starts, r, side="right"),
                       np.searchsorted(starts, starts[-1])) - 1
        # each draw's own block, zero-padded past the end of the table
        cell = (b * CUM_BLOCK)[:, None] + np.arange(CUM_BLOCK)
        block = np.where(cell < len(self.codes),
                         self.lut[self.codes.take(cell, mode="clip")], 0.0)
        c = np.cumsum(block, axis=1)
        k = np.minimum((c <= (r - starts[b])[:, None]).sum(axis=1),
                       (c < c[:, -1:]).sum(axis=1))
        n = self.n_lo + b * CUM_BLOCK + k
        return n if np.ndim(u) else int(n[0])


def weight_lut(sigma2: float, J: int) -> np.ndarray:
    """lambda by code: sigma2^{-k} for |AP| = k in 0..J, then 0 for the
    code J + 1 of a progression that fails the (H^M, z] sieve."""
    return np.r_[sigma2 ** -np.arange(J + 1, dtype=float), 0.0]


def build_weight_tables(system: SievingSystem, params: Params,
                        stage1_shift: ShiftVector,
                        H: float) -> dict[int, WeightTable]:
    """Vectorized lambda tables for every q in Q_H over n in (-Ky, y].

    lambda(H; q, n) = sigma2^{-|AP|} with AP = {n + q h : 1 <= h <= KH}
    intersected with S_{H^M} + b1, when every element of AP also survives
    the primes in (H^M, z]; otherwise 0.  The stage-1 shift has no residue
    above z, so S_{H^M} is sieved by the primes <= min(H^M, z) only.

    A table stores one code per cell, |AP| or J + 1 for 0: uint8 while
    J + 1 < 255, int16 above.  The scale's lookup table, sigma2^{-k} for
    k = 0..J followed by 0, maps codes to lambda.

    For each h, the members n + q h for all n form one contiguous slice of
    the window bitmaps.  Both bitmaps are packed into one, 1 per member
    and J + 2 per member failing the (H^M, z] sieve, in the narrowest
    unsigned type that holds J (J + 2); a table is then a sum of J shifted
    slices of it, clipped at J + 1.  The tables share the lookup table and
    one float scratch of (K+1)y cells, into which `total` and `starts`
    expand them.
    """
    K, y, M, z = params.K, params.y, params.M, params.z_eff
    HM = H ** M
    J = int(K * H)
    qs = params.Q[H]
    n_lo, n_hi = -K * y + 1, y
    lo_all = n_lo + min(qs)
    hi_all = n_hi + max(qs) * J
    width, cells = hi_all - lo_all + 1, n_hi - n_lo + 1
    x1 = min(HM, z)
    in_s1 = np.ones(width, dtype=bool)
    if system.active_primes(x1):
        in_s1 = sift(system, x1, stage1_shift, lo_all, hi_all).bits
    # a member of S_{H^M} + b1 adds 1, and one that some prime in (H^M, z]
    # removes J + 2: a sum of J slices is above J exactly when one fails
    w = in_s1.astype(np.min_scalar_type(J * (J + 2)))
    if system.active_primes(z, HM):
        s2 = sift(system, z, stage1_shift, lo_all, hi_all, z=HM)
        w[in_s1 & ~s2.bits] = J + 2
    lut = weight_lut(params.sigma2[H], J)
    code_type = np.uint8 if J + 1 < 255 else np.int16
    buf = np.empty(cells)
    out = {}
    for q in qs:
        off = n_lo + q - lo_all
        acc = w[off:off + cells].copy()
        for h in range(2, J + 1):
            off += q
            acc += w[off:off + cells]
        np.minimum(acc, J + 1, out=acc)
        out[q] = WeightTable(H=H, q=q, n_lo=n_lo, lut=lut,
                             codes=acc.astype(code_type, copy=False),
                             buf=buf)
    return out


class ProgressionEdge(cover_mod.EdgeSampler):
    """The edge of a drawn n_q: the positions in survivors, a sorted array,
    of the members of {n_q + q h : 1 <= h <= J}, J = len(table.lut) - 2."""

    def __init__(self, table: WeightTable, survivors: np.ndarray):
        self.tab = table
        self.survivors = survivors
        self.steps = table.q * np.arange(1, len(table.lut) - 1)

    def sample(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        surv = self.survivors
        ap = self.tab.n_at(u)[:, None] + self.steps[None, :]
        pos = np.minimum(np.searchsorted(surv, ap), len(surv) - 1)
        hit = surv[pos] == ap
        return pos[hit], hit.sum(axis=1)


@dataclass
class Stage2Result:
    chosen: dict[int, int]          # q -> n_q
    rejected: list[int]             # q with all-zero weight table
    tables_built: int


def stage2_select(system: SievingSystem, params: Params,
                  stage1_shift: ShiftVector, survivors: np.ndarray,
                  seed: int, mode: str = "sample") -> Stage2Result:
    """Choose n_q for each admissible q, with probability lambda / total.

    mode "sample" draws independently per q, from each scale's tables as
    soon as they are built; mode "cover" instead runs the covering rounds
    over the stage-1 survivors in [1, y] using the sampled progressions as
    edges, re-drawing n_q for indices whose edge must land inside the
    still-alive set (with no survivors left it draws as "sample" does).
    q's whose weight table is identically zero are reported as rejected.
    Raises EnumerationLimitError, before building any table, when the
    tables held at once would exceed MAX_TABLE_CELLS cells: every table in
    cover mode, one scale's in sample mode.
    """
    if mode not in ("sample", "cover"):
        raise DomainError(f"unknown stage-2 mode {mode!r}")
    cells = [len(qs) * (params.K + 1) * params.y for qs in params.Q.values()]
    held = sum(cells) if mode == "cover" else max(cells, default=0)
    if held > MAX_TABLE_CELLS:
        raise EnumerationLimitError(
            f"stage 2 would hold {held} weight-table cells at once, above "
            f"{MAX_TABLE_CELLS}; use a smaller --x or fewer --force-scales")
    surv = survivors if mode == "cover" else ()
    rejected: list[int] = []
    built = 0
    all_tables: dict[int, WeightTable] = {}      # kept only for covering
    chosen: dict[int, int] = {}
    key = derive_seed(seed, "stage2")
    for H in params.Q:
        # iterating the returned dict holds no other reference to it, so a
        # scale's tables that are drawn at once are freed before the next
        for q, tab in build_weight_tables(system, params, stage1_shift,
                                          H).items():
            built += 1
            if tab.total <= 0:
                rejected.append(q)
            elif len(surv):
                all_tables[q] = tab
            else:
                chosen[q] = tab.n_at(uniforms(key, q, 0))
    if not all_tables:
        return Stage2Result(chosen=dict(sorted(chosen.items())),
                            rejected=rejected, tables_built=built)
    order = sorted(all_tables)
    samplers = [ProgressionEdge(all_tables[q], surv) for q in order]
    inst = cover_mod.CoverInstance(vertices=surv, samplers=samplers,
                                   group=np.arange(len(samplers)),
                                   eta=0.05, C2=1.0)
    # simple even plan over at most three rounds (never more rounds than
    # samplers): the q family at desk scale is too small for the
    # asymptotic interval lengths to apply.  The intervals tile [0, 1), so
    # every index lands in a round and draws at least once: its last draw
    # is its n_q.
    m = min(3, len(samplers))
    plan = cover_mod.RoundPlan(beta=3.3, m=m, intervals=[
        (j / m, (j + 1) / m) for j in range(m)])
    part = cover_mod.assign_indices(len(samplers), plan,
                                    derive_seed(seed, "stage2-assign"))
    res = cover_mod.run_cover(inst, plan, part,
                              derive_seed(seed, "stage2-cover"))
    chosen = {q: all_tables[q].n_at(res.last_u[i])
              for i, q in enumerate(order)}
    return Stage2Result(chosen=chosen, rejected=rejected, tables_built=built)


def apply_stage2(system: SievingSystem, shift: ShiftVector,
                 chosen: dict[int, int]) -> ShiftVector:
    """Override the shift at each chosen q so the class of n_q is sieved.

    Sieving removes n with (n - b) mod q in I_q; choosing
    b = n_q - min(I_q) puts the whole class n = n_q (mod q) among the
    removed integers without requiring pre-normalized residue sets.
    """
    q = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    n_q = np.fromiter(chosen.values(), dtype=np.int64, count=len(chosen))
    least = ShiftVector().with_residues(*system.least_classes(  # min I_p
        q.max(initial=0), q.min(initial=2) - 1))
    empty = q[~least.fixes(q)]
    if len(empty):
        raise DomainError(f"q={empty[0]} has an empty residue set")
    return shift.with_residues(q, n_q - least.at(q))


# ---------------------------------------------------------------------------
# stage 3


@dataclass
class Stage3Result:
    ok: bool                        # the full target [1, y] was met
    shift: ShiftVector
    length: int                     # L: [1, L] is certified empty
    survivors: int
    available: int
    matched: int


def _survivors_above(system: SievingSystem, shift: ShiftVector,
                     cutoff: int, y: int) -> np.ndarray:
    """Members of [1, y] surviving primes <= cutoff and every shift entry
    already fixed for a prime > cutoff."""
    win = sift(system, cutoff, shift, 1, y)
    p, r = system.classes(shift.p.max(initial=cutoff), cutoff)
    keep = shift.fixes(p)
    _strike(win.bits, 1, p[keep], r[keep], shift)
    return win.members()


def stage3_cleanup(system: SievingSystem, x: int, partial_shift: ShiftVector,
                   y: int, survivors: np.ndarray, key: int,
                   z_mid: int) -> Stage3Result:
    """Match survivors, the sorted int64 array of the members of [1, y]
    left by partial_shift, with distinct primes q in (z_mid, x], then
    certify [1, L] empty.

    Each survivor m gets b = m - min(I_q) (mod q) for the smallest
    unused admissible q, so m is sieved by q; an unmatched large prime q
    gets rng.uniform_residues(key, q).  Primes fixed by an earlier stage
    keep their residues.  When survivors outnumber the available primes
    the target shrinks to L = (first unmatched survivor) - 1 and ok is
    False; otherwise L = y.  A wrong survivor array gives no false
    certificate: a failed certification raises.
    """
    qs, least = system.least_classes(x, z_mid)
    free = ~partial_shift.fixes(qs)
    large, least = qs[free], least[free]
    ok = len(survivors) <= len(large)
    length = y if ok else int(survivors[len(large)]) - 1
    matched = min(len(survivors), len(large))
    b = uniform_residues(key, large)         # kept by the unmatched primes
    b[:matched] = survivors[:matched] - least[:matched]
    shift = partial_shift.with_residues(large, b)
    if not verify_empty(system, x, shift, 1, length):
        raise DomainError("internal error: certification failed after cleanup")
    return Stage3Result(ok=ok, shift=shift, length=length,
                        survivors=len(survivors), available=len(large),
                        matched=matched)


# ---------------------------------------------------------------------------
# full pipelines


@dataclass
class ConstructResult:
    shift: ShiftVector
    length: int
    params: Params
    survivors_stage1: int
    survivors_stage2: int
    matched: int
    rejected_q: list[int]
    mode: str

    def to_dict(self) -> dict:
        return {"L": self.length, "params": self.params.to_dict(),
                "survivors_stage1": self.survivors_stage1,
                "survivors_stage2": self.survivors_stage2,
                "matched": self.matched,
                "rejected_q_count": len(self.rejected_q),
                "mode": self.mode}


def construct(system: SievingSystem, params: Params, seed: int,
              mode: str = "sample") -> ConstructResult:
    """Run stages 1-3 and certify the empty interval [1, L], L <= y."""
    z = params.z_eff
    b1 = ShiftVector.uniform(system, z, derive_seed(seed, "stage1"))
    members = sift(system, z, b1, 1, params.y).members()
    rejected: list[int] = []
    partial, survivors = b1, members
    if not params.degraded:
        r2 = stage2_select(system, params, b1, members, seed, mode=mode)
        rejected = r2.rejected
        partial = apply_stage2(system, b1, r2.chosen)
        # a chosen q <= z replaces b1's class at q, which members can't restore
        survivors = _survivors_above(system, partial, z, params.y)
    r3 = stage3_cleanup(system, params.x, partial, params.y, survivors,
                        derive_seed(seed, "stage3"), z_mid=z)
    return ConstructResult(shift=r3.shift, length=r3.length, params=params,
                           survivors_stage1=len(members),
                           survivors_stage2=r3.survivors,
                           matched=r3.matched, rejected_q=rejected, mode=mode)


def trivial_baseline(system: SievingSystem, x: int, seed: int) -> Stage3Result:
    """Uniform shift mod P(x/2) plus clean-up over (x/2, x].

    The target interval is [1, rho x / (8 C1)] with rho and C1 estimated
    empirically; stage 3 stops L short of it when survivors outnumber
    the available clean-up primes.  The shift has no entry above x/2, so
    one sift up to x/2 gives the survivors.
    """
    if x < 100:
        raise DomainError("x must be >= 100")
    rho_hat = estimate_rho(system, x)
    c1_hat = float(sigma(system, 1, x)) * math.log(x)
    target = max(1, math.floor(rho_hat * x / (8 * c1_hat))) if c1_hat > 0 \
        else x // 4
    b1 = ShiftVector.uniform(system, x // 2, derive_seed(seed, "stage1"))
    survivors = sift(system, x // 2, b1, 1, target).members()
    return stage3_cleanup(system, x, b1, target, survivors,
                          derive_seed(seed, "stage3"), z_mid=x // 2)
