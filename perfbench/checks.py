"""Correctness checks on each op's report, run outside the timed section.

Every check returns ``None`` when the report is right and a one-line
reason otherwise.  Nothing here shares code with the program's own
membership checkers (``sift``, ``verify_empty``): the construct oracle,
the prime list and the closed forms are computed afresh.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

GOLDEN = json.loads(Path(__file__).with_name("golden.json")
                    .read_text(encoding="utf-8"))
REL_TOL = 1e-9          # reports print floats at 12 significant digits

CONSTRUCT_X = 10_000
FORCED_SCALES = [2.0, 3.0]


def mismatches(path: str, want, got) -> list[str]:
    """Differences between two JSON trees; floats compare to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return [f"{path}: keys differ from {sorted(want)}"]
        return [m for k in want
                for m in mismatches(f"{path}.{k}", want[k], got[k])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: expected a list of {len(want)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(f"{path}[{i}]", w, g)]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        ok = math.isclose(want, got, rel_tol=REL_TOL, abs_tol=1e-15)
    else:
        ok = type(want) is type(got) and want == got
    return [] if ok else [f"{path}: got {got!r}, expected {want!r}"]


@lru_cache(maxsize=None)
def primes_upto(limit: int) -> tuple[int, ...]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return tuple(int(p) for p in np.flatnonzero(flags))


def oracle_survivors(entries: dict[int, int],
                     table: dict[int, tuple[int, ...]],
                     lo: int, hi: int) -> np.ndarray:
    """The n in [lo, hi] with (n - b_p) % p outside I_p for every p.

    ``table`` maps each sieving prime p to I_p; ``entries`` maps p to the
    shift residue b_p (0 when absent).
    """
    n = np.arange(lo, hi + 1, dtype=np.int64)
    sieved = np.zeros(len(n), dtype=bool)
    for p, res in table.items():
        sieved |= np.isin((n - entries.get(p, 0)) % p, res)
    return n[~sieved]


# ---------------------------------------------------------------------------
# construct


def check_construct(kind: str, report: dict) -> str | None:
    r = report["result"]
    params = r["params"]
    mode = "sample" if kind == "default" else kind
    if r["mode"] != mode or params["x"] != CONSTRUCT_X:
        return "mode or x differ from the op's argv"
    if params["degraded"] != (kind == "default"):
        return f"stage 2 {'ran' if kind == 'default' else 'did not run'}"
    if kind != "default" and params["scales"] != FORCED_SCALES:
        return f"scales {params['scales']} != {FORCED_SCALES}"
    if r["lengths"] != [r["L"]] or not 1 <= r["L"] <= params["y"]:
        return f"L={r['L']} outside [1, y={params['y']}] or != lengths"
    if r["baseline_L"] < 1:
        return "baseline L < 1"
    if not 0 <= r["matched"] <= r["survivors_stage2"]:
        return "more matched primes than stage-2 survivors"
    if kind == "default" and r["survivors_stage1"] != r["survivors_stage2"]:
        return "survivors changed although stage 2 did not run"
    return None


def certify_construct(kind: str, seed: int, report: dict) -> str | None:
    """Re-run the op's construction and certify [1, L] with the oracle."""
    from sievegap.construction import construct, derive_params
    from sievegap.rng import derive_seed
    from sievegap.systems import eratosthenes

    system = eratosthenes()
    params = derive_params(system, CONSTRUCT_X, force_scales=(
        None if kind == "default" else FORCED_SCALES))
    # the CLI runs trial t = 0 with seed derive_seed(--seed, "construct", 0)
    res = construct(system, params, derive_seed(seed, "construct", 0),
                    mode="sample" if kind == "default" else kind)
    L = report["result"]["L"]
    if res.length != L:
        return f"re-run gives L={res.length}, report says {L}"
    return certify_empty(res.shift.entries, CONSTRUCT_X, L)


def certify_empty(entries: dict[int, int], x: int, L: int) -> str | None:
    """Eratosthenes (I_p = {0} for p <= x) shifted by ``entries`` must
    sieve every integer of [1, L]."""
    table = {p: (0,) for p in primes_upto(x)}
    left = oracle_survivors(entries, table, 1, L)
    if len(left):
        return f"oracle: {len(left)} survivors in [1, {L}], first {left[0]}"
    return None


# ---------------------------------------------------------------------------
# moments (criterion 06's parameters)


@lru_cache(maxsize=None)
def moment_constants() -> dict:
    """y, |Q_H|, sigma and sigma2 for x=2950, delta=0.001, z=200, H=3."""
    x, delta, z, H, K, M, xi = 2950, 0.001, 200, 3.0, 3, 4.6, 1.1
    lx = math.log(x)
    y = math.ceil(x * lx ** delta)
    rho_hat = len(primes_upto(x)) / (x / lx)
    cands = [q for q in primes_upto(int(y / H)) if q > y / (xi * H)]
    n_q = min(len(cands), max(1, round(rho_hat * (1 - 1 / xi) * y / (H * lx))))

    def density(lo: float, hi: float) -> float:
        out = Fraction(1)
        for p in primes_upto(int(hi)):
            if p > lo:
                out *= Fraction(p - 1, p)
        return float(out)

    return {"H": H, "K": K, "y": y, "n_q": n_q, "sigma": density(1, z),
            "sigma2": density(H ** M, z)}


def check_moments(identity: str, report: dict) -> str | None:
    r = report["result"]
    c = moment_constants()
    family, j = identity.split("-j")
    j = int(j)
    if r["identity"] != identity or r["trials"] != 10 or r["exact"]:
        return "identity, trial count or exact flag differ from the argv"
    extras = {k: c[k] for k in ("H", "K", "y", "n_q", "sigma2")}
    bad = mismatches("extras", extras, r["extras"])
    if bad:
        return bad[0]
    if family == "ii":
        predicted = ((c["K"] + 1) * c["y"]) ** j * c["n_q"]
    else:
        predicted = ((c["n_q"] * c["K"] * c["H"] / c["sigma2"]) ** j
                     * c["sigma"] * c["y"])
    if not math.isclose(r["predicted"], predicted, rel_tol=REL_TOL):
        return f"predicted {r['predicted']} != closed form {predicted}"
    for key in ("estimated", "std_error", "z_score"):
        if not math.isfinite(r[key]):
            return f"{key} is not finite"
    if r["estimated"] <= 0 or r["std_error"] < 0:
        return "estimate not positive or negative standard error"
    return None


# ---------------------------------------------------------------------------
# cover-demo (criterion 07's family, default delta = 0.25)


@lru_cache(maxsize=None)
def cover_plan() -> dict:
    """beta, m and the marking intervals for eta = 0.05, delta = 0.25 and
    C2 = 4, by their closed forms."""
    eta, delta, C2 = 0.05, 0.25, 4.0
    thr = 10.0 ** (2 * delta)
    k = 1
    while not thr > (thr + 0.1 * k) * math.log(thr + 0.1 * k) \
            / (thr + 0.1 * k - 1):
        k += 1
    beta = thr + 0.1 * k
    m = max(1, math.ceil(math.log(1 / eta) / math.log(beta)))
    bounds = [0.0]
    for i in range(1, m + 1):
        bounds.append(bounds[-1] + beta ** (1 - i) * math.log(beta) / C2)
    return {"beta": beta, "m": m,
            "intervals": [[a, b] for a, b in zip(bounds, bounds[1:])]}


CONDITIONS = ["edge_size", "sparsity", "codegree", "degree_uniform",
              "C2_range"]


def check_cover(report: dict) -> str | None:
    r = report["result"]
    bad = mismatches("plan", cover_plan(), r["plan"])
    if bad:
        return bad[0]
    hyp = r["hypotheses"]
    if [c["name"] for c in hyp["conditions"]] != CONDITIONS:
        return "hypothesis conditions differ"
    if not hyp["all_ok"] or not all(c["ok"] for c in hyp["conditions"]):
        return "a covering hypothesis fails on the calibrated family"
    worst = {c["name"]: c["worst"] for c in hyp["conditions"]}
    if (worst["edge_size"], worst["codegree"], worst["C2_range"]) != \
            (1.0, 0.0, 4.0) or not math.isclose(worst["sparsity"], 1e-4) \
            or worst["degree_uniform"] > 1e-9 or hyp["y"] != 1e5:
        return f"hypothesis values {worst} differ from the closed forms"
    u = r["uncovered"]
    if u["n"] != 2 or not 0 <= u["min"] <= u["median"] <= u["max"] <= 1:
        return f"uncovered stats malformed: {u}"
    if not math.isclose(u["median"], (u["min"] + u["max"]) / 2,
                        rel_tol=REL_TOL, abs_tol=1e-12):
        return "median of two trials is not their mean"
    threshold = 0.5
    success = ((u["min"] <= threshold) + (u["max"] <= threshold)) / 2
    if r["success_threshold"] != threshold or r["success_fraction"] != success:
        return "success fraction disagrees with the trial fractions"
    return None


# ---------------------------------------------------------------------------
# poly


def check_poly(kind: str, report: dict, golden: dict = GOLDEN) -> str | None:
    bad = mismatches(kind, golden[kind], report["result"])
    return bad[0] if bad else None


def check(workload: str, kind: str, seed: int | None,
          report: dict) -> str | None:
    """Dispatch to the workload's check; ``report`` is the parsed JSON."""
    if seed is not None and report["config"]["seed"] != seed:
        return f"config seed {report['config']['seed']} != op seed {seed}"
    if workload == "construct":
        return check_construct(kind, report)
    if workload == "moments":
        return check_moments(kind, report)
    if workload == "cover":
        return check_cover(report)
    return check_poly(kind, report)
