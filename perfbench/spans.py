"""In-memory span tracing of the program's public functions.

``Tracer.patch`` replaces every public function of each traced sievegap
module, in every sievegap namespace that imported it, with a wrapper
that records a span: name, start, end, parent span and op id.  The
public methods of ``SievingSystem`` and ``ProgressionSampler`` are
patched on the class.  A few wrappers also record one or two integers
about the call (a window width, a cache-repeat flag, ...), so that ratios
are measured where the work happens.  Spans stay in flat arrays until
the run ends; ``layer_metrics`` derives per-op self times, counts and
shares from them, and ``save`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# the package modules that are layers; constants and errors are too cheap
# to matter and stay untraced
LAYERS = ("cli", "systems", "primes", "window", "construction", "cover",
          "rng", "moments", "applications")
CLASSES = (("systems", "SievingSystem"), ("cover", "ProgressionSampler"))


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _width(args, kwargs, result) -> int:
    lo, hi = _arg(args, kwargs, 3, "lo"), _arg(args, kwargs, 4, "hi")
    return max(0, hi - lo + 1)


def _cells(args, kwargs, result) -> int:
    """|Q_H| (K+1) y floor(KH): the weight-table cells one call fills."""
    params, H = _arg(args, kwargs, 1, "params"), _arg(args, kwargs, 3, "H")
    return len(params.Q[H]) * (params.K + 1) * params.y * int(params.K * H)


# span name -> hook(args, kwargs, result) -> (a, b), recorded after the call
POST_HOOKS = {
    "window.sift": lambda a, k, r: (_width(a, k, r), 0),
    "window.verify_empty": lambda a, k, r: (_width(a, k, r), 0),
    "construction.build_weight_tables": lambda a, k, r: (_cells(a, k, r), 0),
    "construction.stage2_select":
        lambda a, k, r: (len(r.rejected), r.tables_built),
    "construction.stage3_cleanup": lambda a, k, r: (0 if r.ok else 1, 0),
    "cover.run_cover":
        lambda a, k, r: (sum(t["accepted"] for t in r.rounds_trace), 0),
    "moments.mc_lambda_moments": lambda a, k, r: (r.trials, 0),
    "applications.composite_run_bruteforce":
        lambda a, k, r: (_arg(a, k, 1, "X"), 0),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.a = array("q")
        self.b = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._seen: dict[object, set[int]] = {}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen = {}

    # -- patching -----------------------------------------------------------

    def _residue_repeat(self, args, kwargs) -> int:
        """1 when this system object was already asked for this prime in
        the current op: the lookups a residue cache can serve."""
        seen = self._seen.setdefault(args[0], set())
        p = _arg(args, kwargs, 1, "p")
        if p in seen:
            return 1
        seen.add(p)
        return 0

    def _wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        start, end, name, parent = self.start, self.end, self.name, self.parent
        a_arr, b_arr, op, stack = self.a, self.b, self.op, self._stack
        post = POST_HOOKS.get(label)
        pre = self._residue_repeat if label == "systems.residues" else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            a_arr.append(pre(args, kwargs) if pre else 0)
            b_arr.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post:
                a_arr[i], b_arr[i] = post(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self) -> None:
        mods = {layer: importlib.import_module(f"sievegap.{layer}")
                for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sievegap" or n.startswith("sievegap.")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, alias, wrapper)
        for layer, cls_name in CLASSES:
            cls = getattr(mods[layer], cls_name)
            for attr, fn in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(fn):
                    self._replace(cls, attr, self._wrap(f"{layer}.{attr}", fn))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "a": np.frombuffer(self.a, dtype=np.int64),
                "b": np.frombuffer(self.b, dtype=np.int64)}

    def save(self, path: Path, op_kinds: list[str]) -> None:
        """Write the spans as one compressed .npz: parallel arrays indexed
        by span, ``names[name]`` is the span's function, ``parent`` is -1
        at the top, and ``op_kinds[op]`` is the kind of the span's op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            op_kinds=np.array(op_kinds), **self.arrays())


def layer_metrics(tr: Tracer, op_kinds: list[str]) -> dict[str, float]:
    """Per-op self times and counts, ratios and shares, from the spans.

    ``op_kinds[i]`` is the kind of traced op i.  Self time is a span's
    duration minus its children's; single-threaded spans nest, so the
    children never overlap.  A ratio with nothing to divide reads 0.
    """
    s = tr.arrays()
    dur = s["end"] - s["start"]
    parent, a, b = s["parent"], s["a"], s["b"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_t = dur - child
    kinds = np.array(op_kinds)
    n_ops = len(op_kinds)
    ids = {label: i for i, label in enumerate(tr.names)}

    def is_(label: str) -> np.ndarray:
        return s["name"] == ids.get(label, -1)

    def in_kind(kind: str) -> np.ndarray:
        return kinds[s["op"]] == kind

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    def under(label: str) -> np.ndarray:
        """Spans with an ancestor named ``label``."""
        target = ids.get(label, -1)
        anc = parent.copy()
        found = np.zeros(len(dur), dtype=bool)
        while True:
            live = (anc >= 0) & ~found
            if not live.any():
                return found
            found[live] = s["name"][anc[live]] == target
            anc[live & ~found] = parent[anc[live & ~found]]

    out: dict[str, float] = {}
    for label in ("primes.is_prime", "systems.residues",
                  "systems.active_primes", "primes.primality",
                  "window.sift", "window.verify_empty",
                  "construction.build_weight_tables",
                  "construction.stage3_cleanup", "cover.run_cover",
                  "rng.substream", "moments.mc_lambda_moments"):
        out[f"{label}.calls"] = is_(label).sum() / n_ops
    for label in ("systems.residues", "systems.mertens_fit",
                  "systems.active_primes", "primes.primality",
                  "window.sift", "window.verify_empty",
                  "construction.build_weight_tables",
                  "construction.derive_params", "construction.stage2_select",
                  "construction.stage3_cleanup", "cover.run_cover",
                  "cover.sample", "cover.check_hypotheses",
                  "cover.assign_indices", "rng.substream", "rng.derive_seed",
                  "moments.mc_lambda_moments",
                  "applications.composite_run_bruteforce", "cli.dispatch"):
        out[f"{label}.self_s"] = self_t[is_(label)].sum() / n_ops

    residues, sift, verify = (is_("systems.residues"), is_("window.sift"),
                              is_("window.verify_empty"))
    repeat = residues & (a == 1)
    out["systems.residues.hit_ratio"] = ratio(repeat.sum(), residues.sum())
    out["window.sift.width_sum"] = a[sift].sum() / n_ops
    out["window.verify_empty.ints_checked"] = a[verify].sum() / n_ops
    bwt = is_("construction.build_weight_tables")
    out["construction.build_weight_tables.cells"] = a[bwt].sum() / n_ops
    s2 = is_("construction.stage2_select")
    out["construction.stage2.rejected_ratio"] = ratio(a[s2].sum(),
                                                      b[s2].sum())
    out["construction.stage3.retries"] = \
        a[is_("construction.stage3_cleanup")].sum() / n_ops
    cover_runs, samples = is_("cover.run_cover"), is_("cover.sample")
    out["cover.sample.attempts"] = samples.sum() / n_ops
    # stage 2's progression edges are drawn by a sampler local to
    # construction, which is not patched: only cover-demo rounds count
    demo_runs = cover_runs & ~under("construction.stage2_select")
    out["cover.accept_ratio"] = ratio(a[demo_runs].sum(), samples.sum())
    out["moments.trials"] = a[is_("moments.mc_lambda_moments")].sum() / n_ops
    brute = is_("applications.composite_run_bruteforce")
    out["applications.primality_per_value"] = ratio(
        (is_("primes.primality")
         & under("applications.composite_run_bruteforce")).sum(),
        a[brute].sum())

    # shares of the time of one layer inside another
    dispatch = is_("cli.dispatch")
    default_ops = in_kind("default")
    out["window.verify_empty.share_of_default_construct"] = ratio(
        dur[verify & default_ops].sum(), dur[dispatch & default_ops].sum())
    parent_safe = np.where(has_parent, parent, 0)
    mr_under_hit = is_("primes.is_prime") & has_parent & \
        residues[parent_safe] & (a[parent_safe] == 1)
    out["primes.is_prime.share_of_cached_residues"] = ratio(
        dur[mr_under_hit].sum(), dur[repeat].sum())
    out["rng.substream.share_of_run_cover"] = ratio(
        dur[is_("rng.substream") & under("cover.run_cover")].sum(),
        dur[cover_runs].sum())
    info_ops = in_kind("system-info")
    out["systems.residues.share_of_cubic_system_info"] = ratio(
        dur[residues & info_ops].sum(),
        dur[dispatch & info_ops].sum())
    return {k: float(v) for k, v in out.items()}
