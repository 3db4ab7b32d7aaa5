"""Summarise parent/change pairs of benchmark runs as one JSON object.

Each input file is the stdout of ``perfbench/run.py``; only its last
line, the result JSON, is read.  A single-workload run names its metrics
without the workload, so the workload is taken from its ``== <name>``
header line.  The i-th ``--parent`` file and the i-th ``--change`` file
form pair i, and a metric is summarised over the pairs whose runs both
report it, so one call can take the runs of several workloads::

    python3 tools/bench_summary.py --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ... > BENCH_<pr>.json

For every workload and metric the summary gives each side's median and
quartiles, and how many pairs the change won, lost and tied on the
metric's ``better`` direction from ``BENCHMARK.json``.  For end-to-end
metrics it also applies that file's bound: ``within_bound`` says the
change's median is no worse than the parent's by more than the bound
(relative to the parent's median), and ``gain`` says the change won at
least nine tenths of the pairs and its median differs from the parent's
by more than the parent's interquartile range.  ``unresolved`` says the
runs spread too widely to judge the bound: either side's interquartile
range exceeds the bound times the parent's median, and not every change
run reads better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def read_run(path: Path) -> dict[str, float]:
    """workload.metric -> value, from one run's stdout."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError(f"{path}: the run's checks failed")
    headers = [ln.split()[1] for ln in lines if ln.startswith("== ")]
    prefix = f"{headers[0]}." if len(headers) == 1 else ""
    return {prefix + k: float(m["value"])
            for k, m in result["metrics"].items()}


def side(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarise(parents: list[dict], changes: list[dict], spec: dict) -> dict:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict[str, dict] = {}
    for key in sorted(set().union(*parents, *changes)):
        workload, metric = key.split(".", 1)
        pairs = [(a[key], b[key]) for a, b in zip(parents, changes)
                 if key in a and key in b]
        if metric not in declared or not pairs:
            continue
        sign = 1.0 if declared[metric]["better"] == "higher" else -1.0
        p, c = [a for a, _ in pairs], [b for _, b in pairs]
        diff = [sign * (b - a) for a, b in pairs]
        row = {"unit": declared[metric]["unit"],
               "better": declared[metric]["better"], "pairs": len(pairs),
               "parent": side(p), "change": side(c),
               "wins": sum(d > 0 for d in diff),
               "losses": sum(d < 0 for d in diff),
               "ties": sum(d == 0 for d in diff)}
        if metric in bounds:
            pm, cm = row["parent"]["median"], row["change"]["median"]
            worse = sign * (pm - cm)
            row["bound"] = bounds[metric]
            row["within_bound"] = bool(worse <= bounds[metric] * abs(pm))
            row["gain"] = bool(
                row["wins"] >= 0.9 * len(p)
                and sign * (cm - pm) > row["parent"]["q3"]
                - row["parent"]["q1"])
            spread = max(s["q3"] - s["q1"]
                         for s in (row["parent"], row["change"]))
            row["unresolved"] = bool(
                spread > bounds[metric] * abs(pm)
                and min(sign * b for b in c) <= max(sign * a for a in p))
        out.setdefault(workload, {})[metric] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of runs")
    try:
        spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
        parents = [read_run(p) for p in args.parent]
        changes = [read_run(c) for c in args.change]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = {"runs": len(parents),
               "workloads": summarise(parents, changes, spec)}
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
