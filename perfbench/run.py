"""sievegap benchmark: drives ``sievegap.cli.dispatch`` in-process.

Run from the repository root::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same metrics for a reader, with their units and sample counts.

Each workload runs in processes of its own, importing the package from
``src/`` of the checkout.  The measuring process sets up (imports the
package, makes the inputs from ``--seed``, runs one untimed warm-up op
of each kind), then runs whole cycles of ops for ``--seconds`` as a
single-client closed loop, each op writing its report to a fresh
``io.StringIO``.  Every report is checked afterwards (see checks.py).
``setup_s`` is the median, over three fresh processes, of the time from
spawning the process to the end of its set-up.  Set-up work is the same
in every run: the warm-up ops have fixed inputs.

Times are calibrated.  A shared machine runs in phases, up to about 40%
apart in speed and seconds to minutes long.  So a fixed reference
computation is timed between cycles (and after each set-up), and every
wall time is scaled by ``REFERENCE_S`` over the reference's time around
it.  A slow phase then slows the reference as much as the ops and
cancels out.  The uncalibrated figures are printed alongside.

``--trace 1`` gives the per-layer metrics instead: half of the time runs
untraced, then the public functions are wrapped (see spans.py) and the
other half runs traced.  End-to-end numbers always come from untraced
ops; the ratio of the two throughputs is ``trace.overhead_ratio``.
Spans are written to ``perfbench/out/spans-<workload>.npz``.

Exit status: 0 with a result, 2 when the program's sources are missing,
1 on any other failure (no result line then).
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0          # a one-workload run must end within 180 s
READY = "perfbench-ready"
# reference_s() on the 2-core x86-64 VM (Python 3.11, numpy 2.4) on which
# the bounds were set, in a typical phase
REFERENCE_S = 0.011


@dataclass
class Record:
    op: workloads.Op
    latency: float              # wall seconds
    rc: object
    out: str
    scale: float = 1.0          # REFERENCE_S / reference time around the op
    report: dict | None = None
    problem: str | None = None

    @property
    def calibrated(self) -> float:
        return self.latency * self.scale


# ---------------------------------------------------------------------------
# measuring process


def reference_s() -> float:
    """Wall time of a fixed computation that shares no code with the
    program: half interpreted loop, half numpy, about 10 ms."""
    t = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    a = np.arange(200_000, dtype=np.int64)
    for _ in range(3):
        a = (a * 3 + 1) % 1_000_003
    return time.perf_counter() - t


def run_cycles(cycles, seconds: float, tracer=None) -> list[Record]:
    """Whole cycles of ops until their wall time reaches ``seconds``.

    The reference is timed before the first cycle and after each cycle.
    Each op's ``scale`` is REFERENCE_S over the mean of the two timings
    around its cycle, so that a slow phase of a shared machine slows the
    reference as much as the ops and cancels out.
    """
    from sievegap import cli
    records: list[Record] = []
    before = reference_s()
    while sum(r.latency for r in records) < seconds:
        cycle = []
        for op in next(cycles):
            if tracer is not None:
                tracer.begin_op(len(records) + len(cycle))
            out = io.StringIO()
            t = time.perf_counter()
            try:
                rc = cli.dispatch(list(op.argv), out)
            except (Exception, SystemExit) as exc:   # counted as failed
                rc = repr(exc)
            cycle.append(Record(op, time.perf_counter() - t, rc,
                                out.getvalue()))
        after = reference_s()
        for r in cycle:
            r.scale = REFERENCE_S / ((before + after) / 2)
        before = after
        records += cycle
    return records


def rate(records: list[Record]) -> float:
    """Checked ops per calibrated second of op time."""
    return len(_ok(records)) / sum(r.calibrated for r in records)


def check_records(workload: str, records: list[Record]) -> None:
    """Check every report; re-run and certify the first good construct
    op of each kind."""
    certified: set[str] = set()
    for r in records:
        if r.rc != 0:
            r.problem = f"exit status {r.rc}"
            continue
        try:
            r.report = json.loads(r.out)
            if r.report["subcommand"] != r.op.argv[0]:
                r.problem = f"subcommand {r.report['subcommand']!r}"
            else:
                r.problem = checks.check(workload, r.op.kind, r.op.seed,
                                         r.report)
        except (ValueError, KeyError, TypeError) as exc:
            r.problem = f"malformed report: {exc!r}"
        if workload == "construct" and r.problem is None \
                and r.op.kind not in certified:
            r.problem = checks.certify_construct(r.op.kind, r.op.seed,
                                                 r.report)
            certified.add(r.op.kind)


def _ok(records: list[Record]) -> list[Record]:
    return [r for r in records if r.problem is None]


def _median(values: list[float], empty: float = 0.0) -> float:
    return float(statistics.median(values)) if values else empty


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten samples
    beyond it, never below the median."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 11, n // 2)
    return lat[k], 100.0 * (k + 1) / n


def end_to_end(workload: str, records: list[Record],
               rss_mb: float) -> tuple[dict, list[str]]:
    ok = _ok(records)
    lat = [r.calibrated for r in ok] or [math.nan]
    tail_s, tail_pct = tail(lat)
    results = [r.report["result"] for r in ok]
    if workload == "construct":
        gap = _median([res["L"] for res in results], 1.0)
    elif workload == "poly":
        gap = _median([res["length"] for res in results if "length" in res],
                      1.0)
    else:
        gap = 1.0                          # no op here certifies a gap
    uncovered = (_median([res["uncovered"]["median"] for res in results], 1.0)
                 if workload == "cover" else 1.0)
    metrics = {"ops_per_s": rate(records),
               "op_p50_s": statistics.median(lat),
               "op_tail_s": tail_s,
               "ok_ratio": len(ok) / len(records),
               "peak_rss_mb": rss_mb,
               "gap_L_median": gap,
               "uncovered_frac_median": uncovered}
    wall = [r.latency for r in records]
    scale = statistics.median(r.scale for r in records)
    notes = [f"ops {len(records)} in {sum(wall):.2f} s, {len(ok)} checked ok",
             f"op_tail_s is p{tail_pct:.0f} of {len(lat)} ops",
             f"median scale {scale:.3f}; uncalibrated: "
             f"ops_per_s {len(ok) / sum(wall):.4g}, "
             f"op_p50_s {statistics.median(wall):.4g}, "
             f"op_tail_s {tail(wall)[0]:.4g}"]
    if workload not in ("construct", "poly"):
        notes.append("gap_L_median: no op of this workload certifies a gap;"
                     " reported as 1")
    if workload != "cover":
        notes.append("uncovered_frac_median: no op of this workload covers;"
                     " reported as 1")
    return metrics, notes


def report_properties(workload: str, records: list[Record]) -> dict:
    """Input properties read from the reports, over every checked op."""
    results = [(r.op.kind, r.report["result"]) for r in _ok(records)]
    out = {"construction.survivors_stage1": 0.0,
           "construction.survivors_stage2": 0.0,
           "construction.stage2.ran_share": 0.0,
           "moments.iii_share": 0.0}
    if workload == "construct" and results:
        out["construction.survivors_stage1"] = _median(
            [res["survivors_stage1"] for _, res in results])
        out["construction.survivors_stage2"] = _median(
            [res["survivors_stage2"] for _, res in results])
        out["construction.stage2.ran_share"] = sum(
            not res["params"]["degraded"] for _, res in results) / len(results)
    if workload == "moments" and results:
        out["moments.iii_share"] = sum(
            kind.startswith("iii") for kind, _ in results) / len(results)
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """The measuring process's work after set-up; returns its result."""
    cycles = workloads.cycles(workload, seed)
    if not traced:
        records = run_cycles(cycles, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_records(workload, records)
        metrics, notes = end_to_end(workload, records, rss_mb)
    else:
        plain = run_cycles(cycles, seconds / 2)
        tracer = Tracer()
        tracer.patch()
        try:
            traced_ops = run_cycles(cycles, seconds / 2, tracer)
        finally:
            tracer.unpatch()
        records = plain + traced_ops
        check_records(workload, records)
        kinds = [r.op.kind for r in traced_ops]
        metrics = layer_metrics(tracer, kinds)
        metrics.update(report_properties(workload, records))
        traced_rate = rate(traced_ops)
        metrics["trace.overhead_ratio"] = (rate(plain) / traced_rate
                                           if traced_rate else 0.0)
        path = HERE / "out" / f"spans-{workload}.npz"
        tracer.save(path, kinds)
        notes = [f"untraced ops {len(plain)}, traced ops {len(traced_ops)}",
                 f"{len(tracer.start)} spans written to "
                 f"{path.relative_to(ROOT)}",
                 "self times and counts are per traced op"]
    ops_path = HERE / "out" / f"ops-{workload}-trace{int(traced)}.json"
    ops_path.parent.mkdir(exist_ok=True)
    ops_path.write_text(json.dumps(
        [{"kind": r.op.kind, "seed": r.op.seed, "latency_s": r.latency,
          "problem": r.problem} for r in records], indent=0) + "\n",
        encoding="utf-8")
    notes.append(f"per-op records written to {ops_path.relative_to(ROOT)}")
    failed = [r for r in records if r.problem is not None]
    notes += [f"FAILED {r.op.kind} seed={r.op.seed}: {r.problem}"
              for r in failed[:5]]
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed), "metrics": metrics, "notes": notes}


def child(args) -> int:
    import sievegap
    if Path(sievegap.__file__).resolve().parent != SRC / "sievegap":
        print(f"sievegap imported from {sievegap.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    from sievegap import cli
    # fixed warm-up inputs, so that set-up does the same work in every run
    warm = next(workloads.cycles(args.workload, "warm-up"))
    for op in warm:
        cli.dispatch(list(op.argv), io.StringIO())
    ready = time.time()
    print(READY, ready, reference_s(), flush=True)
    if args.role == "setup":
        return 0
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# launching process


def spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Run one measuring process; returns (calibrated set-up seconds, its
    result)."""
    env = dict(os.environ)
    env.pop("SIEVEGAP_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    _, ready, ref = next(ln for ln in lines if ln.startswith(READY)).split()
    setup = (float(ready) - t0) * REFERENCE_S / float(ref)
    return setup, (json.loads(lines[-1]) if role == "run" else None)


def launch(args, spec: dict, deadline: float) -> dict:
    """One workload: set-up samples, then the measuring run."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, "setup", deadline)[0])
    setup, result = spawn(args, "run", deadline)
    setups.append(setup)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        result["notes"].insert(0, "setup_s is the median of " + ", ".join(
            f"{s:.3f}" for s in setups) + " s")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sievegap" / "__init__.py").is_file():
        print(f"no sievegap sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"--workload must be one of {workloads.WORKLOADS}"
                     " or all")
    if args.role:
        return child(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    compileall.compile_dir(SRC, quiet=1)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = launch(args, spec,
                                   time.monotonic() + DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                IndexError, StopIteration) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"== {name}  seed {args.seed}  trace {args.trace}  "
              f"correct {res['correct']}  attempted {res['attempted']}  "
              f"failed {res['failed']}")
        for note in res.pop("notes"):
            print(f"   {note}")
        for metric, m in res["metrics"].items():
            print(f"   {metric:48s} {m['value']:>14.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
