"""tools/bench_summary.py: pairing, quartiles, win counts and the rules
for a gain and for staying within a metric's bound."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def _write(path: Path, ops: float, rss: float, correct: bool = True) -> str:
    result = {"correct": correct, "attempted": 4, "failed": 0,
              "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    path.write_text("== cover  seed 1  trace 0  correct True\n"
                    f"   ops_per_s {ops} ops/s\n{json.dumps(result)}\n")
    return str(path)


def test_summary_counts_pairs_and_applies_the_rules(tmp_path, capsys):
    parents = [_write(tmp_path / f"p{k}", 1.0 + 0.01 * k, 100.0)
               for k in range(10)]
    changes = [_write(tmp_path / f"c{k}", 5.0 + 0.01 * k, 105.0)
               for k in range(10)]
    assert bench_summary.main(["--parent", *parents,
                               "--change", *changes]) == 0
    out = json.loads(capsys.readouterr().out)
    ops = out["workloads"]["cover"]["ops_per_s"]
    assert ops["pairs"] == 10
    assert (ops["wins"], ops["losses"], ops["ties"]) == (10, 0, 0)
    assert ops["parent"]["median"] == 1.045
    assert ops["gain"] and ops["within_bound"]
    rss = out["workloads"]["cover"]["peak_rss_mb"]   # 5% worse, bound 10%
    assert (rss["wins"], rss["losses"]) == (0, 10)
    assert rss["within_bound"] and not rss["gain"]


def test_summary_refuses_a_run_whose_checks_failed(tmp_path, capsys):
    good = _write(tmp_path / "p", 1.0, 100.0)
    bad = _write(tmp_path / "c", 1.0, 100.0, correct=False)
    assert bench_summary.main(["--parent", good, "--change", bad]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_summary_marks_wide_spread_unresolved(tmp_path, capsys):
    """A metric whose runs spread wider than its bound is unresolved,
    unless every change run reads better than every parent run."""
    def summary(ops_parent, ops_change):
        parents = [_write(tmp_path / f"p{k}", v, 100.0)
                   for k, v in enumerate(ops_parent)]
        changes = [_write(tmp_path / f"c{k}", v, 100.0)
                   for k, v in enumerate(ops_change)]
        assert bench_summary.main(["--parent", *parents,
                                   "--change", *changes]) == 0
        return json.loads(capsys.readouterr().out)["workloads"]["cover"]

    wide = [float(k) for k in range(1, 11)]    # IQR 4.5 > 0.25 * 5.5
    out = summary(wide, [v + 0.5 for v in wide])
    assert out["ops_per_s"]["unresolved"]
    assert out["ops_per_s"]["within_bound"]
    assert not out["peak_rss_mb"]["unresolved"]            # no spread
    assert not summary(wide, [v + 10 for v in wide])["ops_per_s"][
        "unresolved"]
    narrow = [1.0 + 0.01 * k for k in range(10)]
    assert summary(narrow, wide)["ops_per_s"]["unresolved"]   # change side
    assert not summary(narrow, narrow)["ops_per_s"]["unresolved"]
