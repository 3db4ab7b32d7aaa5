"""Self-tests: the benchmark's checks reject wrong reports.

    python3 -m pytest perfbench/test_checks.py
"""

import copy
import json
from pathlib import Path

import checks


def test_oracle_rejects_nonempty_interval():
    # the zero shift leaves 1, 7, 11, ... unsieved by 2, 3 and 5
    assert list(checks.oracle_survivors({}, {2: (0,), 3: (0,), 5: (0,)},
                                        1, 30)) == [1, 7, 11, 13, 17, 19,
                                                    23, 29]
    assert checks.certify_empty({}, 5, 30) is not None


def test_oracle_accepts_a_sieved_interval_and_no_more():
    # b = (1, 2, 3) mod (2, 3, 5) sieves 1, 2, 3 but not 4
    shift = {2: 1, 3: 2, 5: 3}
    assert checks.certify_empty(shift, 5, 3) is None
    assert checks.certify_empty(shift, 5, 4) is not None


def _poly_report(kind):
    return {"subcommand": kind, "config": {},
            "result": copy.deepcopy(checks.GOLDEN[kind])}


def test_perturbed_poly_golden_fails_the_op():
    golden = checks.GOLDEN
    sigma = golden["system-info"]["sigma"]
    length = golden["composite-runs"]["length"]
    for kind, key, wrong in (("system-info", "sigma", sigma * 1.000001),
                             ("composite-runs", "length", length - 1)):
        report = _poly_report(kind)
        assert checks.check("poly", kind, None, report) is None
        perturbed = copy.deepcopy(golden)
        perturbed[kind][key] = wrong
        assert checks.check_poly(kind, report, perturbed) is not None


def test_perturbed_mertens_track_fails_the_op():
    report = _poly_report("system-info")
    report["result"]["mertens_track"][2][1] *= 1 + 1e-6
    assert checks.check("poly", "system-info", None, report) is not None


def _moments_report(identity):
    c = checks.moment_constants()
    predicted = (c["K"] + 1) * c["y"] * c["n_q"]
    return {"subcommand": "moments", "config": {"seed": 5},
            "result": {"identity": identity, "predicted": float(predicted),
                       "estimated": float(predicted), "std_error": 1.0,
                       "trials": 10, "z_score": 0.0, "exact": False,
                       "extras": {k: c[k] for k in ("H", "K", "y", "n_q",
                                                    "sigma2")}}}


def test_moments_check_rejects_a_wrong_closed_form():
    report = _moments_report("ii-j1")
    assert checks.check("moments", "ii-j1", 5, report) is None
    report["result"]["predicted"] *= 1 + 1e-6
    assert checks.check("moments", "ii-j1", 5, report) is not None
    report = _moments_report("ii-j1")
    report["result"]["trials"] = 9
    assert checks.check("moments", "ii-j1", 5, report) is not None
    assert checks.check("moments", "ii-j1", 6, _moments_report("ii-j1")) \
        is not None


def _cover_report():
    conditions = [{"name": n, "ok": True, "worst": w}
                  for n, w in zip(checks.CONDITIONS,
                                  (1.0, 1e-4, 0.0, 1e-12, 4.0))]
    return {"subcommand": "cover-demo", "config": {"seed": 5},
            "result": {"plan": copy.deepcopy(checks.cover_plan()),
                       "hypotheses": {"y": 1e5, "all_ok": True,
                                      "conditions": conditions},
                       "uncovered": {"n": 2, "min": 0.02, "median": 0.025,
                                     "max": 0.03, "mean": 0.025},
                       "success_fraction": 1.0, "success_threshold": 0.5}}


def test_cover_check_rejects_a_wrong_plan_or_success_fraction():
    assert checks.check("cover", "cover-demo", 5, _cover_report()) is None
    report = _cover_report()
    report["result"]["plan"]["m"] = 4
    assert checks.check("cover", "cover-demo", 5, report) is not None
    report = _cover_report()
    report["result"]["success_fraction"] = 0.5
    assert checks.check("cover", "cover-demo", 5, report) is not None


def test_every_per_layer_metric_has_a_prediction():
    here = Path(checks.__file__).parent
    spec = json.loads((here.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((here / "predictions.json").read_text())
    assert list(predictions["metrics"]) == [m["name"]
                                            for m in spec["per_layer"]]
