"""Golden CLI reports: each invocation's stdout must match its file in
``tests/golden`` byte for byte.

The files pin the reports across refactors.  Invocations run with
``tests/golden`` as the working directory (so the shift-file path in the
gaps report is machine-independent) and without ``SIEVEGAP_SEED``.
"""

import io
from pathlib import Path

import pytest

from sievegap.cli import dispatch

GOLDEN = Path(__file__).parent / "golden"

_MOMENTS_06 = ("--x", "2950", "--delta", "0.001", "--force-z", "200",
               "--force-scales", "3")

# name -> argv; the golden file is <name>.csv for csv reports, else .json
CASES = {
    "system-info-cubic": ("system-info", "--file", "poly:n^3+2",
                          "--x", "3000"),
    # its figures were written by evaluating n^3+2 at every class mod p
    "system-info-cubic-1e5": ("system-info", "--file", "poly:n^3+2",
                              "--x", "100000"),
    # degree 4: Cantor-Zassenhaus splits factors of degree 3 and 4
    "system-info-quartic-1e5": ("system-info", "--file", "poly:n^4+n+7",
                                "--x", "100000"),
    "system-info-quadratic": ("system-info", "--file", "poly:n^2+1",
                              "--x", "5000"),
    "system-info-quadratic-1e6": ("system-info", "--file", "poly:n^2+1",
                                  "--x", "1000000"),
    "system-info-twin": ("system-info", "--file", "twin", "--x", "1000"),
    "gaps-shift-file": ("gaps", "--system", "eratosthenes", "--x", "30",
                        "--window", "1..2000", "--shift-file",
                        "shift_x30.txt", "--format", "csv"),
    "construct-default": ("construct", "--system", "eratosthenes",
                          "--x", "300", "--trials", "3"),
    "construct-cover": ("construct", "--system", "eratosthenes",
                        "--x", "3000", "--force-scales", "2", "3",
                        "--mode", "cover"),
    # sample-mode stage 3 after stage 2 ran
    "construct-sample": ("construct", "--system", "eratosthenes",
                         "--x", "3000", "--force-scales", "2", "3",
                         "--mode", "sample"),
    "construct-default-1e6": ("construct", "--system", "eratosthenes",
                              "--x", "1000000", "--seed", "0"),
    "cover-demo": ("cover-demo", "--vertices", "1000", "--trials", "2"),
    "moments-i-first-exact": ("moments", "--system", "eratosthenes",
                              "--identity", "i-first-exact",
                              "--z", "7", "--y", "50"),
    # identity ii reads the weight-table totals
    "moments-ii-j1": ("moments", "--system", "eratosthenes",
                      "--identity", "ii-j1") + _MOMENTS_06
                     + ("--trials", "2"),
    "moments-iii-j1": ("moments", "--system", "eratosthenes",
                       "--identity", "iii-j1") + _MOMENTS_06
                      + ("--trials", "2"),
    "constants": ("constants", "--rho", "1", "--derangement", "3"),
    "composite-runs-bruteforce": ("composite-runs", "--poly", "n^2+1",
                                  "--X", "20000"),
    "composite-runs-constructed": ("composite-runs", "--poly", "n^2+1",
                                   "--X", "1000000", "--constructed"),
    "coprime-search": ("coprime", "--poly", "n^2+1", "--k", "3",
                       "--bound", "5000"),
    "coprime-constructed": ("coprime", "--poly", "n^2+1", "--constructed",
                            "--x", "60"),
}


def golden_path(name: str) -> Path:
    suffix = ".csv" if "csv" in CASES[name] else ".json"
    return GOLDEN / f"{name}{suffix}"


def report(name: str) -> str:
    out = io.StringIO()
    assert dispatch(list(CASES[name]), stream=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch):
    monkeypatch.delenv("SIEVEGAP_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    assert report(name) == golden_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    # rewrite every golden file from the sievegap on the import path
    import os
    os.environ.pop("SIEVEGAP_SEED", None)
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        golden_path(case).write_text(report(case), encoding="utf-8")
