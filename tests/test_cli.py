"""Command-line interface: dispatch, determinism, schema, exit codes."""

import io
import json
from pathlib import Path

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:                                    # pragma: no cover
    jsonschema = None

from conftest import brute_verify_empty

from sievegap.cli import build_parser, dispatch
from sievegap.construction import construct, derive_params
from sievegap.moments import MAX_MOMENT_CELLS
from sievegap.rng import DEFAULT_SEED, derive_seed
from sievegap.systems import SievingSystem, eratosthenes

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "sievegap" / "schemas"
     / "report.schema.json").read_text())


def run_cli(argv, monkeypatch=None):
    out = io.StringIO()
    code = dispatch(argv, stream=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    assert code == 0, text
    return json.loads(text)


def validate(report):
    if jsonschema is not None:
        jsonschema.validate(report, SCHEMA)


# ---------------------------------------------------------------------------
# basic dispatch and fixtures


def test_constants_fixture():
    rep = run_json(["constants", "--rho", "1"])
    validate(rep)
    assert rep["result"]["c_rho"] > 1 / 128
    assert rep["config"]["seed"] == DEFAULT_SEED


def test_gaps_fixture():
    rep = run_json(["gaps", "--system", "eratosthenes", "--x", "5",
                    "--window", "1..31"])
    validate(rep)
    assert rep["result"]["gap"] == 6
    assert rep["result"]["members_count"] == 9


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["gaps"], stream=io.StringIO())
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["constants", "--rho", "1", "--bogus"],
                 stream=io.StringIO())
    assert exc.value.code == 2


def test_domain_error_exits_1(capsys):
    code, _ = run_cli(["constants", "--rho", "-1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"], stream=io.StringIO())
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# determinism and serialization


def test_identical_argv_byte_identical_output():
    argv = ["construct", "--system", "eratosthenes", "--x", "150",
            "--seed", "9"]
    _, a = run_cli(argv)
    _, b = run_cli(argv)
    assert a == b


def test_csv_output_flattens_dotted():
    code, text = run_cli(["constants", "--rho", "1", "--format", "csv"])
    assert code == 0
    header, row = text.strip().split("\n")
    cols = header.split(",")
    assert "result.c_rho" in cols
    assert "config.seed" in cols
    assert len(cols) == len(row.split(","))


def test_reports_validate_against_schema():
    """Fresh reports, and every JSON golden report."""
    golden = Path(__file__).parent / "golden"
    reports = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(golden.glob("*.json"))] + [
        run_json(["constants", "--rho", "0.5", "--derangement", "3"]),
        run_json(["gaps", "--system", "poly:n^2+1", "--x", "13",
                  "--window", "1..50"]),
        run_json(["composite-runs", "--poly", "n", "--X", "50"]),
        run_json(["coprime", "--poly", "n", "--k", "2", "--bound", "10"]),
        run_json(["moments", "--system", "eratosthenes", "--identity",
                  "i-first-exact", "--z", "7", "--y", "50"]),
    ]
    for rep in reports:
        validate(rep)
        assert rep["subcommand"] in SCHEMA["properties"]["subcommand"]["enum"]


def test_construct_force_z_1_certifies():
    """z_eff = 2 opens the scale window up to H ~ 446, where H^M is near
    10^12: the weight tables must not sieve S_{H^M} above z_eff."""
    rep = run_json(["construct", "--system", "eratosthenes", "--x", "1000",
                    "--force-z", "1"])
    validate(rep)
    res = rep["result"]
    assert res["params"]["z_eff"] == 2 and not res["params"]["degraded"]
    era = eratosthenes()
    params = derive_params(era, 1000, force_z=1)
    built = construct(era, params,
                      derive_seed(rep["config"]["seed"], "construct", 0))
    assert built.length == res["L"] >= 1
    assert brute_verify_empty(era, 1000, built.shift, 1, built.length)


# ---------------------------------------------------------------------------
# seed resolution and config merge


def test_env_seed_overrides_default(monkeypatch):
    monkeypatch.setenv("SIEVEGAP_SEED", "777")
    rep = run_json(["constants", "--rho", "1"])
    assert rep["config"]["seed"] == 777


def test_flag_seed_beats_env(monkeypatch):
    monkeypatch.setenv("SIEVEGAP_SEED", "777")
    rep = run_json(["constants", "--rho", "1", "--seed", "42"])
    assert rep["config"]["seed"] == 42


def test_dispatches_share_one_parser(monkeypatch):
    """The parser is built once; a dispatch leaves no flag, default or
    seed behind for the next one."""
    assert build_parser() is build_parser()
    argv = ["cover-demo", "--vertices", "200", "--trials", "2"]
    monkeypatch.setenv("SIEVEGAP_SEED", "777")
    _, first = run_cli(argv)
    monkeypatch.delenv("SIEVEGAP_SEED")
    other = run_json(["cover-demo", "--vertices", "300", "--eta", "0.1"])
    assert other["config"]["seed"] == DEFAULT_SEED
    assert other["config"]["trials"] == 10 and other["config"]["eta"] == 0.1
    again = run_json(argv)
    assert again["config"]["seed"] == DEFAULT_SEED
    assert again["config"]["eta"] == 0.05
    monkeypatch.setenv("SIEVEGAP_SEED", "777")
    assert run_cli(argv)[1] == first
    assert json.loads(first)["config"]["seed"] == 777


def test_config_file_merges_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rho": 0.5, "tol": 1e-6, "seed": 5}))
    rep = run_json(["constants", "--config", str(cfg), "--rho", "1"])
    assert rep["config"]["rho"] == 1.0        # flag wins
    assert rep["config"]["tol"] == 1e-6       # config wins over default
    assert rep["config"]["seed"] == 5


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key in ("nonsense", "threads"):
        cfg.write_text(json.dumps({key: 1}))
        code, _ = run_cli(["constants", "--rho", "1", "--config", str(cfg)])
        assert code == 1


_GAPS = ["gaps", "--system", "eratosthenes", "--x", "5", "--window", "1..30"]

# case -> (contents of the file "f", None for a missing file; argv added
# to _GAPS, where a later --system wins)
BAD_FILES = {
    "shift-file-line": ("2 1\n3\n", ["--shift-file", "f"]),
    "shift-file-composite-modulus": ("4 1\n", ["--shift-file", "f"]),
    "shift-file-modulus-above-x": ("97 3\n", ["--shift-file", "f"]),
    "shift-file-prime-twice": ("5 1\n5 3\n", ["--shift-file", "f"]),
    "system-missing": (None, ["--system", "f"]),
    "system-not-json": ("{", ["--system", "f"]),
    "system-not-object": ("[1, 2]", ["--system", "f"]),
    "table-without-entries": ('{"kind": "table"}', ["--system", "f"]),
    "table-malformed-entries": ('{"kind": "table", "entries": [[5, 3]]}',
                                ["--system", "f"]),
    "table-prime-twice": ('{"kind": "table", "entries": [[5, [1]], [5, [3]]]}',
                          ["--system", "f"]),
    "polynomial-bad-coefficient": (
        '{"kind": "polynomial", "binomial_coeffs": ["a"]}', ["--system", "f"]),
    "polynomial-zero-denominator": (
        '{"kind": "polynomial", "coeffs": ["1/0"]}', ["--system", "f"]),
    "config-missing": (None, ["--config", "f"]),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_unreadable_user_file_exits_1(case, tmp_path, monkeypatch, capsys):
    text, extra = BAD_FILES[case]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "f").write_text(text)
    code, out = run_cli(_GAPS + extra)
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_user_file_listing_a_prime_twice_names_it(tmp_path, monkeypatch,
                                                  capsys):
    """A second entry for one prime is refused, not taken over the first."""
    monkeypatch.chdir(tmp_path)
    for case in ("shift-file-prime-twice", "table-prime-twice"):
        text, extra = BAD_FILES[case]
        (tmp_path / "f").write_text(text)
        assert run_cli(_GAPS + extra) == (1, "")
        assert "p=5 twice" in capsys.readouterr().err


def test_table_file_duplicate_residues_count_once(tmp_path, monkeypatch):
    """I_p is a set: a residue listed twice in a table file is one class,
    so both reports equal those of the file that lists it once."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for entries in ([[2, [0, 0]], [3, [1, 1, 1]]], [[2, [0]], [3, [1]]]):
        (tmp_path / "f").write_text(
            json.dumps({"kind": "table", "entries": entries}))
        runs.append((run_cli(["gaps", "--system", "f", "--x", "5",
                              "--window", "1..20"]),
                     run_cli(["system-info", "--file", "f", "--x", "100"])))
    assert runs[0] == runs[1]
    assert [code for code, _ in runs[0]] == [0, 0]


@pytest.mark.parametrize("extra", [
    [], ["--force-scales", "2", "3", "--mode", "cover"]])
def test_construct_reads_no_residues_one_prime_at_a_time(extra, monkeypatch):
    """Every layer of construct reads I_p as slices of the class table:
    SievingSystem.residues is never called."""
    calls = []
    residues = SievingSystem.residues
    monkeypatch.setattr(SievingSystem, "residues",
                        lambda self, p: calls.append(p) or residues(self, p))
    run_json(["construct", "--system", "eratosthenes", "--x", "10000"]
             + extra)
    assert calls == []


_CONSTRUCT = ["construct", "--system", "eratosthenes", "--x", "150"]
_COVER = ["cover-demo", "--vertices", "50"]
_MOMENTS_II = ["moments", "--system", "eratosthenes", "--identity", "ii-j1",
               "--x", "1000", "--trials", "2"]

# case -> argv with a numeric flag out of its range
BAD_FLAGS = {
    "construct-trials-0": _CONSTRUCT + ["--trials", "0"],
    "construct-force-scales-0": _CONSTRUCT + ["--force-scales", "0"],
    "construct-force-scales-0.1": _CONSTRUCT + ["--force-scales", "0.1"],
    "constants-tol-0": ["constants", "--rho", "1", "--tol", "0"],
    "constants-tol-neg": ["constants", "--rho", "1", "--tol", "-1"],
    "constants-tol-1": ["constants", "--rho", "1", "--tol", "1"],
    # 1/2 - tol rounds to 1/2
    "constants-tol-2.7e-17": ["constants", "--rho", "1", "--tol", "2.7e-17"],
    "constants-tol-1e-300": ["constants", "--rho", "1", "--tol", "1e-300"],
    # past int64, or wrapping around once shifted
    "gaps-window-past-2^63": ["gaps", "--system", "eratosthenes", "--x",
                              "10", "--window=99999999999999999999.."
                              "100000000000000000000"],
    "gaps-window-near-minus-2^63": [
        "gaps", "--system", "eratosthenes", "--x", "10",
        "--window=-9223372036854775803..-9223372036854775743"],
    "composite-runs-constructed-X-0": ["composite-runs", "--poly", "n^2+1",
                                       "--X", "0", "--constructed"],
    "composite-runs-constructed-X-neg": ["composite-runs", "--poly", "n^2+1",
                                         "--X", "-5", "--constructed"],
    "moments-force-scales-0": _MOMENTS_II + ["--force-scales", "0"],
    "cover-demo-trials-0": _COVER + ["--trials", "0"],
    "cover-demo-vertices-0": ["cover-demo", "--vertices", "0"],
    "cover-demo-c2-0": _COVER + ["--c2", "0"],
    "cover-demo-edges-0": _COVER + ["--edges", "0"],
    "cover-demo-c2-nan": _COVER + ["--c2", "nan"],
    "cover-demo-c2-inf": _COVER + ["--c2", "inf"],
    # 2^40 edges and more would share counter streams
    "cover-demo-c2-1e300": _COVER + ["--c2", "1e300"],
    "cover-demo-edges-2^40": _COVER + ["--edges", str(1 << 40)],
    # one edge cannot fill the 3 rounds of eta = 0.05
    "cover-demo-edges-below-rounds": ["cover-demo", "--vertices", "100",
                                      "--edges", "1"],
    "cover-demo-scale-y-nan": _COVER + ["--scale-y", "nan"],
    # 10^{2 delta} overflows a float above delta = 154
    "cover-demo-delta-200": _COVER + ["--delta", "200"],
    "constants-rho-nan": ["constants", "--rho", "nan"],
    "constants-rho-inf": ["constants", "--rho", "inf"],
    "construct-force-scales-inf": _CONSTRUCT + ["--force-scales", "2", "inf"],
    "moments-i-first-mc-y-neg": ["moments", "--system", "eratosthenes",
                                 "--identity", "i-first-mc", "--y", "-3"],
    "moments-i-second-mc-y-neg": ["moments", "--system", "eratosthenes",
                                  "--identity", "i-second-mc", "--y", "-3"],
    "system-info-x-5": ["system-info", "--file", "eratosthenes", "--x", "5"],
    # stage 2 would hold 2.4e9 weight-table cells, above MAX_TABLE_CELLS
    "construct-table-cells-cap": ["construct", "--system", "eratosthenes",
                                  "--x", "300000", "--force-scales", "2",
                                  "3", "--mode", "cover"],
    "constants-derangement-0": ["constants", "--rho", "1",
                                "--derangement", "0"],
    "construct-delta-neg": _CONSTRUCT + ["--delta", "-0.01"],
    "construct-delta-neg-half": _CONSTRUCT + ["--delta", "-0.5"],
    "moments-delta-neg": _MOMENTS_II + ["--delta", "-1"],
    # a repeated scale would build its tables twice
    "construct-force-scales-repeated": _CONSTRUCT + ["--force-scales", "2",
                                                     "2"],
    "moments-force-scales-repeated": _MOMENTS_II + ["--force-scales", "3",
                                                    "3"],
    # f = 1 has no root mod any prime: no prime has a forbidden class
    "construct-no-forbidden-class": ["construct", "--system", "poly:1",
                                     "--x", "200"],
    "moments-ii-j1-no-forbidden-class": ["moments", "--system", "poly:1",
                                         "--identity", "ii-j1"],
    # no scale has admissible primes at x = 1000
    "moments-ii-j1-degraded": ["moments", "--system", "eratosthenes",
                               "--identity", "ii-j1", "--x", "1000"],
    "cover-demo-scale-y-10": ["cover-demo", "--vertices", "1000",
                              "--scale-y", "10"],
    # 10^{0.02} is below beta log beta / (beta - 1) at beta = 10^{0.02} + 0.1
    "cover-demo-delta-0.01": ["cover-demo", "--vertices", "1000",
                              "--delta", "0.01"],
}
for _argv in (_CONSTRUCT, _MOMENTS_II):
    for _z in ("0", "-5"):
        BAD_FLAGS[f"{_argv[0]}-force-z-{_z}"] = _argv + ["--force-z", _z]
for _identity in ("i-first-exact", "i-first-mc", "i-second-mc"):
    for _z in ("0", "-4"):
        BAD_FLAGS[f"moments-{_identity}-z-{_z}"] = [
            "moments", "--system", "eratosthenes", "--identity", _identity,
            "--z", _z]


@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_numeric_flag_exits_1(case, capsys):
    code, out = run_cli(BAD_FLAGS[case])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("case,message", [
    ("constants-derangement-0", "d must be >= 1"),
    ("constants-tol-2.7e-17", "tol must lie in (2^-55, 1/4), got 2.7e-17"),
    ("constants-tol-1e-300", "tol must lie in (2^-55, 1/4), got 1e-300"),
    ("gaps-window-past-2^63", "window bounds must lie in [-2^62, 2^62], got "
     "[99999999999999999999, 100000000000000000000]"),
    ("gaps-window-near-minus-2^63", "window bounds must lie in [-2^62, 2^62], "
     "got [-9223372036854775803, -9223372036854775743]"),
    ("construct-delta-neg", "delta must be >= 0, got -0.01"),
    ("construct-delta-neg-half", "delta must be >= 0, got -0.5"),
    ("moments-delta-neg", "delta must be >= 0, got -1.0"),
    ("moments-i-first-exact-z--4", "z must be >= 1"),
    ("moments-i-first-mc-z-0", "z must be >= 1"),
    ("moments-i-second-mc-z--4", "z must be >= 1"),
    ("construct-force-z-0", "force_z must be >= 1, got 0"),
    ("moments-force-z--5", "force_z must be >= 1, got -5"),
    ("cover-demo-delta-200", "delta must lie in (0, 1/2)"),
    ("cover-demo-edges-below-rounds",
     "3 rounds need at least 3 indices, got 1"),
    ("construct-force-scales-repeated",
     "forced scales must be distinct: [2.0, 2.0]"),
    ("moments-force-scales-repeated",
     "forced scales must be distinct: [3.0, 3.0]"),
    ("construct-no-forbidden-class",
     "no prime <= 200 has a forbidden class, so the system sieves nothing"),
    ("moments-ii-j1-no-forbidden-class",
     "no prime <= 1000 has a forbidden class, so the system sieves nothing"),
    ("moments-ii-j1-degraded",
     "construction is degraded at this x: no prime family; pass "
     "--force-scales or a larger --x"),
    ("cover-demo-scale-y-10",
     "scale y too small for the size cap to make sense"),
    ("cover-demo-delta-0.01", "no admissible beta found on the grid")])
def test_bad_flag_message_names_the_option(case, message, capsys):
    """The error names the option, not a quantity derived from it."""
    assert run_cli(BAD_FLAGS[case])[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("identity,power", [
    ("i-first-exact", 1), ("i-first-mc", 1), ("i-second-mc", 2)])
def test_moments_z_1_keeps_all_of_1_to_y(identity, power):
    """No prime is at most z = 1, so every shift leaves all of [1, y]."""
    rep = run_json(["moments", "--system", "eratosthenes", "--identity",
                    identity, "--z", "1", "--y", "40", "--trials", "3"])
    validate(rep)
    assert rep["result"]["estimated"] == 40 ** power
    assert rep["result"]["predicted"] == 40 ** power


@pytest.mark.parametrize("identity", ["ii-j1", "iii-j1"])
def test_moments_table_cap_names_the_cells_and_the_options(identity, capsys):
    """Identities ii and iii take y from --x, so --y cannot shrink their
    weight tables: the refusal gives the cell count and the cap, and
    names the options that do shrink them."""
    code, out = run_cli(["moments", "--system", "eratosthenes", "--x",
                         "100000", "--identity", identity,
                         "--force-scales", "3", "--y", "10"])
    assert code == 1 and out == ""
    p = derive_params(eratosthenes(), 100_000, force_scales=[3.0])
    cells = len(p.Q[3.0]) * (p.K + 1) * p.y
    assert cells > MAX_MOMENT_CELLS
    assert capsys.readouterr().err == (
        f"error: identity {identity[:-3]} would build {cells} weight-table "
        f"cells per trial, above {MAX_MOMENT_CELLS}; use a smaller --x or "
        f"--delta, or a larger scale through --force-scales or --H\n")


@pytest.mark.parametrize("text", ['{"scale_y": NaN}', '{"c2": Infinity}',
                                  '{"scale_y": Infinity}'])
def test_config_file_non_finite_value_exits_1(text, tmp_path, capsys):
    """json.load reads NaN and Infinity; the config file gets the same
    finiteness check as the flags."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out = run_cli(_COVER + ["--config", str(cfg)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


# case -> (config file text, argv that the file is added to); each value
# is checked against its flag's declaration
BAD_CONFIGS = {
    "seed-string": ('{"seed": "abc"}', _CONSTRUCT),
    "seed-float": ('{"seed": 1.5}', _CONSTRUCT),
    "seed-bool": ('{"seed": true}', _CONSTRUCT),
    "seed-negative": ('{"seed": -5}', _CONSTRUCT),
    "trials-float": ('{"trials": 1.5}', _CONSTRUCT),
    "force-scales-scalar": ('{"force_scales": 3}', _CONSTRUCT),
    "top-level-list": ("[1, 2]", _CONSTRUCT),
    "mode-bogus": ('{"mode": "bogus"}', _CONSTRUCT),
    "format-xml": ('{"format": "xml"}', _CONSTRUCT),
    # a config file names no further config file
    "config-key": ('{"config": "other.json"}', _CONSTRUCT),
    "constructed-string": ('{"constructed": "yes"}',
                           ["composite-runs", "--poly", "n^2+1", "--X",
                            "2000"]),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_value_checked_like_its_flag(case, tmp_path, capsys):
    text, argv = BAD_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out = run_cli(argv + ["--config", str(cfg)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("env, flags", [("abc", []), ("-5", []),
                                        (None, ["--seed", "-5"])])
def test_bad_seed_exits_1(env, flags, monkeypatch, capsys):
    """The report schema requires an integer seed >= 0."""
    if env is None:
        monkeypatch.delenv("SIEVEGAP_SEED", raising=False)
    else:
        monkeypatch.setenv("SIEVEGAP_SEED", env)
    code, out = run_cli(_CONSTRUCT + flags)
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_config_values_mean_what_the_flags_mean(tmp_path):
    """A config file value converts as its flag's text does, so both
    give the same report bytes (force_scales 2 reads as 2.0)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"force_scales": [2, 3], "mode": "cover",
                               "trials": 2, "seed": 9}))
    from_file = run_cli(_CONSTRUCT + ["--config", str(cfg)])
    from_flags = run_cli(_CONSTRUCT + ["--force-scales", "2", "3",
                                       "--mode", "cover", "--trials", "2",
                                       "--seed", "9"])
    assert from_file == from_flags
    assert from_file[0] == 0


@pytest.mark.parametrize("x", ["5", "99"])
def test_system_info_small_x_names_the_flag(x, capsys):
    """x < 100 is refused by the flag's name, not as a checkpoint list."""
    code, out = run_cli(["system-info", "--file", "eratosthenes", "--x", x])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "x must be >= 100" in err and "checkpoints" not in err


@pytest.mark.parametrize("X", ["1", "2", "3"])
def test_composite_runs_constructed_tiny_X_too_small(X, capsys):
    """At X <= 3 the run lands on f(1) = 2, the sieving prime itself: a
    domain limit named as such, not a verification bug."""
    code, out = run_cli(["composite-runs", "--poly", "n^2+1", "--X", X,
                         "--constructed"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert f"X = {X} is too small" in err and "bug" not in err


def test_cover_demo_edges_flag_reports_degree_deviation():
    """3000 singleton edges on 1000 vertices give every vertex degree 3,
    one below C2 = 4."""
    rep = run_json(["cover-demo", "--vertices", "1000", "--edges", "3000"])
    validate(rep)
    [cond] = [c for c in rep["result"]["hypotheses"]["conditions"]
              if c["name"] == "degree_uniform"]
    assert not cond["ok"] and cond["worst"] == 1.0


def test_cover_demo_edges_equal_to_c2_n_change_nothing():
    """--edges C2 N builds the family that C2 alone builds: the same
    result, hypotheses, plan and uncovered fractions included."""
    argv = ["cover-demo", "--vertices", "1000", "--trials", "2"]
    assert run_json(argv + ["--edges", "4000"])["result"] == \
        run_json(argv)["result"]


def test_cover_demo_edges_skip_the_c2_n_size_check(capsys):
    """--edges fixes the family size, so a C2 N below one edge is no
    refusal of its own: the plan refuses C2 = 0.01 as too small."""
    argv = _COVER + ["--c2", "0.01", "--edges", "500"]
    assert run_cli(argv) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: interval lengths sum to ")
    assert err.endswith("; C2 too small for beta=3.2622776601683796\n")


def test_cover_demo_vertices_too_large_for_memory_exits_1(monkeypatch,
                                                          capsys):
    """A vertex array that cannot be allocated is refused with its size,
    as the group array is.  The allocation failure is faked above 10^6
    entries."""
    arange = np.arange

    def fake_arange(n, *args, **kwargs):
        if n > 10 ** 6:
            raise MemoryError
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", fake_arange)
    argv = ["cover-demo", "--vertices", str(1 << 39), "--edges", "10"]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == (
        f"error: a family of {1 << 39} vertices does not fit in memory\n")


@pytest.mark.parametrize("flags,edges", [
    (["--edges", str((1 << 40) - 1)], (1 << 40) - 1),
    (["--c2", "1e7"], 500_000_000)])
def test_cover_demo_family_too_large_for_memory_exits_1(flags, edges,
                                                        monkeypatch, capsys):
    """A family of fewer than 2^40 edges whose group array cannot be
    allocated is refused with its edge count, not a MemoryError
    traceback (from --edges, or from C2 N in progression_instance).  The
    allocation failure is faked above 10^6 entries."""
    zeros = np.zeros

    def fake_zeros(shape, *args, **kwargs):
        if np.prod(shape) > 10 ** 6:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", fake_zeros)
    assert run_cli(_COVER + flags) == (1, "")
    assert capsys.readouterr().err == (
        f"error: a family of {edges} edges does not fit in memory\n")


@pytest.mark.parametrize("argv", [
    ["gaps", "--system", "eratosthenes", "--x", "100000000000",
     "--window", "1..10"],
    ["system-info", "--file", "eratosthenes", "--x", "100000000000"],
    ["construct", "--system", "eratosthenes", "--x", "100000000000"]])
def test_prime_sieve_too_large_for_memory_exits_1(argv, monkeypatch, capsys):
    """An x whose prime sieve cannot be allocated exits 1 with an error
    line naming the sieve, not a MemoryError traceback.  The allocation
    failure is faked above 10^8."""
    from sievegap import primes
    real = primes.sieve_flags

    def fake_sieve_flags(limit):
        if limit > 10 ** 8:
            raise MemoryError
        return real(limit)

    monkeypatch.setattr(primes, "sieve_flags", fake_sieve_flags)
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == (
        "error: a prime sieve to 100000000000 does not fit in memory\n")


@pytest.mark.parametrize("identity", ["i-first-mc", "i-second-mc"])
def test_moments_monte_carlo_identities_run(identity):
    rep = run_json(["moments", "--system", "eratosthenes",
                    "--identity", identity])
    validate(rep)
    assert rep["result"]["identity"] == identity


def test_system_file_small_prime_mode(tmp_path, monkeypatch, capsys):
    """n^2+n vanishes on both classes mod 2: degenerate under "roots",
    usable with "small_prime_mode": "empty"."""
    monkeypatch.chdir(tmp_path)
    spec = {"kind": "polynomial", "coeffs": [0, 1, 1]}
    argv = ["system-info", "--file", "f", "--x", "1000"]
    (tmp_path / "f").write_text(json.dumps(spec))
    assert run_cli(argv) == (1, "")
    assert "degenerate at p=2" in capsys.readouterr().err
    (tmp_path / "f").write_text(
        json.dumps({**spec, "small_prime_mode": "empty"}))
    assert run_cli(argv)[0] == 0


# ---------------------------------------------------------------------------
# system-info and warnings


def test_system_info_twin_warns(capsys):
    rep = run_json(["system-info", "--file", "twin", "--x", "100000"])
    validate(rep)
    assert rep["result"]["flagged_not_one_dimensional"]
    assert rep["result"]["warnings"]
    assert "one-dimensional" in capsys.readouterr().err


def test_system_info_cubic_past_1e5():
    """Roots of a cubic mod every prime <= 2e5: no cap on p."""
    rep = run_json(["system-info", "--file", "poly:n^3+2", "--x", "200000"])
    validate(rep)
    assert rep["result"]["x"] == 200000


def test_construct_with_no_admissible_scale_runs_degraded():
    rep = run_json(["construct", "--system", "eratosthenes", "--x", "10000",
                    "--force-scales", "1000"])
    params = rep["result"]["params"]
    assert params["degraded"] is True and params["scales"] == []
    assert "no scale has admissible primes; running degraded" in \
        params["warnings"]


@pytest.mark.parametrize("k,bound,n", [(2, 5, 0), (3, 50, 4)])
def test_coprime_with_zero_values_ends(k, bound, n):
    """f = (n - 1)(n - 2) is 0 at n = 1 and 2, and gcd(0, 0) = 0 has every
    prime as a factor: at n = 0 both values are 0."""
    rep = run_json(["coprime", "--poly", "n^2-3n+2", "--k", str(k),
                    "--bound", str(bound)])
    assert rep["result"]["found"] is True and rep["result"]["n"] == n


def test_composite_runs_psi12_is_composite():
    """f(1) = psi_12 = 399165290221 * 798330580441, a strong pseudoprime
    to the twelve prime bases 2..37, and f(2) is even."""
    rep = run_json(["composite-runs", "--poly", "n+318665857834031151167460",
                    "--X", "2"])
    assert (rep["result"]["start"], rep["result"]["length"]) == (1, 2)


def test_system_info_eratosthenes_clean():
    rep = run_json(["system-info", "--file", "eratosthenes", "--x", "10000"])
    assert not rep["result"]["flagged_not_one_dimensional"]


def test_parser_lists_all_subcommands():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    names = set(subs.choices)
    assert names == {"system-info", "gaps", "construct", "cover-demo",
                     "moments", "constants", "composite-runs", "coprime"}
