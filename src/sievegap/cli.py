"""Command-line entry point.

Every subcommand emits a single report of the form::

    {"subcommand": ..., "config": <resolved options>, "result": ...}

serialized deterministically (sorted keys, floats at 12 significant
digits), so identical argv + seed give byte-identical output.  The
report shape is published in ``schemas/report.schema.json`` next to this
module.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict

from .applications import (composite_run_bruteforce, composite_run_constructed,
                           coprimality_constructed, coprimality_witness)
from .constants import constants_report, rho_derangement
from .construction import construct, derive_params, trivial_baseline
from .cover import (assign_indices, check_hypotheses, plan_rounds,
                    progression_instance, run_cover, sequential_sum)
from .errors import SievegapError
from .moments import (exact_first_moment, mc_first_moment, mc_lambda_moments,
                      mc_second_moment)
from .primes import is_prime
from .rng import DEFAULT_SEED, derive_seed
from .systems import mertens_fit, system_from_spec
from .window import ShiftVector, largest_gap, sift

MOMENT_IDENTITIES = ("i-first-exact", "i-first-mc", "i-second-mc",
                     "ii-j0", "ii-j1", "ii-j2", "iii-j0", "iii-j1", "iii-j2")


# ---------------------------------------------------------------------------
# serialization


def _fixed(obj):
    """Normalize a report tree: floats at 12 significant digits, numpy
    scalars to Python, tuples to lists, keys to strings."""
    if isinstance(obj, dict):
        return {str(k): _fixed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fixed(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return str(obj)
        return float(f"{obj:.12g}")
    if hasattr(obj, "item"):            # numpy scalar
        return _fixed(obj.item())
    return obj


def _flatten(obj, prefix="", out=None):
    """Dotted-key flattening for CSV output; lists index numerically."""
    if out is None:
        out = {}
    if isinstance(obj, (dict, list)):
        items = sorted(obj.items()) if isinstance(obj, dict) \
            else enumerate(obj)
        for k, v in items:
            _flatten(v, f"{prefix}{k}.", out)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def _emit(report: dict, fmt: str, stream) -> None:
    report = _fixed(report)
    if fmt == "json":
        json.dump(report, stream, sort_keys=True, indent=2)
        stream.write("\n")
    else:
        flat = _flatten(report)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(list(flat))
        writer.writerow([flat[k] for k in flat])


# ---------------------------------------------------------------------------
# option plumbing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config", help="JSON file of options; flags win")
    sub.add_argument("--format", choices=("json", "csv"))


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < SIEVEGAP_SEED env < --config file < explicit flags."""
    provided = {k: v for k, v in vars(args).items()
                if k in args.flags and v is not None}
    cfg = dict(defaults)
    cfg.setdefault("format", "json")
    env_seed = os.environ.get("SIEVEGAP_SEED")
    try:
        cfg["seed"] = int(env_seed) if env_seed else DEFAULT_SEED
    except ValueError:
        raise SievegapError(
            f"SIEVEGAP_SEED must be an integer, got {env_seed!r}") from None
    path = args.config
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SievegapError(
                f"cannot read config file {path!r}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise SievegapError(f"config file {path!r} must hold a JSON "
                                f"object, got {file_cfg!r}")
        unknown = set(file_cfg) - set(args.flags)
        if unknown:
            raise SievegapError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg.update({k: _from_file(args.flags[k], v)
                    for k, v in file_cfg.items()})
    cfg.update(provided)
    for key, value in cfg.items():
        if not _finite(value):
            raise SievegapError(f"{key} must be finite, got {value}")
    if cfg["seed"] < 0:
        raise SievegapError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _from_file(flag: argparse.Action, value):
    """A config file value, checked against its flag's declaration and
    converted as argparse converts the flag: a store_true flag takes a
    JSON bool, an int flag a JSON integer (not a bool), a float flag a JSON
    number, any other flag a string; nargs "+" takes a non-empty list."""
    kind = bool if flag.nargs == 0 else flag.type or str
    json_types, want = {bool: ((bool,), "true or false"),
                        int: ((int,), "an integer"),
                        float: ((int, float), "a number")}.get(
                            kind, ((str,), "a string"))
    many = flag.nargs == "+"
    items = value if many and type(value) is list else [value]
    if not items or many != (type(value) is list) or any(
            type(v) not in json_types for v in items):
        raise SievegapError(f"config key {flag.dest!r} must be "
                            f"{'a non-empty list, each ' * many}{want}, "
                            f"got {value!r}")
    try:
        items = [kind(v) for v in items]
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise SievegapError(f"config key {flag.dest!r}: {exc}") from None
    if flag.choices and not set(items) <= set(flag.choices):
        raise SievegapError(f"config key {flag.dest!r} must be one of "
                            f"{', '.join(flag.choices)}, got {value!r}")
    return items if many else items[0]


def _finite(value) -> bool:
    """False for a nan or infinite float, alone or inside a list."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(map(_finite, value))
    return True


def _window_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must look like LO..HI, got {text!r}") from exc


def _load_shift_file(path: str, x: int) -> ShiftVector:
    """One "prime residue" pair a line, for primes <= x; blank and # lines
    are skipped."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                p, r = map(int, line.split())
                if p in entries:
                    raise SievegapError(
                        f"shift file {path!r} lists p={p} twice")
                entries[p] = r
    except (OSError, ValueError) as exc:
        raise SievegapError(f"cannot read shift file {path!r} (one "
                            f"'prime residue' pair a line): {exc}") from exc
    bad = [p for p in entries if not (p <= x and is_prime(p))]
    if bad:
        raise SievegapError(f"shift file {path!r}: modulus {bad[0]} is not "
                            f"a prime <= --x {x}, so no sieve reads it")
    return ShiftVector(entries)


def _at_least_1(cfg: dict, *keys: str) -> None:
    for key in keys:
        if cfg[key] is not None and cfg[key] < 1:
            raise SievegapError(f"--{key} must be >= 1, got {cfg[key]}")


def _stats(values: list[float]) -> dict:
    vs = sorted(values)
    n = len(vs)
    mid = vs[n // 2] if n % 2 else (vs[n // 2 - 1] + vs[n // 2]) / 2
    return {"min": vs[0], "median": mid, "max": vs[-1],
            "mean": sequential_sum(vs) / n, "n": n}


# ---------------------------------------------------------------------------
# subcommand handlers (take the resolved config, return the result dict)


def _cmd_system_info(cfg: dict) -> dict:
    x = cfg["x"]
    if x < 100:
        raise SievegapError(f"--x must be >= 100, got {x}")
    system = system_from_spec(cfg["file"])
    cps = [c for c in (100, 1_000, 10_000, 100_000, 1_000_000)
           if c < x] + [x]
    report = mertens_fit(system, cps)
    out = asdict(report)
    if report.flagged_not_one_dimensional:
        warning = ("system is not one-dimensional: sigma(x) log x still "
                   "drifts at the last checkpoint")
        out["warnings"] = [warning]
        print(f"warning: {warning}", file=sys.stderr)
    return out


def _cmd_gaps(cfg: dict) -> dict:
    system = system_from_spec(cfg["system"])
    lo, hi = cfg["window"]
    shift = (_load_shift_file(cfg["shift_file"], cfg["x"])
             if cfg.get("shift_file") else ShiftVector())
    win = sift(system, cfg["x"], shift, lo, hi)
    gap = largest_gap(win)
    return {"gap": gap.length, "left": gap.left, "sentinel": gap.sentinel,
            "members_count": win.count()}


def _cmd_construct(cfg: dict) -> dict:
    _at_least_1(cfg, "trials")
    system = system_from_spec(cfg["system"])
    params = derive_params(system, cfg["x"], delta=cfg.get("delta"),
                           force_z=cfg.get("force_z"),
                           force_scales=cfg.get("force_scales"))
    trials = cfg["trials"]
    runs = []
    best = None
    for t in range(trials):
        seed = derive_seed(cfg["seed"], "construct", t)
        res = construct(system, params, seed, mode=cfg["mode"])
        runs.append(res.length)
        if best is None or res.length > best.length:
            best = res
    base = trivial_baseline(system, cfg["x"], cfg["seed"])
    out = best.to_dict()
    out["baseline_L"] = base.length
    out["lengths"] = runs
    return out


def _cmd_cover_demo(cfg: dict) -> dict:
    _at_least_1(cfg, "trials")
    instance = progression_instance(cfg["vertices"], cfg["c2"], cfg["eta"],
                                    cfg["edges"])
    plan = plan_rounds(cfg["eta"], cfg["delta"], cfg["c2"])
    hyp = check_hypotheses(instance, cfg["delta"], y=cfg["scale_y"])
    fractions = []
    for t in range(cfg["trials"]):
        part = assign_indices(instance.s, plan,
                              derive_seed(cfg["seed"], "assign", t))
        fractions.append(run_cover(instance, plan, part, derive_seed(
            cfg["seed"], "trial", t)).uncovered_fraction)
    target = 10 * cfg["eta"]
    return {"hypotheses": hyp.to_dict(), "plan": asdict(plan),
            "uncovered": _stats(fractions),
            "success_fraction": sum(f <= target for f in fractions)
            / len(fractions),
            "success_threshold": target}


def _cmd_moments(cfg: dict) -> dict:
    system = system_from_spec(cfg["system"])
    ident = cfg["identity"]
    if ident == "i-first-exact":
        rep = exact_first_moment(system, cfg["z"], cfg["y"])
    elif ident == "i-first-mc":
        rep = mc_first_moment(system, cfg["z"], cfg["y"], cfg["trials"],
                              cfg["seed"])
    elif ident == "i-second-mc":
        rep = mc_second_moment(system, cfg["z"], cfg["y"], cfg["trials"],
                               cfg["seed"])
    else:
        family, j = ident.split("-j")
        params = derive_params(system, cfg["x"], delta=cfg.get("delta"),
                               force_z=cfg.get("force_z"),
                               force_scales=cfg.get("force_scales"))
        H = cfg.get("H")
        if H is None:
            if not params.Q:
                raise SievegapError(
                    "construction is degraded at this x: no prime family; "
                    "pass --force-scales or a larger --x")
            H = min(params.Q)
        rep = mc_lambda_moments(system, params, H, int(j), cfg["trials"],
                                cfg["seed"], identity=family)
    return asdict(rep)


def _cmd_constants(cfg: dict) -> dict:
    out = asdict(constants_report(cfg["rho"], cfg["tol"]))
    if cfg.get("derangement") is not None:
        d = cfg["derangement"]
        frac = rho_derangement(d)
        out["derangement"] = {"d": d, "value": float(frac),
                              "fraction": f"{frac}"}
    return out


def _cmd_composite_runs(cfg: dict) -> dict:
    if cfg["constructed"]:
        return asdict(composite_run_constructed(cfg["poly"], cfg["X"],
                                                cfg["seed"]))
    return asdict(composite_run_bruteforce(cfg["poly"], cfg["X"]))


def _cmd_coprime(cfg: dict) -> dict:
    if cfg["constructed"]:
        return coprimality_constructed(cfg["poly"], cfg["x"],
                                       cfg["seed"]).to_dict()
    return asdict(coprimality_witness(cfg["poly"], cfg["k"], cfg["bound"]))


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and _resolve copies each subcommand's defaults."""
    parser = argparse.ArgumentParser(
        prog="sievegap",
        description="Sieving systems, long sifted gaps, and their"
                    " verification toolkit")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("system-info", help="density/classification report")
    p.add_argument("--file", "--system", dest="file", required=True,
                   help="builtin name, poly:<expr>, or a JSON system file")
    p.add_argument("--x", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_system_info, defaults={})

    p = subs.add_parser("gaps", help="sift a window and report the gap")
    p.add_argument("--system", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--window", type=_window_arg, required=True,
                   metavar="LO..HI")
    p.add_argument("--shift-file", dest="shift_file",
                   help="text lines: prime residue")
    _add_common(p)
    p.set_defaults(func=_cmd_gaps, defaults={"shift_file": None})

    p = subs.add_parser("construct", help="three-stage gap construction")
    p.add_argument("--system", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--mode", choices=("sample", "cover"))
    p.add_argument("--trials", type=int)
    p.add_argument("--force-z", dest="force_z", type=int)
    p.add_argument("--force-scales", dest="force_scales", type=float,
                   nargs="+")
    _add_common(p)
    p.set_defaults(func=_cmd_construct,
                   defaults={"delta": None, "mode": "sample", "trials": 1,
                             "force_z": None, "force_scales": None})

    p = subs.add_parser("cover-demo",
                        help="hypergraph covering on the synthetic family")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int)
    p.add_argument("--c2", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--scale-y", dest="scale_y", type=float)
    p.add_argument("--trials", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_cover_demo,
                   defaults={"edges": None, "c2": 4.0, "eta": 0.05,
                             "delta": 0.25, "scale_y": 1e5, "trials": 10})

    p = subs.add_parser("moments", help="moment identities, exact or MC")
    p.add_argument("--system", required=True)
    p.add_argument("--identity", choices=MOMENT_IDENTITIES, required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--z", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--H", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--force-z", dest="force_z", type=int)
    p.add_argument("--force-scales", dest="force_scales", type=float,
                   nargs="+")
    _add_common(p)
    p.set_defaults(func=_cmd_moments,
                   defaults={"trials": 100, "x": 1000, "z": 7, "y": 50,
                             "H": None, "delta": None, "force_z": None,
                             "force_scales": None})

    p = subs.add_parser("constants", help="admissible-exponent constants")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--derangement", type=int,
                   help="also report the degree-d derangement density")
    _add_common(p)
    p.set_defaults(func=_cmd_constants,
                   defaults={"tol": 1e-9, "derangement": None})

    p = subs.add_parser("composite-runs",
                        help="longest composite runs of f(n)")
    p.add_argument("--poly", required=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--constructed", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_composite_runs, defaults={"constructed": False})

    p = subs.add_parser("coprime", help="coprimality witnesses")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--constructed", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_coprime,
                   defaults={"k": 2, "bound": 10_000, "x": 100,
                             "constructed": False})
    for sub in subs.choices.values():
        sub.set_defaults(flags={a.dest: a for a in sub._actions
                                if a.dest not in ("help", "config")})
    return parser


def dispatch(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.defaults)
        result = args.func(cfg)
    except SievegapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"subcommand": args.subcommand, "config": cfg, "result": result}
    _emit(report, cfg["format"], stream)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
