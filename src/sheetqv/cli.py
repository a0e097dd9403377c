"""Batch command-line front end.

Commands: sigma | sample | qv | verify. Configuration comes from
flags, optionally seeded from a JSON config file (flag values override file
values; keys use the flag names). The seed is always explicit — there is no
wall-clock default — so every run is reproducible. Exit codes: 0 success /
all tests pass, 1 test failure, 2 usage or config error.

JSON reports go to stdout (one object per line); human-readable progress
lines go to stderr. All floats are serialized with 17 significant digits so
values round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fieldsim, mcverify, qv as qvmod
from .kernel import HurstPair
from .sigma import CutoffError, RegimeError, sigma_series
from .sigma import sigma, sigma_squared_partial  # noqa: F401  (perfbench.layers patches these names)

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_CONFIG = 2


def _fmt(obj) -> str:
    """JSON with floats at 17 significant digits (exact round-trip)."""
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.floating):
        return _fmt(float(obj))
    return json.dumps(obj)


def _emit(record: dict) -> None:
    sys.stdout.write(_fmt(record) + "\n")


def _note(msg: str) -> None:
    sys.stderr.write(msg + "\n")


class ConfigError(Exception):
    pass


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # finite as a float: rejects nan, +-inf and integers too large to convert
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_point(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_number(x) and 0.0 <= x <= 1.0 for x in v)


def _list_of(ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v))


def _one_of(choices):
    return f"one of {', '.join(choices)}", lambda v: isinstance(v, str) and v in choices


_METHODS = ("cholesky", "circulant")
_Z_KINDS = ("cos_corner", "indicator_center")


# argparse types the flags and checks their choices; config values get the same
# checks. points and lambda_grid have no flag, so a config file is their only source.
_CONFIG_TYPES = {
    "n": ("an integer", _is_integer),
    "seed": ("an integer", _is_integer),
    "M": ("an integer", _is_integer),
    "cases": ("an integer", _is_integer),
    "n_list": ("a non-empty list of integers", _list_of(_is_integer)),
    "alpha": ("a finite number", _is_number),
    "beta": ("a finite number", _is_number),
    "tol": ("a finite number", _is_number),
    "points": ("a non-empty list of [s, t] points in the unit square", _list_of(_is_point)),
    "lambda_grid": ("a non-empty list of finite numbers", _list_of(_is_number)),
    "method": _one_of(_METHODS),
    "z_kind": _one_of(_Z_KINDS),
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as e:  # malformed JSON or undecodable bytes
                raise ConfigError(f"config file {args.config} is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for k, (kind, ok) in _CONFIG_TYPES.items():
            if k in cfg and not ok(cfg[k]):
                raise ConfigError(f"config value {k!r} must be {kind}, got {cfg[k]!r}")
    for k, v in vars(args).items():
        if k in ("command", "config"):
            continue
        if v is not None:
            cfg[k] = v
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def _hurst(cfg: dict) -> HurstPair:
    _require(cfg, "alpha", "beta")
    try:
        return HurstPair(float(cfg["alpha"]), float(cfg["beta"]))
    except ValueError as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# commands


def cmd_sigma(cfg: dict) -> int:
    h = _hurst(cfg)
    tol = float(cfg.get("tol", 1e-10))
    if not tol > 0:
        raise ConfigError(f"--tol must be a positive number, got {tol!r}")
    try:
        res = sigma_series(h, tol)
    except RegimeError as e:
        _note(f"regime error: {e}")
        return EXIT_CONFIG
    _emit({
        "sigma": math.sqrt(res.value),
        "sigma_squared": res.value,
        "cutoff": res.cutoff,
        "tail_bound": res.tail_bound,
    })
    return EXIT_OK


def _weight(cfg: dict, default: str) -> qvmod.WeightFunction:
    try:
        return qvmod.weight(cfg.get("weight", default))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _one_sample(cfg: dict):
    """Increments of replication 0, the sample that sample and qv write."""
    h = _hurst(cfg)
    _require(cfg, "n", "seed", "out")
    n = _grid_size("--n", cfg["n"])
    stream = fieldsim.replication_rng(_at_least("--seed", cfg["seed"], 0), 0, fieldsim.PURPOSE_SHEET)
    return fieldsim.sample_increments(h, n, stream, method=cfg.get("method", "cholesky"))


def cmd_sample(cfg: dict) -> int:
    field = fieldsim.field_from_increments(_one_sample(cfg))
    fmt = cfg.get("format", "csv")
    if fmt == "bin":
        fieldsim.write_field(cfg["out"], field)
    elif fmt == "csv":
        with open(cfg["out"], "w") as fh:
            fh.write(f"{field.n},{field.hurst.alpha:.17g},{field.hurst.beta:.17g}\n")
            fieldsim.write_csv_rows(fh, field.values, "\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _note(f"wrote {fmt} field dump to {cfg['out']}")
    return EXIT_OK


def cmd_qv(cfg: dict) -> int:
    f = _weight(cfg, "constant_one")
    proc = qvmod.qv_process(_one_sample(cfg), f)
    qvmod.write_qv_csv(cfg["out"], proc)
    _note(f"wrote statistic partial sums to {cfg['out']}")
    return EXIT_OK


def _at_least(what: str, value, least: int) -> int:
    value = int(value)
    if value < least:
        raise ConfigError(f"{what} must be at least {least}, got {value}")
    return value


def _grid_size(
    what: str, value, least: int = 1, most: int = fieldsim._MAX_N, why: str = "dense-factor budget"
) -> int:
    """A grid size least <= n <= most; by default one the samplers can factor."""
    n = _at_least(what, value, least)
    if n > most:
        raise ConfigError(f"{what} must be at most {most} ({why}), got {n}")
    return n


def cmd_verify(cfg: dict) -> int:
    which = cfg.get("which")
    # ks compares with the variance of f == 1, and mean's rules are written for f = square
    own = {"ks": "constant_one", "mean": "square"}.get(which)
    if own is not None and cfg.get("weight", own) != own:
        raise ConfigError(f"--which {which} judges the weight {own} only, got {cfg['weight']!r}")
    h = _hurst(cfg)
    _require(cfg, "seed")
    seed = _at_least("--seed", cfg["seed"], 0)
    m_reps = int(cfg.get("M", 5000))
    if which in ("var", "ks", "charfn", "stable"):
        # two replications for a standard error; the KS p-value is asymptotic
        _at_least(f"--M for --which {which}", m_reps, 100 if which == "ks" else 2)
    reports: list[mcverify.VerifyReport] = []

    if which == "mean":
        n_list = [
            _grid_size("--n-list size", v, most=mcverify.MAX_MEAN_N, why="the exact mean sums n^2 terms")
            for v in cfg.get("n_list", [8, 16, 32, 64, 128])
        ]
        if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("--which mean needs at least 2 strictly increasing --n-list sizes")
        reports.append(mcverify.mean_decay(h, qvmod.weight("square"), (1.0, 1.0), n_list))
    elif which == "var":
        n_list = [_grid_size("--n-list size", v) for v in cfg.get("n_list", [16, 64])]
        if len(n_list) > 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("--which var takes one --n-list size or two strictly increasing ones")
        coarse = n_list[0] if len(n_list) == 2 else None
        f = _weight(cfg, "identity")
        reports += mcverify.second_moment_limit(h, f, (1.0, 1.0), n_list[-1], m_reps, seed, coarse=coarse)
    elif which == "ks":
        n = _grid_size("--n", cfg.get("n", 64))
        reports += mcverify.ks_check(h, n, m_reps, seed)
    elif which == "charfn":
        n = _grid_size("--n (the check also runs at n // 2)", cfg.get("n", 64), 2)
        f = _weight(cfg, "cosine")
        points = [tuple(p) for p in cfg.get("points", [(0.5, 1.0), (1.0, 0.5)])]
        lam = mcverify.lambda_product_grid(len(points), cfg.get("lambda_grid", mcverify.DEFAULT_LAMBDAS))
        bound = mcverify.MAX_CHARFN_LAMBDA
        if np.abs(lam).max() > bound:
            raise ConfigError(f"--which charfn needs lambda_grid values in [-{bound:g}, {bound:g}]")
        reports += mcverify.charfn_compare(h, f, points, lam, n, m_reps, seed, coarse=n // 2)
    elif which == "stable":
        n = _grid_size("--n (the check also runs at n // 2)", cfg.get("n", 64), 2)
        f = _weight(cfg, "identity")
        lam = np.asarray(cfg.get("lambda_grid", mcverify.DEFAULT_LAMBDAS), dtype=float)
        z_kind = cfg.get("z_kind", "cos_corner")
        reports += mcverify.stable_convergence_check(
            h, f, (1.0, 1.0), z_kind, lam, n, m_reps, seed, coarse=n // 2)
    elif which == "kernel-props":
        cases = _at_least("--cases", cfg.get("cases", 100_000), 1)
        reports += mcverify.kernel_property_suite(cases, seed)
    else:
        raise ConfigError(f"unknown verify suite {which!r}")
    if which in ("var", "ks", "charfn", "stable") and not h.admissible():
        # the limit theorem does not cover this run, so its pass supports nothing
        for r in reports:
            r.extra["admissible"] = False

    all_pass = True
    for r in reports:
        _emit(r.to_dict())
        status = "PASS" if r.passed else "FAIL"
        _note(f"[{status}] {r.test}: estimate={r.estimate:.6g} reference={r.reference:.6g} se={r.se:.3g}")
        all_pass &= bool(r.passed)
    return EXIT_OK if all_pass else EXIT_TEST_FAILURE


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sheetqv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--config", help="JSON config file; flags override its values")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        if seed:
            sp.add_argument("--seed", type=int)

    sp = sub.add_parser("sigma", help="evaluate the limiting constant")
    common(sp, seed=False)
    sp.add_argument("--tol", type=float)

    sp = sub.add_parser("sample", help="simulate one sheet field and dump it")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--method", choices=_METHODS)
    sp.add_argument("--format", choices=["csv", "bin"])
    sp.add_argument("--out")

    sp = sub.add_parser("qv", help="compute the statistic's partial sums")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--method", choices=_METHODS)
    sp.add_argument("--weight")
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--which", choices=["mean", "var", "ks", "charfn", "stable", "kernel-props"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--n-list", dest="n_list", type=int, nargs="+")
    sp.add_argument("--M", type=int)
    sp.add_argument("--weight")
    sp.add_argument("--z-kind", dest="z_kind", choices=_Z_KINDS)
    sp.add_argument("--cases", type=int)

    return p


_COMMANDS = {
    "sigma": cmd_sigma,
    "sample": cmd_sample,
    "qv": cmd_qv,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, RegimeError, CutoffError) as e:
        _note(f"error: {e}")
        return EXIT_CONFIG
    except MemoryError as e:  # sizes no machine holds are refused like any other bad input
        _note(f"error: not enough memory: {e}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
