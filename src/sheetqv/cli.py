"""Batch command-line front end.

Commands: sigma | sample | qv | verify. Configuration comes from
flags, optionally seeded from a JSON config file (flag values override file
values; keys use the flag names). The option table checks a value's type
and the sign that holds wherever its key is used, the same way whichever of
the two it came from; every other limit belongs to the library function
that takes the value, which raises ``InputError``. The seed is always
explicit — there is no wall-clock default — so every run is reproducible.
Exit codes: 0 success / all tests pass, 1 test failure, 2 usage or config
error; every refusal, argparse's own included, exits 2 with one
``error:`` line on stderr.

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
from .kernel import HurstPair, InputError
from .sigma import CutoffError, sigma_series
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


def _is_number(v) -> bool:
    # finite as a float: rejects nan, +-inf and integers too large to convert
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_point(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_number(x) and 0.0 <= x <= 1.0 for x in v)


def _list_of(ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(ok, v))


def _one_of(*choices):
    # the flag lists the choices in --help; a wrong one is refused by the check, in one line
    metavar = "{" + ",".join(choices) + "}"
    return f"one of {', '.join(choices)}", lambda v: isinstance(v, str) and v in choices, {"metavar": metavar}


def _integer(least: int):
    ok = lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least
    return f"an integer >= {least}", ok, {"type": int}


_COUNT = _integer(1)
_NUMBER = ("a finite number", _is_number, {"type": float})

# key: (what a value must be, its check, its flag's argparse keywords or None when
# only a config file sets it). The flag is --key with "-" for "_".
_OPTIONS = {
    "alpha": _NUMBER,
    "beta": _NUMBER,
    "seed": _integer(0),
    "tol": _NUMBER,
    "which": _one_of("mean", "var", "ks", "charfn", "stable", "kernel-props"),
    "n": _COUNT,
    "n_list": ("a non-empty list of integers >= 1", _list_of(_COUNT[1]), {"type": int, "nargs": "+"}),
    "M": _COUNT,
    "cases": _COUNT,
    "method": _one_of("cholesky", "circulant"),
    "format": _one_of("csv", "bin"),
    "weight": _one_of(*qvmod.WEIGHTS),
    "z_kind": _one_of(*mcverify.Z_KINDS),
    "out": ("a file path", lambda v: isinstance(v, str), {}),
    "points": ("a non-empty list of [s, t] points in the unit square", _list_of(_is_point), None),
    "lambda_grid": ("a non-empty list of finite numbers", _list_of(_is_number), None),
}

# each command's flags besides --config, in --help order
_FLAGS = {
    "sigma": ("alpha", "beta", "tol"),
    "sample": ("alpha", "beta", "seed", "n", "method", "format", "out"),
    "qv": ("alpha", "beta", "seed", "n", "method", "weight", "out"),
    "verify": ("alpha", "beta", "seed", "which", "n", "n_list", "M", "weight", "z_kind", "cases"),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """The config file's values, overridden by the flags given, each key's value checked."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as e:  # malformed JSON or undecodable bytes
                raise InputError(f"config file {args.config} is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise InputError("config file must hold a JSON object")
        unknown = [k for k in cfg if k not in _OPTIONS]
        if unknown:  # a misspelt key would otherwise leave its option at the default
            raise InputError(f"config key {unknown[0]!r} names no option")
    cfg.update((k, v) for k, v in vars(args).items() if k not in ("command", "config") and v is not None)
    for k, (kind, ok, _) in _OPTIONS.items():
        if k in cfg and not ok(cfg[k]):
            raise InputError(f"option {k!r} must be {kind}, got {cfg[k]!r}")
    return cfg


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise InputError(f"missing required option(s): {', '.join(missing)}")


def _hurst(cfg: dict) -> HurstPair:
    _require(cfg, "alpha", "beta")
    return HurstPair(float(cfg["alpha"]), float(cfg["beta"]))


# ---------------------------------------------------------------------------
# commands


def cmd_sigma(cfg: dict) -> int:
    res = sigma_series(_hurst(cfg), float(cfg.get("tol", 1e-10)))
    _emit({
        "sigma": math.sqrt(res.value),
        "sigma_squared": res.value,
        "cutoff": res.cutoff,
        "tail_bound": res.tail_bound,
    })
    return EXIT_OK


def _one_sample(cfg: dict):
    """Increments of replication 0, the sample that sample and qv write."""
    h = _hurst(cfg)
    _require(cfg, "n", "seed", "out")
    stream = fieldsim.replication_rng(cfg["seed"], 0, fieldsim.PURPOSE_SHEET)
    return fieldsim.sample_increments(h, cfg["n"], stream, method=cfg.get("method", "cholesky"))


def cmd_sample(cfg: dict) -> int:
    field = fieldsim.field_from_increments(_one_sample(cfg))
    fmt = cfg.get("format", "csv")
    if fmt == "bin":
        fieldsim.write_field(cfg["out"], field)
    else:
        with open(cfg["out"], "w") as fh:
            fh.write(f"{field.n},{field.hurst.alpha:.17g},{field.hurst.beta:.17g}\n")
            fieldsim.write_csv_rows(fh, field.values, "\n")
    _note(f"wrote {fmt} field dump to {cfg['out']}")
    return EXIT_OK


def cmd_qv(cfg: dict) -> int:
    f = qvmod.weight(cfg.get("weight", "constant_one"))
    proc = qvmod.qv_process(_one_sample(cfg), f)
    qvmod.write_qv_csv(cfg["out"], proc)
    _note(f"wrote statistic partial sums to {cfg['out']}")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    _require(cfg, "which")
    which = cfg["which"]
    # ks compares with the variance of f == 1, and mean's rules are written for f = square
    own = {"ks": "constant_one", "mean": "square"}.get(which)
    if own is not None and cfg.get("weight", own) != own:
        raise InputError(f"--which {which} judges the weight {own} only, got {cfg['weight']!r}")
    h = _hurst(cfg)
    _require(cfg, "seed")
    seed = cfg["seed"]
    m_reps = cfg.get("M", 5000)
    monte_carlo = which not in ("mean", "kernel-props")
    if monte_carlo and m_reps < 2:
        # two replications for a standard error
        raise InputError(f"--which {which} needs --M at least 2, got {m_reps}")
    n = cfg.get("n", 64)
    if which in ("charfn", "stable") and n < 2:
        raise InputError(f"--which {which} needs --n at least 2, since it also runs at n // 2, got {n}")
    reports: list[mcverify.VerifyReport] = []

    if which == "mean":
        n_list = cfg.get("n_list", [8, 16, 32, 64, 128])
        reports.append(mcverify.mean_decay(h, qvmod.weight("square"), (1.0, 1.0), n_list))
    elif which == "var":
        n_list = cfg.get("n_list", [16, 64])
        # the draw size, after at most one smaller coarse size
        if len(n_list) > 2 or (len(n_list) == 2 and n_list[0] >= n_list[1]):
            raise InputError("--which var takes one --n-list size or two strictly increasing ones")
        coarse = n_list[0] if len(n_list) == 2 else None
        f = qvmod.weight(cfg.get("weight", "identity"))
        reports += mcverify.second_moment_limit(h, f, (1.0, 1.0), n_list[-1], m_reps, seed, coarse=coarse)
    elif which == "ks":
        reports += mcverify.ks_check(h, n, m_reps, seed)
    elif which == "charfn":
        f = qvmod.weight(cfg.get("weight", "cosine"))
        points = [tuple(p) for p in cfg.get("points", [(0.5, 1.0), (1.0, 0.5)])]
        lam = mcverify.lambda_product_grid(len(points), cfg.get("lambda_grid", mcverify.DEFAULT_LAMBDAS))
        reports += mcverify.charfn_compare(h, f, points, lam, n, m_reps, seed, coarse=n // 2)
    elif which == "stable":
        f = qvmod.weight(cfg.get("weight", "identity"))
        lam = np.asarray(cfg.get("lambda_grid", mcverify.DEFAULT_LAMBDAS), dtype=float)
        z_kind = cfg.get("z_kind", "cos_corner")
        reports += mcverify.stable_convergence_check(
            h, f, (1.0, 1.0), z_kind, lam, n, m_reps, seed, coarse=n // 2)
    elif which == "kernel-props":
        reports += mcverify.kernel_property_suite(cfg.get("cases", 100_000), seed)
    if monte_carlo and not h.admissible():
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


_COMMANDS = {
    "sigma": (cmd_sigma, "evaluate the limiting constant"),
    "sample": (cmd_sample, "simulate one sheet field and dump it"),
    "qv": (cmd_qv, "compute the statistic's partial sums"),
    "verify": (cmd_verify, "run a verification suite"),
}


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one line, through main's error path, not a usage block."""

    def error(self, message):
        raise InputError(message)

    def _parse_optional(self, arg_string):
        # any text float() reads, such as -inf or -1e-3, is a value; argparse alone reads only -1 or -.5 so
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="sheetqv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        for k in _FLAGS[command]:
            sp.add_argument("--" + k.replace("_", "-"), **_OPTIONS[k][2])
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_merge_config(args))
    except (InputError, OSError, CutoffError) as e:
        _note(f"error: {e}")
        return EXIT_CONFIG
    except MemoryError as e:  # sizes no machine holds are refused like any other bad input
        _note(f"error: not enough memory: {e}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
