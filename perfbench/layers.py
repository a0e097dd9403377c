"""Where the traced run hooks into sheetqv, and the per-layer metrics.

Each hook replaces the attribute the caller looks up: ``cli`` calls
``fieldsim.sample_increments`` through the module, while ``mcverify`` holds
its own binding of ``factor_1d``, so both places are patched. Calls inside
one module that go through a local name (``kernel.rho`` from
``kernel.incr_cov``, ``qv.d2_mean_at`` inside ``mcverify.exact_mean``) are
not hooked: their time is the caller's self time, which keeps per-cell calls
out of the trace.

Counts marked "computed" come from the call arguments, not from the program.
"""

from __future__ import annotations

import importlib
import os

LAYERS = ("cli", "mcverify", "qv", "fieldsim", "sigma", "kernel", "quadrature")
PREFIX_BYTES_PER_CELL = 32  # a double cumsum reads and writes 8 bytes per cell, twice


def _width(n: int, method: str) -> int:
    """Columns of the 1-D factor: n for Cholesky, 2n for circulant embedding."""
    return n if method == "cholesky" else 2 * n


def _fields(t, n: int, method: str, count: int) -> None:
    m = _width(n, method)
    t.counts["fieldsim.normals"] += count * m * m
    t.counts["fieldsim.product.flop"] += count * (2 * n * m * m + 2 * n * n * m)


def _sigma_key(t, a, _):
    t.keys["sigma"].add((a["h"].alpha, a["h"].beta, a["tol"]))


def _sigma_terms(t, a, _):
    t.counts["sigma.terms"] += 2 * a["cutoff"]


def _factor_key(t, a, _):
    t.keys["fieldsim.factor"].add((a["gamma"], a["n"], a["method"]))


def _sample(t, a, _):
    _fields(t, a["n"], a["method"], 1)


def _node_chunks(t, a, _):
    n, reps = a["n"], a["M"]
    _fields(t, n, a["method"], reps)
    t.counts["fieldsim.prefix.bytes"] += reps * PREFIX_BYTES_PER_CELL * n * n


def _prefix(t, a, _):
    n = a["inc"].n
    t.counts["fieldsim.prefix.bytes"] += PREFIX_BYTES_PER_CELL * n * n


def _file_bytes(counter: str):
    def count(t, a, _):
        t.counts[counter] += os.path.getsize(a["path"])
    return count


def _reads(t, reps: int, n: int, points_per_rep: int) -> None:
    # each replication prefix-sums its nodes and one summand array, n^2 cells each
    t.counts["mcverify.prefix.reads"] += reps * points_per_rep
    t.counts["mcverify.prefix.cells"] += reps * 2 * n * n


def _samples(t, a, _):
    t.counts["mcverify.samples.reps"] += a["M"]
    _reads(t, a["M"], a["n"], len(a["points"]) + (a["sheet_functional"] is not None))


def _reference(t, a, _):
    _reads(t, a["M"], a["n"], len(a["points"]) ** 2)


def _stable(t, a, _):
    # the reference side runs inline: one functional and one variance read per rep
    _reads(t, a["M"], a["n"], 2)


def install(tracer) -> None:
    """Patch every hooked attribute of the sheetqv modules."""
    from sheetqv import cli, fieldsim, kernel, mcverify, qv

    sigma_mod = importlib.import_module("sheetqv.sigma")  # the package re-exports sigma()

    p = tracer.patch
    p(cli, "sigma", "sigma.sigma", _sigma_key)
    p(mcverify, "sigma_of", "sigma.sigma", _sigma_key)
    p(cli, "sigma_squared_partial", "sigma.partial", _sigma_terms)
    p(sigma_mod, "sigma_squared_partial", "sigma.partial", _sigma_terms)

    p(fieldsim, "factor_1d", "fieldsim.factor", _factor_key)
    p(mcverify, "factor_1d", "fieldsim.factor", _factor_key)
    p(fieldsim, "replication_rng", "fieldsim.streams")
    p(mcverify, "replication_rng", "fieldsim.streams")
    p(fieldsim, "sample_increments", "fieldsim.sample", _sample)
    p(fieldsim, "field_from_increments", "fieldsim.prefix", _prefix)
    p(fieldsim, "write_field", "fieldsim.write", _file_bytes("fieldsim.write.bytes"))
    p(mcverify, "_node_chunks", None, _node_chunks)

    p(qv, "qv_process", "qv.statistic")
    p(qv, "write_qv_csv", "qv.csv", _file_bytes("qv.csv.bytes"))

    p(mcverify, "qv_point_samples", "mcverify.samples", _samples)
    p(mcverify, "_q_quadform_samples", "mcverify.reference", _reference)
    p(mcverify, "stable_convergence_check", "mcverify.stable", _stable)
    p(mcverify, "charfn_compare", "mcverify.charfn")
    p(mcverify, "second_moment_limit", "mcverify.second_moment")
    p(mcverify, "mean_decay", "mcverify.mean_decay")
    p(mcverify, "ks_normality", "mcverify.ks")
    p(mcverify, "bootstrap_se", "mcverify.bootstrap")
    p(mcverify, "exact_mean", "mcverify.exact")
    p(mcverify, "exact_qv_variance", "mcverify.exact")
    p(mcverify, "kernel_property_suite", "mcverify.kernel_suite")

    p(mcverify, "rho", "kernel.rho")
    p(kernel, "incr_cov", "kernel.incr_cov")
    p(kernel, "delta_incr_inner", "kernel.delta_incr_inner")

    p(mcverify, "gauss_legendre_2d", "quadrature.legendre_2d")
    p(qv, "gauss_hermite_mean", "quadrature.hermite_mean")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(summary: dict, tracer, wall_s: float, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Every time also appears as a share of the traced pass's wall time
    (``*_pct``), which stays defined on workloads that never enter a layer.
    """
    calls, busy, own = summary["calls"], summary["busy"], summary["self"]
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, c in calls.items():
        layer_calls[name.split(".", 1)[0]] += c
    c, keys = tracer.counts, tracer.keys
    seconds = {
        "sigma.busy_s": summary["layer_busy"].get("sigma", 0.0),
        "fieldsim.factor.busy_s": busy.get("fieldsim.factor", 0.0),
        "fieldsim.streams.busy_s": busy.get("fieldsim.streams", 0.0),
        "fieldsim.sample.self_s": own.get("fieldsim.sample", 0.0),
        "fieldsim.prefix.busy_s": busy.get("fieldsim.prefix", 0.0),
        "fieldsim.write.busy_s": busy.get("fieldsim.write", 0.0),
        "qv.statistic.busy_s": busy.get("qv.statistic", 0.0),
        "qv.csv.busy_s": busy.get("qv.csv", 0.0),
        "mcverify.samples.self_s": own.get("mcverify.samples", 0.0),
        # stable_convergence_check runs its reference loop inline
        "mcverify.reference.self_s": own.get("mcverify.reference", 0.0) + own.get("mcverify.stable", 0.0),
        "mcverify.bootstrap.busy_s": busy.get("mcverify.bootstrap", 0.0),
        "mcverify.exact.busy_s": busy.get("mcverify.exact", 0.0),
        "mcverify.kernel_suite.self_s": own.get("mcverify.kernel_suite", 0.0),
        "kernel.busy_s": summary["layer_busy"].get("kernel", 0.0),
        "quadrature.busy_s": summary["layer_busy"].get("quadrature", 0.0),
    }
    seconds.update({f"{layer}.self_s": summary["layer_self"].get(layer, 0.0) for layer in LAYERS})
    out = {name: (value, "s") for name, value in seconds.items()}
    out.update({name[:-2] + "_pct": (100.0 * _ratio(value, wall_s), "%") for name, value in seconds.items()})
    sigma_calls = calls.get("sigma.sigma", 0)
    factor_calls = calls.get("fieldsim.factor", 0)
    out.update({
        "sigma.calls": (sigma_calls, "count"),
        "sigma.distinct": (len(keys["sigma"]), "count"),
        "sigma.distinct_ratio": (_ratio(len(keys["sigma"]), sigma_calls), "ratio"),
        "sigma.terms": (c["sigma.terms"], "count"),
        "fieldsim.factor.calls": (factor_calls, "count"),
        "fieldsim.factor.distinct": (len(keys["fieldsim.factor"]), "count"),
        "fieldsim.factor.distinct_ratio": (_ratio(len(keys["fieldsim.factor"]), factor_calls), "ratio"),
        "fieldsim.streams.count": (calls.get("fieldsim.streams", 0), "count"),
        "fieldsim.normals": (c["fieldsim.normals"], "count"),
        "fieldsim.product.gflop": (c["fieldsim.product.flop"] / 1e9, "GFLOP"),
        "fieldsim.prefix.bytes": (c["fieldsim.prefix.bytes"], "bytes"),
        "fieldsim.write.bytes": (c["fieldsim.write.bytes"], "bytes"),
        "qv.csv.bytes": (c["qv.csv.bytes"], "bytes"),
        "mcverify.samples.reps": (c["mcverify.samples.reps"], "count"),
        "mcverify.bootstrap.calls": (calls.get("mcverify.bootstrap", 0), "count"),
        "mcverify.prefix.reads": (c["mcverify.prefix.reads"], "count"),
        "mcverify.prefix.cells": (c["mcverify.prefix.cells"], "count"),
        "mcverify.prefix.read_ratio": (_ratio(c["mcverify.prefix.reads"], c["mcverify.prefix.cells"]), "ratio"),
        "kernel.calls": (layer_calls["kernel"], "count"),
        "quadrature.calls": (layer_calls["quadrature"], "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    })
    return out


# Counts derived from call arguments rather than observed; the report labels them.
COMPUTED = {"sigma.terms", "fieldsim.normals", "fieldsim.product.gflop", "fieldsim.prefix.bytes",
            "mcverify.prefix.reads", "mcverify.prefix.cells", "mcverify.prefix.read_ratio"}

