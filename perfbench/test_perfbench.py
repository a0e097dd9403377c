"""Tests of the benchmark's own checks and span arithmetic (no workload runs)."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, tracing, workloads

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())


def _op(workload: str, name: str, seed: int = workloads.GOLDEN_SEED):
    return next(op for op in workloads.operations(workload, seed) if op.name == name)


def _execution(golden: dict, **changes) -> dict:
    run = {"error": None, "exit": golden["exit"], "stdout": golden["stdout"],
           "file_sha256": golden["file_sha256"]}
    run.update(changes)
    return run


# --- failed-operation accounting ---------------------------------------------


def test_golden_outputs_pass_their_own_checks():
    for workload, frozen in GOLDEN.items():
        for op in workloads.operations(workload, workloads.GOLDEN_SEED):
            g = frozen[op.name]
            assert g["argv"] == list(op.argv)
            assert checks.failures(op, _execution(g), g["file_sha256"], g) == []


def test_doctored_record_fails():
    op = _op("mc_verify", "verify_ks")
    g = GOLDEN["mc_verify"]["verify_ks"]
    rec = json.loads(g["stdout"])
    rec["estimate"] *= 1.0 + 1e-12
    doctored = json.dumps(rec) + "\n"
    assert checks.failures(op, _execution(g, stdout=doctored), None, g)
    # off the golden seed the invariants catch a non-finite or malformed record
    rec["estimate"] = float("nan")
    assert checks.failures(op, _execution(g, stdout=json.dumps(rec) + "\n"), None, None)
    del rec["provenance"]
    rec["estimate"] = 0.5
    assert checks.failures(op, _execution(g, stdout=json.dumps(rec) + "\n"), None, None)


def test_wrong_exit_code_fails():
    op = _op("mc_verify", "verify_var")  # one record has pass: false, so exit 1 is right
    g = GOLDEN["mc_verify"]["verify_var"]
    assert g["exit"] == 1
    assert checks.failures(op, _execution(g), None, None) == []
    assert checks.failures(op, _execution(g, exit=0), None, None)
    assert checks.failures(op, _execution(g, exit=2), None, None)
    assert checks.failures(op, _execution(g, exit=None, error="ValueError: boom"), None, None)


def _sample_op(n: int, out: str):
    return workloads.Op("sample_small", "sample_s",
                        ("sample", "--alpha", "0.35", "--beta", "0.4", "--n", str(n),
                         "--seed", "1", "--format", "bin", "--out", out), 0, out)


def test_truncated_field_file_fails(tmp_path):
    from sheetqv import cli

    path = tmp_path / "f.bin"
    op = _sample_op(8, str(path))
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(op.argv)) == 0
    checks.check_file(op, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(checks.CheckError):
        checks.check_file(op, path)
    run = {"error": None, "exit": 0, "stdout": "", "file_sha256": "any"}
    assert checks.failures(op, run, None, None)  # the file check failed: no digest to match


def test_truncated_csv_fails(tmp_path):
    from sheetqv import cli

    path = tmp_path / "q.csv"
    op = workloads.Op("qv_small", "qv_csv_s",
                      ("qv", "--alpha", "0.35", "--beta", "0.4", "--n", "8", "--seed", "3",
                       "--weight", "cosine", "--out", str(path)), 0, str(path))
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(op.argv)) == 0
    checks.check_file(op, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(checks.CheckError):
        checks.check_file(op, path)


# --- span arithmetic ---------------------------------------------------------


def _scripted(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_of_a_nested_trace():
    # cli.main [0,10] > mcverify.charfn [1,8] > fieldsim.factor [2,3], fieldsim.streams [4,4.5]
    #                 > sigma.sigma [8.5,9.5] > sigma.partial [8.6,9.0]
    t = tracing.Tracer(clock=_scripted([0, 1, 2, 3, 4, 4.5, 8, 8.5, 8.6, 9.0, 9.5, 10]))

    def charfn():
        t.call("fieldsim.factor", lambda: None)
        t.call("fieldsim.streams", lambda: None)

    def sigma():
        t.call("sigma.partial", lambda: None)

    def main():
        t.call("mcverify.charfn", charfn)
        t.call("sigma.sigma", sigma)

    t.call("cli.main", main)
    assert t.parents == [-1, 0, 1, 1, 0, 4]
    s = tracing.summarize(t.names, t.starts, t.ends, t.parents)
    assert s["self"] == pytest.approx({
        "cli.main": 2.0, "mcverify.charfn": 5.5, "fieldsim.factor": 1.0,
        "fieldsim.streams": 0.5, "sigma.sigma": 0.6, "sigma.partial": 0.4,
    })
    assert s["layer_self"] == pytest.approx({
        "cli": 2.0, "mcverify": 5.5, "fieldsim": 1.5, "sigma": 1.0})
    assert sum(s["layer_self"].values()) == pytest.approx(10.0)
    assert s["layer_busy"]["sigma"] == pytest.approx(1.0)  # nested sigma spans count once
    assert s["busy"]["sigma.partial"] == pytest.approx(0.4)


def test_busy_time_counts_recursive_spans_once():
    names = ["a.f", "a.f", "b.g", "a.f"]
    starts, ends = [0.0, 1.0, 2.0, 2.5], [10.0, 5.0, 4.0, 3.0]
    s = tracing.summarize(names, starts, ends, [-1, 0, 1, 2])
    assert s["busy"]["a.f"] == pytest.approx(10.0)
    assert s["busy"]["b.g"] == pytest.approx(2.0)
    assert s["layer_self"]["b"] == pytest.approx(1.5)
    assert sum(s["layer_self"].values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    s = tracing.summarize(["p.x", "c.y", "c.y"], [0.0, 1.0, 2.0], [10.0, 4.0, 5.0], [-1, 0, 0])
    assert s["self"]["p.x"] == pytest.approx(6.0)


def test_traced_cli_call_restores_the_modules():
    from sheetqv import cli, fieldsim, mcverify

    originals = (mcverify.factor_1d, fieldsim.replication_rng, cli.sigma)
    t = tracing.Tracer()
    try:
        layers.install(t)
        argv = ["verify", "--which", "ks", "--alpha", "0.35", "--beta", "0.35",
                "--n", "8", "--M", "200", "--seed", "5"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            t.call("cli.main", cli.main, argv)
    finally:
        t.restore()
    assert (mcverify.factor_1d, fieldsim.replication_rng, cli.sigma) == originals
    s = tracing.summarize(t.names, t.starts, t.ends, t.parents)
    assert s["calls"]["fieldsim.streams"] == 200
    assert s["calls"]["fieldsim.factor"] == 2
    assert {"mcverify.samples", "mcverify.exact", "kernel.rho", "mcverify.ks"} <= set(s["calls"])
    assert sum(s["layer_self"].values()) == pytest.approx(t.ends[0] - t.starts[0])
    m = layers.metrics(s, t, t.ends[0] - t.starts[0], 0)
    assert m["mcverify.samples.reps"] == (200, "count")
    assert m["fieldsim.normals"] == (200 * 8 * 8, "count")
    assert m["fieldsim.factor.distinct_ratio"] == (0.5, "ratio")
    assert m["mcverify.prefix.read_ratio"][0] == pytest.approx(1 / (2 * 8 * 8))


def test_seed_zero_gives_the_acceptance_seeds():
    seeds = {op.name: op.flag("--seed") for w in ("mc_verify", "analytic")
             for op in workloads.operations(w, 0) if "--seed" in op.argv}
    assert (seeds["verify_var"], seeds["verify_ks"], seeds["verify_charfn"],
            seeds["verify_stable"], seeds["verify_kernel_props"]) == ("113", "127", "131", "141", "101")
    assert workloads.operations("mc_verify", 1) != workloads.operations("mc_verify", 0)


def test_field_check_rejects_a_nonzero_axis(tmp_path):
    from sheetqv.fieldsim import GridField, write_field
    from sheetqv.kernel import HurstPair

    values = np.zeros((9, 9))
    values[0, 3] = 1.0
    path = tmp_path / "f.bin"
    write_field(path, GridField(n=8, values=values, hurst=HurstPair(0.35, 0.4)))
    with pytest.raises(checks.CheckError):
        checks.check_file(_sample_op(8, str(path)), path)
