"""Command-line front end: outputs, exit codes, config merging, determinism."""

import argparse
import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sheetqv
from sheetqv import cli, fieldsim, mcverify
from sheetqv.cli import EXIT_CONFIG, EXIT_OK, EXIT_TEST_FAILURE, build_parser, main
from sheetqv.fieldsim import read_field
from sheetqv.kernel import HurstPair
from sheetqv.mcverify import MAX_MEAN_N
from sheetqv.sigma import sigma_series


H_FLAGS = ["--alpha", "0.35", "--beta", "0.4"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, records, out.err


# --- sigma ---------------------------------------------------------------------


def test_sigma_brownian(capsys):
    code, recs, _ = run(capsys, "sigma", "--alpha", "0.5", "--beta", "0.5")
    assert code == EXIT_OK
    assert recs[0]["sigma"] == math.sqrt(2.0)
    assert recs[0]["tail_bound"] == 0.0


def test_sigma_bracketing_fields(capsys):
    code, recs, _ = run(capsys, "sigma", "--alpha", "0.35", "--beta", "0.35", "--tol", "1e-8")
    assert code == EXIT_OK
    r = recs[0]
    assert r["sigma"] == math.sqrt(r["sigma_squared"])
    assert r["tail_bound"] <= 1e-8 * r["sigma_squared"]
    assert r["cutoff"] >= 4
    res = sigma_series(HurstPair(0.35, 0.35), 1e-8)
    assert (r["sigma_squared"], r["cutoff"], r["tail_bound"]) == (res.value, res.cutoff, res.tail_bound)


def test_sigma_regime_error_exit_code(capsys):
    code, _, err = run(capsys, "sigma", "--alpha", "0.8", "--beta", "0.5")
    assert code == EXIT_CONFIG
    assert "regime" in err


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "sigma", "--alpha", "0.5")
    assert code == EXIT_CONFIG
    assert "beta" in err


# --- sample / qv ------------------------------------------------------------------


def test_sample_bin_roundtrip(capsys, tmp_path):
    out = tmp_path / "field.bin"
    code, _, _ = run(
        capsys, "sample", "--alpha", "0.35", "--beta", "0.4",
        "--n", "8", "--seed", "42", "--format", "bin", "--out", str(out),
    )
    assert code == EXIT_OK
    f = read_field(out)
    assert f.n == 8
    assert f.hurst.alpha == 0.35 and f.hurst.beta == 0.4
    assert np.all(f.values[0, :] == 0.0)


def test_sample_csv_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "sample", "--alpha", "0.35", "--beta", "0.4",
            "--n", "6", "--seed", "7", "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_text() == b.read_text()
    header = a.read_text().splitlines()[0]
    assert header.startswith("6,")


# values whose %.17g text is easy to get wrong: nan, infinities, signed zero,
# the smallest subnormal and numbers near the largest double
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-17])


def _per_value_csv(field) -> bytes:
    """Reference: the header, then one f-string per value joined row by row."""
    text = f"{field.n},{field.hurst.alpha:.17g},{field.hurst.beta:.17g}\n"
    text += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in field.values)
    return text.encode()


@pytest.mark.parametrize("special", [False, True], ids=["sampled", "special-values"])
def test_sample_csv_bytes_equal_per_value_format(capsys, tmp_path, monkeypatch, special):
    written = []
    real = fieldsim.field_from_increments

    def field_from_increments(inc):
        field = real(inc)
        if special:
            field.values = np.resize(SPECIAL, field.values.shape)
        written.append(field)
        return field

    monkeypatch.setattr(fieldsim, "field_from_increments", field_from_increments)
    out = tmp_path / "field.csv"
    code, _, _ = run(capsys, "sample", *H_FLAGS, "--n", "16", "--seed", "5", "--out", str(out))
    assert code == EXIT_OK
    assert out.read_bytes() == _per_value_csv(written[0])


def test_sample_methods_differ_but_both_run(capsys, tmp_path):
    outs = {}
    for method in ("cholesky", "circulant"):
        p = tmp_path / f"{method}.csv"
        code, _, _ = run(
            capsys, "sample", "--alpha", "0.35", "--beta", "0.4",
            "--n", "6", "--seed", "7", "--method", method, "--out", str(p),
        )
        assert code == EXIT_OK
        outs[method] = p.read_text()
    # same law, different factor: same header, different draws
    assert outs["cholesky"].splitlines()[0] == outs["circulant"].splitlines()[0]


def test_qv_csv_output(capsys, tmp_path):
    out = tmp_path / "qv.csv"
    code, _, _ = run(
        capsys, "qv", "--alpha", "0.35", "--beta", "0.4",
        "--n", "8", "--seed", "3", "--weight", "cosine", "--out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "8"
    assert lines[0].split(",")[-1] == "cosine"
    assert len(lines) == 1 + 9


def test_qv_unknown_weight(capsys, tmp_path):
    code, _, err = run(
        capsys, "qv", "--alpha", "0.35", "--beta", "0.4",
        "--n", "8", "--seed", "3", "--weight", "tanh", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    assert "weight" in err


# --- config file ---------------------------------------------------------------------


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    # M and weight are other commands' keys: accepted, as the table checks them for every command
    cfg.write_text(json.dumps({"alpha": 0.5, "beta": 0.5, "tol": 1e-6, "M": 3, "weight": "square"}))
    code, recs, _ = run(capsys, "sigma", "--config", str(cfg))
    assert code == EXIT_OK and recs[0]["sigma"] == math.sqrt(2.0)
    # flag overrides the file value
    code, recs, _ = run(capsys, "sigma", "--config", str(cfg), "--alpha", "0.35")
    assert code == EXIT_OK and recs[0]["sigma"] != math.sqrt(2.0)


def test_config_file_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "sigma", "--config", str(cfg))
    assert code == EXIT_CONFIG


def test_config_file_missing(capsys):
    code, _, _ = run(capsys, "sigma", "--config", "/no/such/file.json")
    assert code == EXIT_CONFIG


def test_unknown_subcommand_exit(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def _rejected(capsys, *argv):
    """Exit 2 with no report and a one-line reason."""
    code, recs, err = run(capsys, *argv)
    return code == EXIT_CONFIG and recs == [] and len(err.strip().splitlines()) == 1


# --- verify ------------------------------------------------------------------------


def test_verify_kernel_props(capsys):
    code, recs, err = run(
        capsys, "verify", "--which", "kernel-props",
        "--alpha", "0.35", "--beta", "0.4", "--seed", "1", "--cases", "2000",
    )
    assert code == EXIT_OK
    assert len(recs) == 3
    assert all(r["pass"] for r in recs)
    assert err.count("[PASS]") == 3


def test_verify_mean_constant_passes(capsys):
    # zero-mean weight: the decay check is trivially satisfied
    code, recs, _ = run(
        capsys, "verify", "--which", "mean",
        "--alpha", "0.5", "--beta", "0.5", "--seed", "1", "--n-list", "8", "16",
    )
    # f = square at alpha = beta = 1/2 has exactly zero mean at every n
    assert code == EXIT_OK
    assert recs[0]["pass"] is True


def test_verify_ks_small(capsys):
    code, recs, _ = run(
        capsys, "verify", "--which", "ks",
        "--alpha", "0.35", "--beta", "0.35", "--seed", "2", "--n", "16", "--M", "600",
    )
    assert code == EXIT_OK
    assert recs[0]["extra"]["p_value"] > 1e-3


# The records of --n-list 7 20 as the two grids' separate passes printed
# them, the n = 20 record judged with the n = 7 gap; one size gives one
# record, judged by the 4-SE rule alone and with no gap_shrinks.
_VAR_PARAMS = {"alpha": 0.35, "beta": 0.35, "f": "identity", "t": [1, 1], "M": 200, "seed": 1}
_VAR_REF = {"reference": 0.8040265166757653, "provenance": "series + quadrature"}
VAR_7_20_RECORDS = [
    {"test": "second_moment_limit", "params": {**_VAR_PARAMS, "n": 7},
     "estimate": 0.660372543560465, "se": 0.1065855036986599, **_VAR_REF,
     "pass": True, "extra": {"gap": 0.14365397311530026}},
    {"test": "second_moment_limit", "params": {**_VAR_PARAMS, "n": 20},
     "estimate": 0.8798624010296411, "se": 0.1391961775621506, **_VAR_REF,
     "pass": True, "extra": {"gap": 0.07583588435387578, "relative_gap": 0.09432012847961535,
                             "gap_shrinks": True}},
]
VAR_12_RECORDS = [
    {"test": "second_moment_limit", "params": {**_VAR_PARAMS, "n": 12},
     "estimate": 0.6282483602651893, "se": 0.06234134514056678, **_VAR_REF,
     "pass": True, "extra": {"gap": 0.17577815641057604}},
]


@pytest.mark.parametrize("n_list,want", [
    (["7", "20"], VAR_7_20_RECORDS),
    (["12"], VAR_12_RECORDS),
], ids=["7-20", "12"])
def test_verify_var_records_are_pinned(capsys, n_list, want):
    code, recs, _ = run(
        capsys, "verify", "--which", "var", "--alpha", "0.35", "--beta", "0.35",
        "--seed", "1", "--M", "200", "--n-list", *n_list,
    )
    assert code == EXIT_OK
    assert recs == want


# Both records of charfn and stable at n = 8 as the two grids' separate passes
# printed them. Each run fails on a different record: charfn at n = 4 by the
# 4-SE rule, stable at n = 8 because its gap grows.
_MC_PARAMS = {"alpha": 0.35, "beta": 0.35, "M": 200, "seed": 1}
_CHARFN = {"test": "charfn_compare", "reference": 0,
           "provenance": "closed-form conditional charfn over independent sheet MC"}
_CHARFN_PARAMS = {**_MC_PARAMS, "f": "cosine", "points": [[0.5, 1], [1, 0.5]]}
_STABLE = {"test": "stable_convergence", "reference": 0,
           "provenance": "conditional-Gaussian identity over independent sheet MC"}
_STABLE_PARAMS = {**_MC_PARAMS, "f": "identity", "t": [1, 1], "Z": "indicator_center"}
CHARFN_8_RECORDS = [
    {**_CHARFN, "params": {**_CHARFN_PARAMS, "n": 4},
     "estimate": 0.2978897062702846, "se": 0.06205417599173368, "pass": False,
     "extra": {"sup_diff": 0.2978897062702846, "max_excess": 0.05203810233458753}},
    {**_CHARFN, "params": {**_CHARFN_PARAMS, "n": 8},
     "estimate": 0.13308681485853704, "se": 0.06776347986793911, "pass": True,
     "extra": {"sup_diff": 0.13308681485853704, "max_excess": -0.11095116044737026, "gap_shrinks": True}},
]
STABLE_8_RECORDS = [
    {**_STABLE, "params": {**_STABLE_PARAMS, "n": 4},
     "estimate": 0.07130338764754188, "se": 0.052812345995806496, "pass": True,
     "extra": {"sup_diff": 0.07130338764754188, "max_excess": -0.1399459963356841}},
    {**_STABLE, "params": {**_STABLE_PARAMS, "n": 8},
     "estimate": 0.10131780317789973, "se": 0.04825924375469734, "pass": False,
     "extra": {"sup_diff": 0.10131780317789973, "max_excess": -0.09171917184088962, "gap_shrinks": False}},
]


@pytest.mark.parametrize("argv,want", [
    (["--which", "charfn"], CHARFN_8_RECORDS),
    (["--which", "stable", "--z-kind", "indicator_center"], STABLE_8_RECORDS),
], ids=["charfn", "stable"])
def test_verify_two_scale_records_are_pinned(capsys, argv, want):
    code, recs, err = run(
        capsys, "verify", *argv, "--alpha", "0.35", "--beta", "0.35", "--n", "8", "--M", "200", "--seed", "1",
    )
    assert code == EXIT_TEST_FAILURE
    assert recs == want
    assert err.count("[FAIL]") == 1 and err.count("[PASS]") == 1


_KS_ARGV = ("verify", "--which", "ks", "--M", "200", "--n", "8", "--seed", "1")


@pytest.mark.parametrize("alpha,beta,labelled", [
    ("0.2", "0.25", True),  # alpha + beta < 1/2: outside the limit theorem
    ("0.35", "0.35", False),
])
def test_verify_labels_runs_outside_the_theorem(capsys, alpha, beta, labelled):
    code, recs, _ = run(capsys, *_KS_ARGV, "--alpha", alpha, "--beta", beta)
    assert code == EXIT_OK  # the label leaves the exit code alone
    if labelled:
        assert recs[0]["extra"]["admissible"] is False
    else:
        assert "admissible" not in recs[0]["extra"]


def test_verify_failure_exit_code(capsys):
    # mean decay at alpha = beta = 0.35 over small n is a known transient
    # regime where the fitted-bound rule fails; exit code must be 1
    code, recs, _ = run(
        capsys, "verify", "--which", "mean",
        "--alpha", "0.35", "--beta", "0.35", "--seed", "1",
    )
    assert code == EXIT_TEST_FAILURE
    assert recs[0]["pass"] is False


@pytest.mark.parametrize("argv", [
    ["--which", "ks", "--M", "50"],
    ["--which", "charfn", "--n", "1"],
    ["--which", "stable", "--n", "1"],
    ["--which", "var", "--n-list", "0", "4"],
    ["--which", "var", "--M", "1"],
    ["--which", "mean", "--n-list", "8"],
    ["--which", "var", "--weight", "nope"],
    ["--which", "kernel-props", "--cases", "0"],
    ["--which", "ks", "--n", "5000"],
    ["--which", "var", "--n-list", "16", "5000"],
    # above the exact mean's size bound, which its O(n^2) time sets
    ["--which", "mean", "--n-list", "8", "10000000"],
    ["--which", "mean", "--n-list", "8", str(MAX_MEAN_N + 1)],
    ["--which", "var", "--n-list", "8", "12", "16"],  # two grids at most, so no size goes unchecked
    ["--which", "var", "--n-list", "20", "7"],  # the draws are made at the larger size, which is judged last
    ["--which", "var", "--n-list", "12", "12"],  # a grid is not judged against itself
    # ks judges f == 1 and mean f = square only, so another weight is refused, not ignored
    ["--which", "ks", "--weight", "square"],
    ["--which", "mean", "--weight", "cosine"],
    ["--which", "mean", "--weight", "nonsense"],
])
def test_verify_rejects_unusable_input(capsys, argv):
    assert _rejected(capsys, "verify", *argv, "--alpha", "0.35", "--beta", "0.35", "--seed", "1")


@pytest.mark.parametrize("argv,own", [
    (["--which", "ks", "--n", "8", "--M", "200"], "constant_one"),
    (["--which", "mean", "--n-list", "8", "16"], "square"),
], ids=["ks", "mean"])
def test_verify_suite_own_weight_changes_nothing(capsys, argv, own):
    base = ["verify", *argv, "--alpha", "0.35", "--beta", "0.35", "--seed", "1"]
    want = main(base), capsys.readouterr()
    assert (main([*base, "--weight", own]), capsys.readouterr()) == want


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "5000", "--seed", "1"],
    ["sample", "--n", "8", "--seed", "-1"],
    ["qv", "--n", "5000", "--seed", "1"],
    ["sigma", "--tol", "0"],
    # a flag's value gets the config file's check: finite, and a bad choice is one line, not a usage block
    ["sigma", "--tol", "inf"],
    ["sample", "--n", "8", "--seed", "1", "--method", "fft"],
    ["verify", "--which", "nope", "--seed", "1"],
    # text argparse cannot convert, negative values that are no flags, and an unknown command: one line too
    ["sample", "--n", "2.5", "--seed", "1"],
    ["verify", "--which", "var", "--M", "x", "--seed", "1"],
    ["sigma", "--tol", "-inf"],
    ["sigma", "--tol", "-1e-3"],
    ["frobnicate"],
    # charfn and stable also judge n // 2, which the CLI derives from --n
    ["verify", "--which", "charfn", "--n", "1", "--M", "2", "--seed", "1"],
])
def test_commands_reject_unusable_input(capsys, tmp_path, argv):
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if argv[0] in ("sample", "qv") else []
    assert _rejected(capsys, *argv, "--alpha", "0.35", "--beta", "0.4", *extra)
    assert not out.exists()


@pytest.mark.parametrize("which", ["charfn", "stable"])
def test_two_scale_suites_refuse_n_1_by_its_flag(capsys, which):
    # not the coarse size n // 2 = 0, a value the user never gave
    code, recs, err = run(
        capsys, "verify", "--which", which, "--n", "1",
        "--alpha", "0.35", "--beta", "0.35", "--M", "2", "--seed", "1",
    )
    assert code == EXIT_CONFIG and recs == []
    assert "--n" in err and "coarse" not in err


@pytest.mark.parametrize("n_list", [["64", "16"], ["12", "12"]])
def test_var_refuses_an_n_list_that_does_not_increase_by_its_flag(capsys, n_list):
    # not the coarse size second_moment_limit is handed, a parameter the user never named
    code, recs, err = run(
        capsys, "verify", "--which", "var", "--alpha", "0.35", "--beta", "0.35",
        "--n-list", *n_list, "--M", "10", "--seed", "1",
    )
    assert code == EXIT_CONFIG and recs == []
    assert "--n-list" in err and "coarse" not in err


def test_var_refuses_indices_outside_the_regime_before_any_draw(capsys, monkeypatch):
    # sizes, then sigma, then draws: the regime refusal draws no stream
    def no_draws(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(mcverify, "standard_normals", no_draws)
    code, recs, err = run(
        capsys, "verify", "--which", "var", "--alpha", "0.8", "--beta", "0.3",
        "--n-list", "16", "1024", "--M", "200", "--seed", "1",
    )
    assert code == EXIT_CONFIG and recs == [] and len(err.strip().splitlines()) == 1


def test_stable_refuses_an_oversized_grid_before_sigma(capsys):
    # sigma's series cannot meet its tolerance at beta = 0.6 either; the size is checked first
    code, recs, err = run(
        capsys, "verify", "--which", "stable", "--n", "5000", "--alpha", "0.3", "--beta", "0.6",
        "--M", "2", "--seed", "1",
    )
    assert code == EXIT_CONFIG and recs == []
    assert "4096" in err


@pytest.mark.parametrize("argv,reason", [
    (["--alpha", "0.35", "--tol", "-inf"], "must be a finite number"),
    (["--alpha", "0.35", "--tol", "-1e-3"], "tol must be positive"),
    (["--alpha", "-1e-3"], "alpha must lie in (0,1)"),
], ids=["tol-minus-inf", "tol-negative", "alpha-negative"])
def test_negative_values_are_read_as_values(capsys, argv, reason):
    # argparse alone reads -inf and -1e-3 as flags and refuses with "expected one argument"
    code, recs, err = run(capsys, "sigma", "--beta", "0.4", *argv)
    assert code == EXIT_CONFIG and recs == []
    assert reason in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,flag", [
    (["sample", "--n", "8", "--seed", "1"], "--out"),
    (["qv", "--n", "8", "--seed", "1"], "--out"),
    (["verify", "--which", "mean", "--n-list", "8"], "--config"),
], ids=["sample", "qv", "verify"])
@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_commands_reject_unusable_paths(capsys, tmp_path, argv, flag, where):
    # a directory, or a path whose parent is a file: an OSError, not a crash
    (tmp_path / "file").write_text("")
    path = tmp_path if where == "directory" else tmp_path / "file" / "out.csv"
    assert _rejected(capsys, *argv, "--alpha", "0.35", "--beta", "0.4", flag, str(path))


SMALL_MC = ["--n", "4", "--M", "2", "--seed", "1"]  # cheap if a bad value ever got through
CHARFN = ["verify", "--which", "charfn", *SMALL_MC]
HURST = '"alpha": 0.35, "beta": 0.35'


@pytest.mark.parametrize("command,content", [
    (["sigma", *H_FLAGS], '{"alpha": 0.35,'),
    (["sigma", *H_FLAGS], '{"tol": "small"}'),
    (["sample", *H_FLAGS], '{"n": 2.5, "seed": 1}'),
    (["sample", *H_FLAGS], '{"n": true, "seed": 1}'),
    (["sample", *H_FLAGS], '{"n": 8, "seed": "1"}'),
    (["verify", "--which", "mean", *H_FLAGS], '{"n_list": 8, "seed": 1}'),
    (["verify", "--which", "mean", *H_FLAGS], '{"n_list": [8, 16.5], "seed": 1}'),
    (["verify", "--which", "var", *H_FLAGS, "--M", "2"], '{"n_list": [], "seed": 1}'),
    (["verify", "--which", "var", *H_FLAGS, "--M", "2"], '{"n_list": [8, 12, 16], "seed": 1}'),
    (["sigma"], '{"alpha": [0.3], "beta": 0.4}'),
    (["sigma"], '{"alpha": 0.35, "beta": "0.4"}'),
    (["sigma"], '{"alpha": 1%s, "beta": 0.4}' % ("0" * 400)),
    (CHARFN, '{%s, "points": "abc"}' % HURST),
    (CHARFN, '{%s, "points": [[0.5]]}' % HURST),
    (CHARFN, '{%s, "points": [[1.5, 0.5]]}' % HURST),
    (CHARFN, '{%s, "lambda_grid": []}' % HURST),
    (CHARFN, '{%s, "lambda_grid": [1.0, 10.0]}' % HURST),
    (["verify", "--which", "stable", *SMALL_MC], '{%s, "lambda_grid": "abc"}' % HURST),
    (["verify", "--which", "stable", *SMALL_MC], '{%s, "lambda_grid": [NaN]}' % HURST),
    (["sample", *H_FLAGS], '{"n": 8, "seed": 1, "method": "fft"}'),
    (["verify", "--which", "stable", *SMALL_MC], '{%s, "z_kind": "nope"}' % HURST),
    (["verify", "--which", "mean", *H_FLAGS], '{"n_list": [8, %d], "seed": 1}' % (MAX_MEAN_N + 1)),
    (["verify", "--which", "var", *H_FLAGS, "--M", "2"], '{"n_list": [20, 7], "seed": 1}'),
    (["verify", "--which", "var", *H_FLAGS, "--M", "2"], '{"n_list": [12, 12], "seed": 1}'),
    (["verify", "--which", "ks", "--n", "4", "--M", "100", "--seed", "1"], '{%s, "weight": "square"}' % HURST),
    (["verify", "--which", "mean", *H_FLAGS, "--seed", "1"], '{"n_list": [8, 16], "weight": "cosine"}'),
    (["verify", *H_FLAGS, "--seed", "1"], '{"which": ["ks"]}'),
    (["sample", *H_FLAGS, "--n", "4", "--seed", "1"], '{"format": ["csv"]}'),
    (["verify", "--which", "var", *H_FLAGS, "--M", "2", "--seed", "1"], '{"n_list": [4], "weight": {}}'),
    (["verify", "--which", "stable", *SMALL_MC], '{%s, "z_kind": 1}' % HURST),
    # a sign that holds wherever the key is used is checked for a command that ignores the key too
    (["sigma", *H_FLAGS], '{"n": 0}'),
    (["sigma", *H_FLAGS], '{"seed": -1}'),
    (["verify", "--which", "kernel-props", *H_FLAGS, "--seed", "1", "--cases", "1"], '{"M": 0}'),
    # a misspelt key would leave its option at the default
    (["sigma"], '{"alpha": 0.35, "beta": 0.35, "weigth": "square"}'),
], ids=[
    "malformed-json", "tol-string", "n-float", "n-bool", "seed-string", "n_list-scalar",
    "n_list-float", "n_list-empty", "n_list-three-sizes", "alpha-list", "beta-string", "alpha-huge-int",
    "points-string", "points-short", "points-outside", "lambda_grid-empty",
    "lambda_grid-charfn-bound", "lambda_grid-string", "lambda_grid-nan", "method-unknown",
    "z_kind-unknown", "n_list-above-mean-bound", "n_list-decreasing", "n_list-equal-sizes",
    "weight-ks-not-constant_one", "weight-mean-not-square",
    "which-list", "format-list", "weight-object", "z_kind-number",
    "n-zero-unused", "seed-negative-unused", "M-zero-unused", "key-misspelt",
])
def test_config_rejects_unusable_values(capsys, tmp_path, command, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    out = tmp_path / "out.csv"
    extra = ["--out", str(out)] if command[0] == "sample" else []
    assert _rejected(capsys, *command, "--config", str(cfg), *extra)
    assert not out.exists()


def test_config_out_must_be_a_path(tmp_path):
    # in a subprocess: an integer out would be taken as a file descriptor and could close this one's stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"out": 1}')
    src = str(Path(sheetqv.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "sheetqv.cli", "sample", *H_FLAGS, "--n", "4", "--seed", "1", "--config", str(cfg)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert len(done.stderr.strip().splitlines()) == 1


# each command's flags as the hand-written subparsers declared them
FLAGS = {
    "sigma": {"--alpha", "--beta", "--tol"},
    "sample": {"--alpha", "--beta", "--seed", "--n", "--method", "--format", "--out"},
    "qv": {"--alpha", "--beta", "--seed", "--n", "--method", "--weight", "--out"},
    "verify": {"--alpha", "--beta", "--seed", "--which", "--n", "--n-list", "--M", "--weight", "--z-kind", "--cases"},
}
CHOICES = {
    "--method": "{cholesky,circulant}",
    "--format": "{csv,bin}",
    "--which": "{mean,var,ks,charfn,stable,kernel-props}",
    "--z-kind": "{cos_corner,indicator_center}",
    "--weight": "{constant_one,identity,square,cosine}",
}


def test_each_command_keeps_its_flags_and_lists_their_choices():
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAGS)
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == FLAGS[command] | {"-h", "--help", "--config"}
        text = parser.format_help()
        for flag in FLAGS[command] & set(CHOICES):
            assert f"{flag} {CHOICES[flag]}" in text, (command, flag)


def test_cli_keeps_no_private_copy_of_a_library_limit():
    # a limit read from a library module's private name, or enforced with an exception class
    # of the CLI's own, would be a second copy of a rule the library function owns
    tree = ast.parse(Path(cli.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {a.asname or a.name for node in imports if node.module is None for a in node.names}
    private = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    private += [f"{node.module}.{a.name}" for node in imports for a in node.names if a.name.startswith("_")]
    assert modules >= {"fieldsim", "mcverify"} and private == []
    own = [name for name, v in vars(cli).items()
           if isinstance(v, type) and issubclass(v, BaseException) and v.__module__ == cli.__name__]
    assert own == []


def test_sigma_cutoff_cap_exits_config_error(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("sheetqv.sigma"), "_CUTOFF_CAP", 400)
    h = ["--alpha", "0.7", "--beta", "0.7"]
    assert _rejected(capsys, "sigma", *h)
    assert _rejected(capsys, "verify", "--which", "var", *h, "--n-list", "2", "4", "--M", "2", "--seed", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--alpha", "0.3", "--beta", "0.3", "--tol", "1e-300"),
        ("verify", "--which", "var", "--alpha", "0.6", "--beta", "0.3",
         "--n-list", "8", "16", "--M", "50", "--seed", "1"),
    ],
    ids=["sigma-tol-1e-300", "var-alpha-0.6"],
)
def test_unreachable_sigma_tolerance_exits_after_cutoff_4(capsys, monkeypatch, argv):
    sigma_module = importlib.import_module("sheetqv.sigma")
    axis_sum = sigma_module._axis_sum_sq
    cutoffs = []

    def counting(gamma, cutoff, carry=None):
        cutoffs.append(cutoff)
        return axis_sum(gamma, cutoff, carry)

    monkeypatch.setattr(sigma_module, "_axis_sum_sq", counting)
    assert _rejected(capsys, *argv)
    assert cutoffs and max(cutoffs) == 4


@pytest.mark.parametrize("argv", [
    # each size asks numpy for hundreds of TiB or more, which is refused at once
    ["--which", "ks", "--n", "8", "--M", "1000000000000000"],
    ["--which", "kernel-props", "--cases", "1000000000000000"],
    ["--which", "var", "--n-list", "8", "16", "--M", "1000000000000000"],
])
def test_verify_refuses_sizes_no_memory_holds(capsys, argv):
    code, recs, err = run(capsys, "verify", *argv, "--alpha", "0.35", "--beta", "0.35", "--seed", "1")
    assert (code, recs) == (EXIT_CONFIG, [])
    assert err.startswith("error: not enough memory") and len(err.strip().splitlines()) == 1


def test_verify_unknown_suite(capsys):
    code, _, _ = run(
        capsys, "verify", "--which", "ks", "--alpha", "2.0", "--beta", "0.4", "--seed", "1"
    )
    assert code == EXIT_CONFIG


# --- float serialization ---------------------------------------------------------------


def test_json_floats_round_trip(capsys):
    _, recs, _ = run(capsys, "sigma", "--alpha", "0.35", "--beta", "0.4")
    from sheetqv.kernel import HurstPair
    from sheetqv.sigma import sigma

    assert recs[0]["sigma"] == sigma(HurstPair(0.35, 0.4), 1e-10)
