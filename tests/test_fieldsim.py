"""Exact sampler: factorizations, covariance agreement, determinism, I/O."""

import math

import numpy as np
import pytest

from sheetqv.fieldsim import (
    PURPOSE_DRIVER,
    PURPOSE_SHEET,
    factor_1d,
    field_from_increments,
    increment_cov_1d,
    read_field,
    replication_rng,
    sample_increments,
    sample_increments_batch,
    sample_white_increments,
    write_field,
)
from sheetqv.kernel import HurstPair, cov_point, incr_cov

H = HurstPair(0.35, 0.4)


def test_increment_cov_1d_matches_2d_kernel():
    # tensor product of the 1D matrices must reproduce incr_cov entrywise
    n = 6
    ma = increment_cov_1d(H.alpha, n)
    mb = increment_cov_1d(H.beta, n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    assert ma[i - 1, k - 1] * mb[j - 1, l - 1] == pytest.approx(
                        incr_cov(H, n, i, j, k, l), rel=1e-12, abs=1e-300
                    )


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("gamma", [0.2, 0.35, 0.5, 0.7])
def test_factor_reconstructs_covariance(method, gamma):
    n = 24
    fac = factor_1d(gamma, n, method)
    got = fac @ fac.T
    want = increment_cov_1d(gamma, n)
    assert np.abs(got - want).max() < 1e-14


def test_factor_shapes():
    assert factor_1d(0.3, 10, "cholesky").shape == (10, 10)
    assert factor_1d(0.3, 10, "circulant").shape == (10, 20)


def test_factor_validation():
    with pytest.raises(ValueError):
        factor_1d(1.0, 8)
    with pytest.raises(ValueError):
        factor_1d(0.3, 0)
    with pytest.raises(ValueError):
        factor_1d(0.3, 8, "fft-magic")
    with pytest.raises(ValueError):
        factor_1d(0.3, 5000)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_empirical_covariance_of_increments(method):
    # n=4: all 16x16 covariances within 4 SE of the exact kernel values
    n, reps = 4, 4000
    h = HurstPair(0.35, 0.35)
    stack = sample_increments_batch(h, n, seed=11, reps=reps, method=method)
    flat = stack.reshape(reps, -1)
    emp = flat.T @ flat / reps
    bad = 0
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(n * n):
            k, l = divmod(b, n)
            exact = incr_cov(h, n, i + 1, j + 1, k + 1, l + 1)
            prod = flat[:, a] * flat[:, b]
            se = prod.std(ddof=1) / math.sqrt(reps)
            if abs(emp[a, b] - exact) > 4.0 * se:
                bad += 1
    assert bad <= 0.02 * (n * n) ** 2  # ~1% expected at 4 SE


def test_node_covariance_matches_cov_point():
    # node values from prefix sums must match the sheet kernel
    n, reps = 4, 6000
    stack = sample_increments_batch(H, n, seed=13, reps=reps)
    nodes = np.zeros((reps, n + 1, n + 1))
    nodes[:, 1:, 1:] = stack.cumsum(axis=1).cumsum(axis=2)
    pts = [(1, 1), (2, 3), (4, 4), (3, 1)]
    for ia, ja in pts:
        for ib, jb in pts:
            prod = nodes[:, ia, ja] * nodes[:, ib, jb]
            exact = cov_point(H, (ia / n, ja / n), (ib / n, jb / n))
            se = prod.std(ddof=1) / math.sqrt(reps)
            assert abs(prod.mean() - exact) <= 4.0 * se


def test_brownian_increments_are_white():
    n, reps = 4, 4000
    hb = HurstPair(0.5, 0.5)
    stack = sample_increments_batch(hb, n, seed=17, reps=reps)
    flat = stack.reshape(reps, -1)
    emp = flat.T @ flat / reps
    off = emp - np.diag(np.diag(emp))
    assert np.abs(np.diag(emp) - 1.0 / (n * n)).max() < 5.0 / (n * n * math.sqrt(reps))
    assert np.abs(off).max() < 5.0 / (n * n * math.sqrt(reps))


def test_methods_agree_in_distribution():
    # same exact covariance, so long-run second moments coincide
    n = 8
    fa_c = factor_1d(H.alpha, n, "cholesky")
    fa_e = factor_1d(H.alpha, n, "circulant")
    assert np.abs(fa_c @ fa_c.T - fa_e @ fa_e.T).max() < 1e-14


def test_determinism_same_key():
    s1 = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET))
    s2 = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET))
    assert np.array_equal(s1.values, s2.values)
    assert s1.stream_key == (5, 3, PURPOSE_SHEET)


def test_streams_differ_across_key_components():
    base = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_SHEET)).values
    other_rep = sample_increments(H, 8, replication_rng(5, 4, PURPOSE_SHEET)).values
    other_purpose = sample_increments(H, 8, replication_rng(5, 3, PURPOSE_DRIVER)).values
    other_seed = sample_increments(H, 8, replication_rng(6, 3, PURPOSE_SHEET)).values
    assert not np.array_equal(base, other_rep)
    assert not np.array_equal(base, other_purpose)
    assert not np.array_equal(base, other_seed)


def test_batch_equals_per_replication_sampling():
    stack = sample_increments_batch(H, 6, seed=21, reps=5)
    for r in range(5):
        single = sample_increments(H, 6, replication_rng(21, r, PURPOSE_SHEET))
        assert np.array_equal(stack[r], single.values)


def test_field_from_increments_axes_and_recovery():
    inc = sample_increments(H, 12, replication_rng(9, 0, PURPOSE_SHEET))
    field = field_from_increments(inc)
    assert np.all(field.values[0, :] == 0.0)
    assert np.all(field.values[:, 0] == 0.0)
    # re-differencing recovers the increments to rounding error (prefix
    # summation and differencing are not bit-exact inverses in floats)
    rediff = np.diff(np.diff(field.values, axis=0), axis=1)
    assert np.abs(rediff - inc.values).max() < 1e-13
    assert field.stream_key == inc.stream_key


def test_white_increment_scale():
    inc = sample_white_increments(64, replication_rng(3, 0, PURPOSE_DRIVER))
    var = inc.values.var()
    assert var == pytest.approx(1.0 / 64**2, rel=0.1)


def test_field_roundtrip_binary(tmp_path):
    inc = sample_increments(H, 10, replication_rng(2, 0, PURPOSE_SHEET))
    field = field_from_increments(inc)
    path = tmp_path / "field.bin"
    write_field(path, field)
    back = read_field(path)
    assert back.n == 10
    assert back.hurst == H
    assert np.array_equal(back.values, field.values)


def test_read_field_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(ValueError):
        read_field(path)
