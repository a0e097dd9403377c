"""Statistic partial sums and weight functions."""

import csv
import math

import numpy as np
import pytest

from sheetqv.fieldsim import PURPOSE_SHEET, field_from_increments, replication_rng, sample_increments
from sheetqv.kernel import HurstPair
from sheetqv.qv import eval_qv, qv_process, weight, write_qv_csv

H = HurstPair(0.35, 0.4)


def make_sample(n=8, seed=1, rep=0):
    inc = sample_increments(H, n, replication_rng(seed, rep, PURPOSE_SHEET))
    return field_from_increments(inc), inc


# --- weights -----------------------------------------------------------------


def test_weight_values():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(weight("constant_one").func(x), np.ones(3))
    assert np.array_equal(weight("identity").func(x), x)
    assert np.array_equal(weight("square").func(x), x**2)
    assert np.allclose(weight("cosine").func(x), np.cos(x))


def test_weight_unknown():
    with pytest.raises(ValueError):
        weight("exp")


def test_moment_m_closed_forms_match_quadrature():
    # check every closed form against quadrature on the raw function
    from sheetqv.quadrature import gauss_hermite_mean

    for kind in ("constant_one", "identity", "square", "cosine"):
        f = weight(kind)
        for v in (0.1, 0.7, 2.0):
            quad = gauss_hermite_mean(lambda x: np.asarray(f.func(x)) ** 2, v)
            assert float(f.m_closed(v)) == pytest.approx(quad, rel=1e-10, abs=1e-12)


# f'' of each weight, written out here so that the check does not rest on qv
SECOND_DERIVATIVES = {
    "constant_one": lambda x: np.zeros_like(x),
    "identity": lambda x: np.zeros_like(x),
    "square": lambda x: np.full_like(x, 2.0),
    "cosine": lambda x: -np.cos(x),
}


def test_d2_mean_closed_forms_match_quadrature():
    from sheetqv.quadrature import gauss_hermite_mean

    for kind, d2 in SECOND_DERIVATIVES.items():
        f = weight(kind)
        for v in (0.1, 0.7, 2.0):
            quad = gauss_hermite_mean(d2, v)
            assert float(f.d2_mean(v)) == pytest.approx(quad, rel=1e-10, abs=1e-12)


# --- qv_process -----------------------------------------------------------------


def test_qv_process_brute_force_small():
    n = 4
    field, inc = make_sample(n=n, seed=3)
    f = weight("cosine")
    p = qv_process(inc, f)
    scale = float(n) ** (2 * (H.alpha + H.beta))
    for bi in range(1, n + 1):
        for bj in range(1, n + 1):
            want = 0.0
            for i in range(1, bi + 1):
                for j in range(1, bj + 1):
                    w = math.cos(field.values[i - 1, j - 1])
                    want += w * (scale * inc.values[i - 1, j - 1] ** 2 - 1.0)
            assert p.partial_sums[bi, bj] == pytest.approx(want / n, rel=1e-12, abs=1e-13)


def test_qv_process_zero_margins():
    _, inc = make_sample()
    p = qv_process(inc, weight("constant_one"))
    assert np.all(p.partial_sums[0, :] == 0.0)
    assert np.all(p.partial_sums[:, 0] == 0.0)


def test_eval_qv_floor_indexing():
    _, inc = make_sample(n=8)
    p = qv_process(inc, weight("identity"))
    assert eval_qv(p, 0.0, 0.5) == 0.0
    assert eval_qv(p, 1.0, 1.0) == p.partial_sums[8, 8]
    # 0.37*8 = 2.96 -> floor 2; 0.5*8 -> 4
    assert eval_qv(p, 0.37, 0.5) == p.partial_sums[2, 4]
    # values beyond 1 clamp to the last index
    assert eval_qv(p, 1.2, 1.0) == p.partial_sums[8, 8]


def test_brownian_constant_weight_mean_variance():
    # at alpha = beta = 1/2 with f == 1 the statistic is an iid chi-square sum:
    # mean 0, variance exactly 2 at t = (1,1)
    hb = HurstPair(0.5, 0.5)
    n, reps = 16, 3000
    vals = np.empty(reps)
    f = weight("constant_one")
    for r in range(reps):
        inc = sample_increments(hb, n, replication_rng(33, r, PURPOSE_SHEET))
        p = qv_process(inc, f)
        vals[r] = p.partial_sums[n, n]
    assert abs(vals.mean()) <= 4.0 * vals.std(ddof=1) / math.sqrt(reps)
    # SE of a sample variance of (roughly) chi-square data
    var = vals.var(ddof=1)
    se_var = vals.var(ddof=1) * math.sqrt(2.0 / (reps - 1)) * 2.0
    assert abs(var - 2.0) <= 4.0 * se_var


# --- CSV dump -----------------------------------------------------------------


def test_write_qv_csv_roundtrip(tmp_path):
    _, inc = make_sample(n=5, seed=10)
    p = qv_process(inc, weight("square"))
    path = tmp_path / "qv.csv"
    write_qv_csv(path, p)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["5", repr(H.alpha), repr(H.beta), "square"]
    vals = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(vals, p.partial_sums)  # 17 digits round-trip exactly


# values whose %.17g text is easy to get wrong: nan, infinities, signed zero,
# the smallest subnormal and numbers near the largest double
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5e-17])


def _csv_writer_qv_csv(path, p):
    """Reference: one csv.writer row per partial-sum row, one f-string per value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([p.n, repr(p.hurst.alpha), repr(p.hurst.beta), p.weight_kind])
        for row in p.partial_sums:
            w.writerow([f"{v:.17g}" for v in row])


@pytest.mark.parametrize("n", [1, 2, 7, 64])
@pytest.mark.parametrize("special", [False, True], ids=["sampled", "special-values"])
def test_write_qv_csv_bytes_equal_csv_writer_rows(tmp_path, n, special):
    p = qv_process(make_sample(n=n, seed=4)[1], weight("cosine"))
    if special:
        p.partial_sums = np.resize(SPECIAL, p.partial_sums.shape)
    write_qv_csv(tmp_path / "got.csv", p)
    _csv_writer_qv_csv(tmp_path / "want.csv", p)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
