"""Verification harness: exact moments, MC machinery, and pass rules."""

import math

import numpy as np
import pytest
import scipy.stats

from sheetqv.fieldsim import (
    PURPOSE_SHEET,
    field_from_increments,
    replication_rng,
    sample_increments,
)
from sheetqv.kernel import HurstPair
from sheetqv.mcverify import (
    DEFAULT_LAMBDAS,
    _corner_inner_1d,
    _corner_sums,
    bootstrap_se,
    build_Q,
    charfn_compare,
    exact_mean,
    exact_qv_variance,
    incr_cov_oracle,
    kernel_property_suite,
    kolmogorov_sf,
    ks_normality,
    lambda_product_grid,
    mean_decay,
    qv_point_samples,
    second_moment_limit,
    stable_convergence_check,
)
from sheetqv.qv import WeightFunction, d2_mean_at, eval_qv, qv_process, weight
from sheetqv.sigma import sigma

H = HurstPair(0.35, 0.35)

# Frozen references computed by plain-Python loops over the closed-form
# kernel sums, independent of the vectorized implementations under test.
MEAN_SQUARE_035_035 = {
    8: 0.003445190394091053,
    16: 0.004975025310354391,
    32: 0.00602035332797954,
    64: 0.006481147147615433,
    128: 0.006426166254926436,
}
MEAN_SQUARE_035_040_N16 = 0.0021591686318040565
VAR_F1_035_040_N8 = 2.201365562980726
VAR_F1_035_035_N6_HALF = 1.1138764400590768


# --- exact finite-n moments -----------------------------------------------------


def test_exact_qv_variance_brownian_is_two():
    hb = HurstPair(0.5, 0.5)
    for n in (1, 4, 64):
        assert exact_qv_variance(hb, n) == 2.0


def test_exact_qv_variance_frozen_values():
    assert exact_qv_variance(HurstPair(0.35, 0.4), 8) == pytest.approx(
        VAR_F1_035_040_N8, rel=1e-13
    )
    assert exact_qv_variance(H, 6, t=(0.5, 1.0)) == pytest.approx(
        VAR_F1_035_035_N6_HALF, rel=1e-13
    )


def test_exact_qv_variance_degenerate_time():
    assert exact_qv_variance(H, 8, t=(0.05, 1.0)) == 0.0


def test_exact_mean_zero_for_linear_weights():
    for kind in ("constant_one", "identity"):
        assert exact_mean(H, weight(kind), 32, (1.0, 1.0)) == 0.0


def test_exact_mean_frozen_values():
    f = weight("square")
    for n, ref in MEAN_SQUARE_035_035.items():
        assert exact_mean(H, f, n, (1.0, 1.0)) == pytest.approx(ref, rel=1e-12)
    assert exact_mean(HurstPair(0.35, 0.4), f, 16, (1.0, 1.0)) == pytest.approx(
        MEAN_SQUARE_035_040_N16, rel=1e-12
    )


def _corner_sum_sq(gamma, m):
    """S_gamma(m) = sum_{k<=m} (1 - g_k)^2 with g_k = k^{2gamma} - (k-1)^{2gamma}."""
    return math.fsum((1.0 - (k ** (2 * gamma) - (k - 1) ** (2 * gamma))) ** 2
                     for k in range(1, m + 1))


@pytest.mark.parametrize("t", [(1.0, 1.0), (0.5, 1.0)])
@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("a,b", [(0.35, 0.4), (0.3, 0.45)])
def test_exact_mean_square_closed_form_and_bracket(a, b, n, t):
    # n^{2(a+b)-1} E[X^n_t] = S_a(n1) S_b(n2) / (8 n^2) for f = square, and
    # n1(1 - 2 n1^{2a-1}) <= S_a(n1) <= n1 (likewise for b) brackets it.
    n1, n2 = math.floor(n * t[0]), math.floor(n * t[1])
    normed = n ** (2.0 * (a + b) - 1.0) * exact_mean(HurstPair(a, b), weight("square"), n, t)
    closed = _corner_sum_sq(a, n1) * _corner_sum_sq(b, n2) / (8.0 * n * n)
    assert normed == pytest.approx(closed, rel=1e-12)
    share = n1 * n2 / (n * n)
    lower = (share / 8.0 * max(0.0, 1.0 - 2.0 * n1 ** (2.0 * a - 1.0))
             * max(0.0, 1.0 - 2.0 * n2 ** (2.0 * b - 1.0)))
    assert lower <= normed <= share / 8.0


def _exact_mean_per_cell(h, f, n, t):
    """exact_mean with E[f''] evaluated cell by cell, as it once was."""
    n1, n2 = math.floor(n * t[0]), math.floor(n * t[1])
    da = _corner_inner_1d(h.alpha, n1, n)
    db = _corner_inner_1d(h.beta, n2, n)
    va = ((np.arange(1, n1 + 1) - 1.0) / n) ** (2.0 * h.alpha)
    vb = ((np.arange(1, n2 + 1) - 1.0) / n) ** (2.0 * h.beta)
    e2 = np.vectorize(lambda vv: d2_mean_at(f, vv))(np.outer(va, vb))
    scale = float(n) ** (2.0 * (h.alpha + h.beta) - 1.0)
    return float(scale * np.sum(e2 * np.outer(da * da, db * db)))


@pytest.mark.parametrize("t", [(1.0, 1.0), (0.5, 1.0)])
@pytest.mark.parametrize("kind", ["square", "cosine", "identity", "constant_one", "quadrature"])
def test_exact_mean_equals_per_cell_oracle(kind, t):
    if kind == "quadrature":  # no closed form: E[f''] by Gauss-Hermite, cell by cell
        f, sizes = WeightFunction("cos_by_quadrature", func=np.cos, d2=lambda x: -np.cos(x)), (8, 16)
    else:
        f, sizes = weight(kind), (8, 64, 257)
    h = HurstPair(0.35, 0.4)
    for n in sizes:
        assert exact_mean(h, f, n, t) == _exact_mean_per_cell(h, f, n, t)


def test_exact_mean_degenerate_time():
    assert exact_mean(H, weight("square"), 8, (0.0, 1.0)) == 0.0


def test_exact_mean_monte_carlo_agreement():
    # MC check of the closed-form mean at n=8, f = square
    f = weight("square")
    xs, _ = qv_point_samples(H, f, 8, 60_000, seed=41, points=[(1.0, 1.0)])
    est = xs[:, 0].mean()
    se = xs[:, 0].std(ddof=1) / math.sqrt(xs.shape[0])
    assert abs(est - MEAN_SQUARE_035_035[8]) <= 4.0 * se


def test_exact_qv_variance_monte_carlo_agreement():
    f = weight("constant_one")
    xs, _ = qv_point_samples(HurstPair(0.35, 0.4), f, 8, 20_000, seed=43, points=[(1.0, 1.0)])
    sq = xs[:, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - VAR_F1_035_040_N8) <= 4.0 * se


def test_mean_decay_constant_weight_trivially_passes():
    r = mean_decay(H, weight("constant_one"), (1.0, 1.0), [8, 16, 32])
    assert r.passed and r.estimate == 0.0


def test_mean_decay_reports_slope_and_bound():
    r = mean_decay(H, weight("square"), (1.0, 1.0), [8, 16, 32])
    assert r.reference == pytest.approx(1.0 - 2.0 * 0.7)
    assert r.extra["means"] == pytest.approx(
        [MEAN_SQUARE_035_035[n] for n in (8, 16, 32)], rel=1e-12
    )
    assert isinstance(r.extra["bound_ok"], bool)


def test_mean_decay_validates_grid_list():
    with pytest.raises(ValueError):
        mean_decay(H, weight("square"), (1.0, 1.0), [8])
    with pytest.raises(ValueError):
        mean_decay(H, weight("square"), (1.0, 1.0), [16, 8])


# --- MC sampling machinery ------------------------------------------------------


def test_qv_point_samples_match_qv_process():
    f = weight("cosine")
    n, seed = 8, 47
    xs, _ = qv_point_samples(H, f, n, 3, seed, points=[(1.0, 1.0), (0.5, 0.75)])
    for r in range(3):
        inc = sample_increments(H, n, replication_rng(seed, r, PURPOSE_SHEET))
        p = qv_process(field_from_increments(inc), inc, f)
        assert xs[r, 0] == pytest.approx(eval_qv(p, 1.0, 1.0), rel=1e-12)
        assert xs[r, 1] == pytest.approx(eval_qv(p, 0.5, 0.75), rel=1e-12)


def test_point_samples_equal_qv_process_across_chunks():
    # both statistic paths give the same bits, also past the 256-replication
    # chunk boundary and at points on an axis
    f = weight("cosine")
    n, seed, offset = 8, 61, 7
    points = [(0.0, 0.4), (1.0, 1.0), (0.5, 0.75), (0.3, 1.0)]
    xs, _ = qv_point_samples(H, f, n, 300, seed, points, rep_offset=offset)
    for r in (0, 255, 256, 299):
        inc = sample_increments(H, n, replication_rng(seed, offset + r, PURPOSE_SHEET))
        p = qv_process(field_from_increments(inc), inc, f)
        assert np.array_equal(xs[r], [eval_qv(p, s, t) for s, t in points])

    a = np.random.default_rng(3).standard_normal((3, 7, 9))
    full = a.cumsum(axis=-2).cumsum(axis=-1)
    idx = [(i, j) for i in range(8) for j in range(10)]
    want = np.stack([full[:, i - 1, j - 1] if i and j else np.zeros(3) for i, j in idx], axis=-1)
    assert np.array_equal(_corner_sums(a, idx), want)


def test_qv_point_samples_rep_offset_disjoint():
    f = weight("constant_one")
    a, _ = qv_point_samples(H, f, 4, 4, 5, points=[(1.0, 1.0)])
    b, _ = qv_point_samples(H, f, 4, 4, 5, points=[(1.0, 1.0)], rep_offset=4)
    c, _ = qv_point_samples(H, f, 4, 8, 5, points=[(1.0, 1.0)])
    assert np.array_equal(np.concatenate([a, b]), c)  # offset = continuation
    assert not np.array_equal(a, b)


def test_qv_point_samples_sheet_functional():
    f = weight("constant_one")
    n = 6
    _, z = qv_point_samples(
        H, f, n, 3, 51, points=[(1.0, 1.0)],
        sheet_functional=lambda nodes: nodes[:, -1, -1],
    )
    for r in range(3):
        inc = sample_increments(H, n, replication_rng(51, r, PURPOSE_SHEET))
        field = field_from_increments(inc)
        assert z[r] == pytest.approx(field.values[n, n], rel=1e-12)


def test_bootstrap_se_deterministic_and_calibrated():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((4000, 2))
    se1 = bootstrap_se(vals, seed=9)
    se2 = bootstrap_se(vals, seed=9)
    assert np.array_equal(se1, se2)
    analytic = vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])
    assert np.all(se1 > 0.7 * analytic) and np.all(se1 < 1.4 * analytic)


def test_bootstrap_se_complex_input():
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((2000, 1)) + 1j * rng.standard_normal((2000, 1))
    se = bootstrap_se(vals, seed=11)
    analytic = math.sqrt(2.0) / math.sqrt(2000)
    assert se[0] == pytest.approx(analytic, rel=0.4)


def test_lambda_product_grid():
    g = lambda_product_grid(2)
    assert g.shape == (len(DEFAULT_LAMBDAS) ** 2, 2)
    assert sorted(set(g[:, 0])) == sorted(DEFAULT_LAMBDAS)
    g1 = lambda_product_grid(1, per_coord=(-1.0, 1.0))
    assert np.array_equal(g1, np.array([[-1.0], [1.0]]))


# --- limit checks ------------------------------------------------------------------


def test_second_moment_limit_reference_closed_form():
    f = weight("identity")
    r = second_moment_limit(H, f, (1.0, 1.0), 8, 200, seed=53)
    sig2 = sigma(H, 1e-10) ** 2
    assert r.reference == pytest.approx(sig2 / (1.7 * 1.7), rel=1e-7)


def test_second_moment_limit_brownian_exact():
    # at alpha = beta = 1/2 with f == 1 the second moment is exactly 2 at all n
    hb = HurstPair(0.5, 0.5)
    r = second_moment_limit(hb, weight("constant_one"), (1.0, 1.0), 16, 2000, seed=55)
    assert r.reference == pytest.approx(2.0, rel=1e-9)
    assert abs(r.estimate - 2.0) <= 4.0 * r.se
    assert r.passed


def test_build_q_constant_weight_closed_form():
    # f == 1: Q[a,b] = sigma^2 * (s_a ^ s_b) (t_a ^ t_b) up to grid flooring
    field = field_from_increments(
        sample_increments(H, 8, replication_rng(57, 0, PURPOSE_SHEET))
    )
    points = [(0.5, 1.0), (1.0, 0.5)]
    q = build_Q(field, weight("constant_one"), 1.5, points)
    want = 1.5**2 * np.array([[0.5, 0.25], [0.25, 0.5]])
    assert np.allclose(q, want, rtol=1e-12)
    assert np.array_equal(q, q.T)


def test_charfn_compare_small_run_passes():
    f = weight("cosine")
    lam = lambda_product_grid(2, per_coord=(-1.0, 0.5, 2.0))
    r = charfn_compare(H, f, [(0.5, 1.0), (1.0, 0.5)], lam, 16, 800, seed=59, slack=0.05)
    assert r.passed
    assert r.extra["sup_diff"] < 0.12


def test_charfn_compare_rejects_large_lambda():
    with pytest.raises(ValueError):
        charfn_compare(H, weight("cosine"), [(1.0, 1.0)], np.array([[6.0]]), 8, 100, seed=1)


def test_stable_convergence_small_run_passes():
    f = weight("identity")
    lam = np.array([-1.0, 0.0, 1.0, 2.0])
    r = stable_convergence_check(
        H, f, (1.0, 1.0), "cos_corner", lam, 16, 800, seed=61, slack=0.05
    )
    assert r.passed
    assert r.extra["sup_diff"] < 0.12


def test_stable_convergence_indicator_functional():
    r = stable_convergence_check(
        H, weight("identity"), (1.0, 1.0), "indicator_center",
        np.array([0.0]), 8, 400, seed=63, slack=0.05,
    )
    # at lambda = 0 both sides estimate E[Z] from independent streams
    assert r.passed


def test_stable_convergence_unknown_functional():
    with pytest.raises(ValueError):
        stable_convergence_check(
            H, weight("identity"), (1.0, 1.0), "nope", np.array([1.0]), 8, 200, seed=1
        )


# --- kernel property suite -----------------------------------------------------------


def test_incr_cov_oracle_signs():
    # the 16-term expansion must agree with the direct product formula
    from sheetqv.kernel import incr_cov

    h = HurstPair(0.35, 0.4)
    assert incr_cov_oracle(h, 8, 2, 3, 5, 7) == pytest.approx(
        incr_cov(h, 8, 2, 3, 5, 7), abs=1e-14
    )


def test_kernel_property_suite_passes():
    reports = kernel_property_suite(2000, seed=65)
    assert len(reports) == 3
    assert all(r.passed for r in reports)
    names = {r.test for r in reports}
    assert names == {
        "incr_cov_oracle_equivalence",
        "delta_incr_inner_oracle_equivalence",
        "point_rect_cov_bound",
    }


def test_kernel_property_suite_deterministic():
    a = kernel_property_suite(500, seed=67)
    b = kernel_property_suite(500, seed=67)
    assert [r.estimate for r in a] == [r.estimate for r in b]


# --- Kolmogorov-Smirnov ---------------------------------------------------------------


def test_kolmogorov_sf_against_scipy():
    for x in (0.3, 0.5, 1.0, 1.36, 2.0):
        assert kolmogorov_sf(x) == pytest.approx(scipy.stats.kstwobign.sf(x), abs=1e-10)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0


def test_ks_normality_against_scipy():
    rng = np.random.default_rng(12)
    x = 0.3 + 1.7 * rng.standard_normal(5000)
    stat, p = ks_normality(x, 0.3, 1.7)
    ref = scipy.stats.kstest(x, "norm", args=(0.3, 1.7), mode="asymp")
    assert stat == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-8)
    assert p > 0.001


def test_ks_normality_rejects_wrong_distribution():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, 5000)
    _, p = ks_normality(x, 0.0, 1.0)
    assert p < 1e-6


def test_ks_normality_validation():
    with pytest.raises(ValueError):
        ks_normality(np.zeros(50), 0.0, 1.0)
    with pytest.raises(ValueError):
        ks_normality(np.zeros(200), 0.0, 0.0)


# --- report serialization ---------------------------------------------------------------


def test_verify_report_to_dict():
    r = mean_decay(H, weight("constant_one"), (1.0, 1.0), [8, 16])
    d = r.to_dict()
    assert d["pass"] is True
    assert d["test"] == "mean_decay"
    assert "extra" in d and "params" in d
