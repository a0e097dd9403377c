"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line naming the criterion so the run
log doubles as an acceptance report. All runs are fully deterministic.
"""

import json
import math

import numpy as np
import pytest

from sheetqv.cli import EXIT_OK, main
from sheetqv.kernel import HurstPair, incr_cov
from sheetqv.mcverify import (
    _node_chunks,
    charfn_compare,
    exact_mean,
    exact_qv_variance,
    kernel_property_suite,
    ks_normality,
    lambda_product_grid,
    mean_decay,
    qv_point_samples,
    second_moment_limit,
    stable_convergence_check,
)
from sheetqv.qv import weight
from sheetqv.sigma import sigma_squared_partial

H35 = HurstPair(0.35, 0.35)


def report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({title}): {detail}")


def test_criterion_01_limiting_constant(capsys):
    code = main(["sigma", "--alpha", "0.5", "--beta", "0.5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    val = json.loads(out.splitlines()[-1])["sigma"]
    sqrt2_ok = abs(val - math.sqrt(2.0)) <= 1e-12

    bracket_ok = True
    for cutoff in (4, 40, 400):
        res = sigma_squared_partial(H35, cutoff)
        finer = sigma_squared_partial(H35, 10 * cutoff)
        bracket_ok &= res.value <= finer.value <= res.value + res.tail_bound

    ok = sqrt2_ok and bracket_ok
    with capsys.disabled():
        report(1, "limiting constant", ok,
               f"sigma(1/2,1/2)={val!r}, bracketing at 10x cutoff holds={bracket_ok}")
    assert ok


def test_criterion_02_kernel_oracle_equivalence(capsys):
    reports = kernel_property_suite(100_000, seed=101)
    by_name = {r.test: r for r in reports}
    ok = all(r.passed for r in reports)
    with capsys.disabled():
        report(2, "kernel oracle equivalence", ok,
               "worst |incr_cov - oracle|="
               f"{by_name['incr_cov_oracle_equivalence'].estimate:.3e}, "
               "worst |inner - oracle|="
               f"{by_name['delta_incr_inner_oracle_equivalence'].estimate:.3e}, "
               f"bound violations={int(by_name['point_rect_cov_bound'].estimate)}")
    assert ok


def test_criterion_03_sampler_exactness(capsys):
    h = HurstPair(0.35, 0.4)
    n, reps = 8, 20_000
    exact = np.empty((n * n, n * n))
    for a in range(n * n):
        i, j = divmod(a, n)
        for b in range(n * n):
            k, l = divmod(b, n)
            exact[a, b] = incr_cov(h, n, i + 1, j + 1, k + 1, l + 1)

    fractions = {}
    for method in ("cholesky", "circulant"):
        flat = np.empty((reps, n * n))

        def work(inc, nodes, rows):
            flat[rows] = inc.reshape(inc.shape[0], -1)

        _node_chunks(h, n, 103, reps, work, method=method)
        emp = flat.T @ flat / reps
        sq = flat**2
        second = sq.T @ sq / reps
        se = np.sqrt(np.maximum(second - emp**2, 0.0) / (reps - 1))
        within = np.abs(emp - exact) <= 4.0 * se
        fractions[method] = float(within.mean())

    ok = all(frac >= 0.99 for frac in fractions.values())
    with capsys.disabled():
        report(3, "sampler exactness", ok,
               f"fraction of 4096 covariances within 4 SE: "
               f"cholesky={fractions['cholesky']:.4f}, circulant={fractions['circulant']:.4f}")
    assert ok


def test_criterion_04_exact_finite_n_moments(capsys):
    n, reps = 32, 10_000
    xs, _ = qv_point_samples(H35, weight("constant_one"), n, reps, seed=107,
                             points=[(1.0, 1.0)])[n]
    sq = xs[:, 0] ** 2
    var_exact = exact_qv_variance(H35, n)
    var_se = sq.std(ddof=1) / math.sqrt(reps)
    var_ok = abs(sq.mean() - var_exact) <= 4.0 * var_se

    ys, _ = qv_point_samples(H35, weight("square"), n, reps, seed=109,
                             points=[(1.0, 1.0)])[n]
    mean_exact = exact_mean(H35, weight("square"), n, (1.0, 1.0))
    mean_se = ys[:, 0].std(ddof=1) / math.sqrt(reps)
    mean_ok = abs(ys[:, 0].mean() - mean_exact) <= 4.0 * mean_se

    ok = var_ok and mean_ok
    with capsys.disabled():
        report(4, "exact finite-n moments", ok,
               f"variance: MC={sq.mean():.5f} exact={var_exact:.5f} se={var_se:.5f}; "
               f"mean(square): MC={ys[:, 0].mean():.5f} exact={mean_exact:.5f} se={mean_se:.5f}")
    assert ok


def _corner_sum_sq(gamma: float, m: int) -> float:
    """S_gamma(m) = sum_{k<=m} (1 - g_k)^2 with g_k = k^{2gamma} - (k-1)^{2gamma}."""
    return math.fsum((1.0 - (k ** (2 * gamma) - (k - 1) ** (2 * gamma))) ** 2
                     for k in range(1, m + 1))


def test_criterion_05_mean_decay_rate(capsys):
    # For f = square, n^{2(a+b)-1} E[X^n_(1,1)] = S_a(n) S_b(n) / (8 n^2) exactly.
    # Since 0 <= g_k <= 1 and sum g_k = n^{2gamma}, n(1 - 2n^{2gamma-1}) <= S_gamma(n) <= n,
    # which brackets the normalized mean between two bounds that both tend to 1/8:
    # E[X^n] ~ n^{1-2(a+b)} / 8. A slope fitted on this grid is pre-asymptotic,
    # because the lower bound closes only like n^{2gamma-1}.
    a, b = H35.alpha, H35.beta
    n_list = [8, 16, 32, 64, 128]
    r = mean_decay(H35, weight("square"), (1.0, 1.0), n_list)
    closed_ok = bracket_ok = True
    rows = []
    for n, mean in zip(n_list, r.extra["means"]):
        normed = n ** (2.0 * (a + b) - 1.0) * mean
        closed = _corner_sum_sq(a, n) * _corner_sum_sq(b, n) / (8.0 * n * n)
        lower = (max(0.0, 1.0 - 2.0 * n ** (2.0 * a - 1.0))
                 * max(0.0, 1.0 - 2.0 * n ** (2.0 * b - 1.0)) / 8.0)
        closed_ok &= abs(normed - closed) <= 1e-12 * closed
        bracket_ok &= lower <= normed <= 1.0 / 8.0
        rows.append(f"n={n}: {lower:.4f} <= {normed:.4f} <= 0.125")
    ok = closed_ok and bracket_ok
    with capsys.disabled():
        report(5, "mean decay rate", ok,
               f"n^{{2(a+b)-1}} E[X^n] matches S_a S_b/(8n^2) to 1e-12={closed_ok}, "
               f"bracketed={bracket_ok} ({'; '.join(rows)}); "
               f"pre-asymptotic log-log slope {r.extra['slope']:+.3f} "
               f"(limit {r.reference:+.3f}, for information only)")
    assert ok


def test_criterion_06_second_moment_limit(capsys):
    f = weight("identity")
    r16, r64 = second_moment_limit(H35, f, (1.0, 1.0), 64, 5000, seed=113, coarse=16)
    rel = abs(r64.estimate - r64.reference) / abs(r64.reference)
    shrinks = r64.extra["gap"] <= r16.extra["gap"]
    ok = shrinks and rel <= 0.15
    with capsys.disabled():
        report(6, "second-moment limit", ok,
               f"gap n=16: {r16.extra['gap']:.4f}, n=64: {r64.extra['gap']:.4f} "
               f"(shrinks={shrinks}); relative gap at n=64: {rel:.4f} <= 0.15")
    assert ok
    # the check's own verdict on its last record is the same
    assert (r64.passed, r64.extra["relative_gap"], r64.extra["gap_shrinks"]) == (ok, rel, shrinks)


def test_criterion_07_distributional_clt(capsys):
    n, reps = 64, 5000
    xs, _ = qv_point_samples(H35, weight("constant_one"), n, reps, seed=127,
                             points=[(1.0, 1.0)])[n]
    sd = math.sqrt(exact_qv_variance(H35, n))
    stat, p = ks_normality(xs[:, 0], 0.0, sd)
    ok = p > 0.001
    with capsys.disabled():
        report(7, "distributional CLT", ok,
               f"KS statistic={stat:.5f}, p={p:.4f} > 0.001 against N(0, {sd**2:.5f})")
    assert ok


def test_criterion_08_characteristic_functions(capsys):
    f = weight("cosine")
    points = [(0.5, 1.0), (1.0, 0.5)]
    lam = lambda_product_grid(2)
    r32, r64 = charfn_compare(H35, f, points, lam, 64, 5000, seed=131, coarse=32)
    shrinks = r64.extra["sup_diff"] <= r32.extra["sup_diff"]
    rule = r64.extra["max_excess"] <= r32.extra["sup_diff"]  # 4 SE plus the n=32 gap as slack
    ok = rule and shrinks
    with capsys.disabled():
        report(8, "characteristic functions", ok,
               f"sup gap n=32: {r32.extra['sup_diff']:.5f}, n=64: {r64.extra['sup_diff']:.5f} "
               f"(shrinks={shrinks}); 4-SE+slack rule holds={rule}")
    assert ok
    # the check's own verdict on its last record is the same
    assert (r64.passed, r64.extra["gap_shrinks"]) == (ok, shrinks)


def test_criterion_09_stable_convergence(capsys):
    f = weight("identity")
    lam = np.asarray(lambda_product_grid(1)).ravel()
    r32, r64 = stable_convergence_check(H35, f, (1.0, 1.0), "cos_corner", lam, 64, 5000,
                                        seed=141, coarse=32)
    shrinks = r64.extra["sup_diff"] <= r32.extra["sup_diff"]
    rule = r64.extra["max_excess"] <= r32.extra["sup_diff"]  # 4 SE plus the n=32 gap as slack
    ok = rule and shrinks
    with capsys.disabled():
        report(9, "stable convergence", ok,
               f"sup gap n=32: {r32.extra['sup_diff']:.5f}, n=64: {r64.extra['sup_diff']:.5f} "
               f"(shrinks={shrinks}); 4-SE+slack rule holds={rule}")
    assert ok
    # the check's own verdict on its last record is the same
    assert (r64.passed, r64.extra["gap_shrinks"]) == (ok, shrinks)


def test_criterion_10_chaos_moments(capsys):
    from sheetqv.chaos import i2_pair_moment

    rng = np.random.default_rng(139)
    m = 1_000_000
    worst = 0.0
    ok = True
    for corr in (0.0, 0.3, -0.3, 0.9, -0.9):
        x = rng.standard_normal(m)
        e = rng.standard_normal(m)
        y = corr * x + math.sqrt(1.0 - corr * corr) * e
        prod = (x * x - 1.0) * (y * y - 1.0)
        se = prod.std(ddof=1) / math.sqrt(m)
        z = abs(prod.mean() - i2_pair_moment(corr)) / se
        worst = max(worst, z)
        ok &= z <= 4.0
    with capsys.disabled():
        report(10, "chaos moments", ok,
               f"E[(X^2-1)(Y^2-1)] vs 2 rho^2 over rho grid: worst |z|={worst:.2f} <= 4")
    assert ok
