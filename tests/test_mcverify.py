"""Verification harness: exact moments, MC machinery, and pass rules."""

import dataclasses
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from sheetqv import mcverify
from sheetqv.fieldsim import (
    PURPOSE_SHEET,
    field_from_increments,
    replication_rng,
    sample_increments,
)
from sheetqv.kernel import HurstPair, InputError
from sheetqv.mcverify import (
    DEFAULT_LAMBDAS,
    _chunk_reps,
    _corner_inner_1d,
    _corner_sums,
    _q_quadform_samples,
    _rep_bytes,
    bootstrap_se,
    charfn_compare,
    exact_mean,
    exact_qv_variance,
    kernel_property_suite,
    kolmogorov_sf,
    ks_normality,
    lambda_product_grid,
    mean_decay,
    qv_point_samples,
    second_moment_limit,
    stable_convergence_check,
)
from sheetqv.qv import eval_qv, qv_process, weight
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
    if n1 == 0 or n2 == 0:
        return 0.0
    da = _corner_inner_1d(h.alpha, n1, n)
    db = _corner_inner_1d(h.beta, n2, n)
    va = ((np.arange(1, n1 + 1) - 1.0) / n) ** (2.0 * h.alpha)
    vb = ((np.arange(1, n2 + 1) - 1.0) / n) ** (2.0 * h.beta)
    e2 = np.vectorize(lambda vv: float(f.d2_mean(vv)))(np.outer(va, vb))
    scale = float(n) ** (2.0 * (h.alpha + h.beta) - 1.0)
    return float(scale * np.sum(e2 * np.outer(da * da, db * db)))


@pytest.mark.parametrize("t", [(1.0, 1.0), (0.5, 1.0), (0.123, 0.999)])
@pytest.mark.parametrize("kind", ["square", "cosine", "identity", "constant_one"])
def test_exact_mean_equals_per_cell_oracle(kind, t):
    # 256, 1024: leaves of whole rows; 257, 300 and partial t: leaves that
    # start and end inside a row
    f = weight(kind)
    h = HurstPair(0.35, 0.4)
    for n in (8, 64, 256, 257, 300, 1024):
        assert exact_mean(h, f, n, t) == _exact_mean_per_cell(h, f, n, t)


@pytest.mark.parametrize("count", [
    1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5, 2048**2,
])
def test_pairwise_sum_equals_np_sum(count):
    # signed terms from 1e-300 to 1e300, whose sum depends on the order of
    # the additions; if numpy changes how it sums, this fails
    rng = np.random.default_rng(count)
    x = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-300.0, 300.0, count)
    leaves = []

    def leaf(start, n):
        leaves.append(n)
        return np.sum(x[start : start + n])

    assert mcverify._pairwise_sum(leaf, 0, count) == np.sum(x)
    assert max(leaves) <= mcverify._MEAN_LEAF and sum(leaves) == count


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("kind", ["square", "cosine"])
def test_exact_mean_holds_leaf_sized_arrays(kind, n):
    # a few arrays of one leaf, 512 KiB each, at any n; n x n terms are 8 MiB
    # at n = 1024
    tracemalloc.start()
    try:
        exact_mean(HurstPair(0.35, 0.4), weight(kind), n, (1.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_exact_mean_degenerate_time():
    assert exact_mean(H, weight("square"), 8, (0.0, 1.0)) == 0.0


def test_exact_mean_monte_carlo_agreement():
    # MC check of the closed-form mean at n=8, f = square
    f = weight("square")
    xs, _ = qv_point_samples(H, f, 8, 60_000, seed=41, points=[(1.0, 1.0)])[8]
    est = xs[:, 0].mean()
    se = xs[:, 0].std(ddof=1) / math.sqrt(xs.shape[0])
    assert abs(est - MEAN_SQUARE_035_035[8]) <= 4.0 * se


def test_exact_qv_variance_monte_carlo_agreement():
    f = weight("constant_one")
    xs, _ = qv_point_samples(HurstPair(0.35, 0.4), f, 8, 20_000, seed=43, points=[(1.0, 1.0)])[8]
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
    xs, _ = qv_point_samples(H, f, n, 3, seed, points=[(1.0, 1.0), (0.5, 0.75)])[n]
    for r in range(3):
        inc = sample_increments(H, n, replication_rng(seed, r, PURPOSE_SHEET))
        p = qv_process(inc, f)
        assert xs[r, 0] == pytest.approx(eval_qv(p, 1.0, 1.0), rel=1e-12)
        assert xs[r, 1] == pytest.approx(eval_qv(p, 0.5, 0.75), rel=1e-12)


def test_point_samples_equal_qv_process_across_chunks():
    # both statistic paths give the same bits, also on both sides of the first
    # chunk boundary the executor picks at this n, and at points on an axis
    f = weight("cosine")
    n, seed = 8, 61
    size = _chunk_reps(n, "cholesky")
    M = size + 44
    points = [(0.0, 0.4), (1.0, 1.0), (0.5, 0.75), (0.3, 1.0)]
    xs, _ = qv_point_samples(H, f, n, M, seed, points)[n]
    for r in (0, size - 1, size, M - 1):
        inc = sample_increments(H, n, replication_rng(seed, r, PURPOSE_SHEET))
        p = qv_process(inc, f)
        assert np.array_equal(xs[r], [eval_qv(p, s, t) for s, t in points])

    # more than 16 rows, so a pairwise sum down the rows would round differently;
    # the corners come in any order
    a = np.random.default_rng(3).standard_normal((3, 40, 9))
    full = a.cumsum(axis=-2).cumsum(axis=-1)
    idx = [(i, j) for i in range(41) for j in range(10)][::-1]
    want = np.stack([full[:, i - 1, j - 1] if i and j else np.zeros(3) for i, j in idx], axis=-1)
    assert np.array_equal(_corner_sums(a, idx), want)


def _set_chunk_reps(monkeypatch, n, reps):
    """Set the budget so that the executor picks ``reps`` replications per chunk at n."""
    monkeypatch.setattr(mcverify, "_CHUNK_BUDGET", reps * 3 * _rep_bytes(n, "cholesky"))
    assert _chunk_reps(n, "cholesky") == reps


def _schedule_outputs(n, M, seed):
    """Outputs of the callers of the chunk executor: both samplers and a check on two grids."""
    f = weight("cosine")
    points = [(1.0, 1.0), (0.5, 0.75)]
    corner = lambda nodes: nodes[:, -1, -1]
    xs, zs = qv_point_samples(H, f, n, M, seed, points, sheet_functional=corner)[n]
    sums, zr = _q_quadform_samples(H, f, n, M, seed, points, functional=corner)[n]
    stable = stable_convergence_check(
        H, weight("identity"), (1.0, 1.0), "cos_corner", [0.0, 1.0], n, M, seed, coarse=n // 2)
    return xs, zs, sums, zr, [r.to_dict() for r in stable]


def test_chunk_schedule_gives_identical_results(monkeypatch):
    # chunk sizes 1, 7 and the whole range
    n, M, seed = 6, 23, 71
    monkeypatch.setattr(mcverify, "sigma_of", lambda h, tol: 0.7)  # the series is not under test
    want = _schedule_outputs(n, M, seed)
    for reps in (1, 7, M):
        _set_chunk_reps(monkeypatch, n, reps)
        got = _schedule_outputs(n, M, seed)
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)
        assert got[4] == want[4]


def test_one_replication_per_chunk_keeps_replication_order(monkeypatch):
    # the interpreter switching threads as often as it can: results still
    # come back in order
    n, M, seed = 4, 40, 5
    f = weight("cosine")
    want, _ = qv_point_samples(H, f, n, M, seed, [(1.0, 1.0)])[n]
    _set_chunk_reps(monkeypatch, n, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, _ = qv_point_samples(H, f, n, M, seed, [(1.0, 1.0)])[n]
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
@pytest.mark.parametrize("n", [16, 64, 1024, 4096])
def test_chunks_in_flight_fit_the_budget(method, n):
    # arithmetic only: the oversized fields are never drawn
    size = _chunk_reps(n, method)
    assert size >= 1
    assert 3 * size * _rep_bytes(n, method) <= mcverify._CHUNK_BUDGET or size == 1
    assert 3 * (size + 1) * _rep_bytes(n, method) > mcverify._CHUNK_BUDGET
    m = n if method == "cholesky" else 2 * n
    assert _rep_bytes(n, method) >= 8 * (m * m + (n + 1) ** 2)  # at least the draws and the nodes


def test_worker_exception_propagates_and_threads_end(monkeypatch):
    def fails(x):
        raise ArithmeticError("weight failed")

    # one replication per chunk, so the next chunk is drawn when it raises
    _set_chunk_reps(monkeypatch, 4, 1)
    failing = dataclasses.replace(weight("identity"), kind="fails", func=fails)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="weight failed"):
        qv_point_samples(H, failing, 4, 50, 3, [(1.0, 1.0)])
    assert threading.active_count() == before

    # a failure on the worker alone, which always gets the first chunk:
    # with one chunk it is seen at the end, with more on the way
    caller = threading.get_ident()

    def work(inc, nodes, rows):
        if threading.get_ident() != caller:
            raise ArithmeticError("worker failed")

    for M in (1, 50):
        with pytest.raises(ArithmeticError, match="worker failed"):
            mcverify._node_chunks(H, 4, 3, M, work)
    assert threading.active_count() == before


def test_worker_holds_at_most_two_chunks(monkeypatch):
    # the worker sleeps through its first chunk while the calling thread draws
    # the rest: the worker was lent chunks 0 and 1 only, so at most three
    # chunks (those two and the caller's) were ever in flight
    n, M, seed = 4, 30, 9
    _set_chunk_reps(monkeypatch, n, 3)
    caller, lent = threading.get_ident(), []

    def work(inc, nodes, rows):
        if threading.get_ident() != caller:
            lent.append(rows.start)
            if len(lent) == 1:
                time.sleep(0.2)

    mcverify._node_chunks(H, n, seed, M, work)
    assert lent == [0, 3]


def test_no_chunk_is_drawn_once_the_worker_has_failed(monkeypatch):
    # the worker fails on its first chunk and keeps both slots, so without the
    # stop the calling thread would finish the 48 chunks left itself
    _set_chunk_reps(monkeypatch, 4, 1)
    caller, worker_failed, on_caller = threading.get_ident(), threading.Event(), []

    def work(inc, nodes, rows):
        if threading.get_ident() != caller:
            worker_failed.set()
            raise ArithmeticError("worker failed")
        on_caller.append(rows)
        assert worker_failed.wait(5)
        time.sleep(0.05)  # the error reaches the list just after the event

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="worker failed"):
        mcverify._node_chunks(H, 4, 3, 50, work)
    assert len(on_caller) <= 1
    assert threading.active_count() == before


def test_calling_thread_error_ends_the_worker(monkeypatch):
    # the calling thread fails while the worker still holds its two chunks:
    # the worker finishes them, finds the end of the queue and is joined
    _set_chunk_reps(monkeypatch, 4, 1)
    caller, done, raised = [], [], []

    def work(inc, nodes, rows):
        if threading.get_ident() in caller:
            raise KeyError("caller failed")
        time.sleep(0.05)  # the calling thread draws and fails meanwhile
        done.append(rows.start)

    def run():
        caller.append(threading.get_ident())
        try:
            mcverify._node_chunks(H, 4, 3, 20, work)
        except KeyError as exc:
            raised.append(exc)

    before = threading.active_count()
    runner = threading.Thread(target=run)
    runner.start()
    runner.join(10)
    assert not runner.is_alive() and len(raised) == 1
    assert done[:2] == [0, 1]
    assert threading.active_count() == before


def test_chunks_reuse_one_set_of_buffers_per_thread(monkeypatch):
    # every chunk, the short last one too, lands in its thread's increment and
    # node buffers
    n, M, seed = 6, 23, 71
    _set_chunk_reps(monkeypatch, n, 5)
    seen = {}
    corner = np.empty(M)

    def work(inc, nodes, rows):
        key = (inc.__array_interface__["data"][0], nodes.__array_interface__["data"][0])
        seen.setdefault(threading.get_ident(), set()).add(key)
        corner[rows] = nodes[:, -1, -1]

    mcverify._node_chunks(H, n, seed, M, work)
    assert all(len(keys) == 1 for keys in seen.values())
    want = [sample_increments(H, n, replication_rng(seed, r, PURPOSE_SHEET)).values.sum() for r in range(M)]
    np.testing.assert_allclose(corner, want, rtol=1e-12)


def test_calling_thread_finishes_chunks_while_the_worker_is_busy(monkeypatch):
    # the worker sleeps through its first chunk, so the calling thread must
    # finish the others itself; every row still gets its own replication
    n, M, seed = 4, 30, 9
    _set_chunk_reps(monkeypatch, n, 3)
    caller = threading.get_ident()
    ran_on = []
    corner = np.empty(M)

    def work(inc, nodes, rows):
        ran_on.append(threading.get_ident())
        if ran_on[-1] != caller and ran_on.count(ran_on[-1]) == 1:
            time.sleep(0.2)
        corner[rows] = nodes[:, -1, -1]

    mcverify._node_chunks(H, n, seed, M, work)
    assert ran_on.count(caller) >= 5 and len(set(ran_on)) == 2
    want = [sample_increments(H, n, replication_rng(seed, r, PURPOSE_SHEET)).values.sum() for r in range(M)]
    np.testing.assert_allclose(corner, want, rtol=1e-12)


def test_zero_replications_give_empty_samples(monkeypatch):
    # and the executor asks for no core count, which not every platform has
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    f = weight("cosine")
    points = [(1.0, 1.0), (0.5, 0.75)]
    xs, zs = qv_point_samples(H, f, 6, 0, 3, points, sheet_functional=lambda nodes: nodes[:, -1, -1])[6]
    assert xs.shape == (0, 2) and zs.shape == (0,)
    sums, zr = _q_quadform_samples(H, f, 6, 0, 3, points, functional=lambda nodes: nodes[:, -1, -1])[6]
    assert sums.shape == (0, 4) and zr.shape == (0,)
    xs, zs = qv_point_samples(H, f, 6, 3, 3, points)[6]
    assert xs.shape == (3, 2) and zs is None


def test_reference_rows_are_the_sheets_of_replications_m_onward():
    # row r of the reference side holds replication M + r's f^2 corner sums and
    # Z, also on both sides of the first chunk boundary the executor picks at n
    f = weight("cosine")
    n, seed = 8, 61
    size = _chunk_reps(n, "cholesky")
    M = size + 44
    points = [(0.0, 0.4), (1.0, 1.0), (0.5, 0.75)]
    corner = lambda nodes: nodes[:, -1, -1]
    sums, zs = _q_quadform_samples(H, f, n, M, seed, points, functional=corner)[n]
    idx = [(math.floor(n * s), math.floor(n * t)) for s, t in points]
    for r in (0, size - 1, size, M - 1):
        inc = sample_increments(H, n, replication_rng(seed, M + r, PURPOSE_SHEET))
        nodes = field_from_increments(inc).values
        full = (f.func(nodes[:-1, :-1]) ** 2).cumsum(axis=0).cumsum(axis=1)
        want = [
            full[min(i, k) - 1, min(j, l) - 1] if min(i, k) and min(j, l) else 0.0
            for (i, j), (k, l) in itertools.product(idx, idx)
        ]
        assert np.array_equal(sums[r], want)
        assert np.array_equal(zs[r], nodes[-1, -1])


def test_qv_point_samples_sheet_functional():
    f = weight("constant_one")
    n = 6
    _, z = qv_point_samples(
        H, f, n, 3, 51, points=[(1.0, 1.0)],
        sheet_functional=lambda nodes: nodes[:, -1, -1],
    )[n]
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


def _bootstrap_weights_one_draw(m, seed, resamples):
    """The weights as one multinomial draw of every row, divided in a fresh array."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, mcverify.PURPOSE_BOOT)))
    return rng.multinomial(m, np.full(m, 1.0 / m), size=resamples) / m


def _bootstrap_se_one_draw(weights, values):
    """bootstrap_se as it was written with the weights above: the bit-for-bit reference."""
    m = values.shape[0]
    means = weights @ values.reshape(m, -1)
    if np.iscomplexobj(values):
        se = np.sqrt(means.real.var(axis=0, ddof=1) + means.imag.var(axis=0, ddof=1))
    else:
        se = means.std(axis=0, ddof=1)
    return se.reshape(values.shape[1:])


@pytest.mark.parametrize("resamples", [2, 200, 201])
@pytest.mark.parametrize("M", [2, 3, 129, 1000, 5000, 5001])
def test_bootstrap_se_equals_one_draw_of_the_weights(M, resamples):
    # real and complex values of five shapes; the list form shares one set of weights
    rng = np.random.default_rng(M + resamples)
    weights = _bootstrap_weights_one_draw(M, 17, resamples)
    for cplx in (False, True):
        arrays = []
        for tail in [(), (1,), (6,), (36,), (2, 3)]:
            v = rng.standard_normal((M, *tail))
            arrays.append(v + 1j * rng.standard_normal((M, *tail)) if cplx else v)
        want = [_bootstrap_se_one_draw(weights, v) for v in arrays]
        got = bootstrap_se(arrays, 17, resamples)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert np.array_equal(bootstrap_se(arrays[2], 17, resamples), want[2])


def test_bootstrap_se_holds_only_the_weights():
    # complex (5000, 36) values: the weights are 15.3 MiB of complex128 and
    # nothing but one block of counts and the small means is added to them
    values = np.random.default_rng(4).standard_normal((5000, 36)) * (1 + 1j)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bootstrap_se(values, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 5000 * 16 + (2 << 20)


def test_lambda_product_grid():
    g = lambda_product_grid(2)
    assert g.shape == (len(DEFAULT_LAMBDAS) ** 2, 2)
    assert sorted(set(g[:, 0])) == sorted(DEFAULT_LAMBDAS)
    g1 = lambda_product_grid(1, per_coord=(-1.0, 1.0))
    assert np.array_equal(g1, np.array([[-1.0], [1.0]]))


# --- limit checks ------------------------------------------------------------------


def test_second_moment_limit_reference_closed_form():
    f = weight("identity")
    r, = second_moment_limit(H, f, (1.0, 1.0), 8, 200, seed=53)
    sig2 = sigma(H, 1e-10) ** 2
    assert r.reference == pytest.approx(sig2 / (1.7 * 1.7), rel=1e-7)


def test_second_moment_limit_brownian_exact():
    # at alpha = beta = 1/2 with f == 1 the second moment is exactly 2 at all n
    hb = HurstPair(0.5, 0.5)
    r, = second_moment_limit(hb, weight("constant_one"), (1.0, 1.0), 16, 2000, seed=55)
    assert r.reference == pytest.approx(2.0, rel=1e-9)
    assert abs(r.estimate - 2.0) <= 4.0 * r.se
    assert r.passed


def test_build_q_constant_weight_closed_form():
    # f == 1: the reference sums scaled by sigma^2 / n^2 are
    # Q[a,b] = sigma^2 * (s_a ^ s_b) (t_a ^ t_b) up to grid flooring, in every replication
    points = [(0.5, 1.0), (1.0, 0.5)]
    sums, _ = _q_quadform_samples(H, weight("constant_one"), 8, 3, 57, points)[8]
    q = sums.reshape(3, 2, 2) * (1.5**2 / (8 * 8))
    want = 1.5**2 * np.array([[0.5, 0.25], [0.25, 0.5]])
    assert np.allclose(q, want, rtol=1e-12)
    assert np.array_equal(q, q.transpose(0, 2, 1))


def _one_grid_records(check, sizes):
    """Records of separate one-grid runs, the second judged by the two-scale rule.

    The rule is written out here from each run's own fields: the second
    record keeps the 4-SE rule with the first one's gap as slack (for the
    second moment, the relative gap <= 0.15 instead), and passes only if its
    gap shrinks.
    """
    (first,), (second,) = check(sizes[0]), check(sizes[1])
    gap = lambda r: r.extra.get("sup_diff", r.extra.get("gap"))
    if "gap" in second.extra:
        second.extra["relative_gap"] = second.extra["gap"] / abs(second.reference)
        rule = second.extra["relative_gap"] <= 0.15
    else:
        rule = second.extra["max_excess"] <= gap(first)
    second.extra["gap_shrinks"] = gap(second) <= gap(first)
    second.passed = rule and second.extra["gap_shrinks"]
    return [first.to_dict(), second.to_dict()]


@pytest.mark.parametrize("sizes", [(1, 2), (4, 8), (7, 15)])
def test_two_scale_records_equal_the_one_grid_runs(monkeypatch, sizes):
    monkeypatch.setattr(mcverify, "sigma_of", lambda h, tol: 0.7)  # the series is not under test
    M, seed, n = 300, 23, sizes[1]
    lam = lambda_product_grid(2, (-1.0, 0.5))
    points = [(0.5, 1.0), (1.0, 0.5)]
    checks = [
        lambda nn, **kw: second_moment_limit(H, weight("identity"), (1.0, 1.0), nn, M, seed, **kw),
        lambda nn, **kw: charfn_compare(H, weight("cosine"), points, lam, nn, M, seed, **kw),
    ] + [
        lambda nn, z=z, **kw: stable_convergence_check(
            H, weight("identity"), (1.0, 1.0), z, [0.0, 1.0], nn, M, seed, **kw)
        for z in ("cos_corner", "indicator_center")
    ]
    for check in checks:
        shared = [r.to_dict() for r in check(n, coarse=sizes[0])]
        assert shared == _one_grid_records(check, sizes)


def test_coarse_grid_outside_1_to_n_minus_1_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(mcverify, "standard_normals", no_draws)
    for coarse in (8, 9, 0, -1):
        with pytest.raises(ValueError, match="coarse grid size"):
            second_moment_limit(H, weight("identity"), (1.0, 1.0), 8, 10, 1, coarse=coarse)


def test_charfn_compare_small_run_passes():
    f = weight("cosine")
    lam = lambda_product_grid(2, per_coord=(-1.0, 0.5, 2.0))
    r, = charfn_compare(H, f, [(0.5, 1.0), (1.0, 0.5)], lam, 16, 800, seed=59)
    assert r.extra["max_excess"] <= 0.05  # passes with slack 0.05
    assert r.extra["sup_diff"] < 0.12


def test_charfn_compare_rejects_large_lambda():
    with pytest.raises(ValueError):
        charfn_compare(H, weight("cosine"), [(1.0, 1.0)], np.array([[6.0]]), 8, 100, seed=1)


def test_stable_convergence_small_run_passes():
    f = weight("identity")
    lam = np.array([-1.0, 0.0, 1.0, 2.0])
    r, = stable_convergence_check(H, f, (1.0, 1.0), "cos_corner", lam, 16, 800, seed=61)
    assert r.extra["max_excess"] <= 0.05  # passes with slack 0.05
    assert r.extra["sup_diff"] < 0.12


def test_stable_convergence_indicator_functional():
    r, = stable_convergence_check(
        H, weight("identity"), (1.0, 1.0), "indicator_center", np.array([0.0]), 8, 400, seed=63,
    )
    # at lambda = 0 both sides estimate E[Z] from independent streams; passes with slack 0.05
    assert r.extra["max_excess"] <= 0.05


def test_stable_convergence_unknown_functional():
    with pytest.raises(ValueError):
        stable_convergence_check(
            H, weight("identity"), (1.0, 1.0), "nope", np.array([1.0]), 8, 200, seed=1
        )


# --- kernel property suite -----------------------------------------------------------


def incr_cov_oracle(h: HurstPair, n: int, i: int, j: int, k: int, l: int) -> float:
    """Brute-force 16-term expansion of the increment covariance via cov_point."""
    from sheetqv.kernel import cov_point

    total = 0.0
    for a1 in (0, 1):
        for b1 in (0, 1):
            for a2 in (0, 1):
                for b2 in (0, 1):
                    sign = (-1) ** ((1 - a1) + (1 - b1) + (1 - a2) + (1 - b2))
                    p1 = ((i - 1 + a1) / n, (j - 1 + b1) / n)
                    p2 = ((k - 1 + a2) / n, (l - 1 + b2) / n)
                    total += sign * cov_point(h, p1, p2)
    return total


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


@pytest.mark.parametrize("cases", [0, -1])
def test_kernel_property_suite_refuses_no_cases_before_drawing(monkeypatch, cases):
    def no_draws(*args):
        raise AssertionError("cases were drawn")

    monkeypatch.setattr(mcverify, "_random_admissible_arrays", no_draws)
    with pytest.raises(InputError, match="at least 1 case"):
        kernel_property_suite(cases, seed=1)


def _kernel_property_suite_whole(cases, seed):
    """kernel_property_suite's records with every check formed on whole arrays, as it once was."""
    from sheetqv.kernel import delta_incr_inner, incr_cov
    from sheetqv.mcverify import _k_arr, _random_admissible_arrays

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 3)))
    alphas, betas = _random_admissible_arrays(rng, cases)
    ns = rng.integers(2, 33, cases)
    ii, jj, kk, ll = (rng.integers(1, ns + 1) for _ in range(4))

    def axis_incr_cov(gamma, n, a, b):
        return (
            _k_arr(gamma, a / n, b / n)
            - _k_arr(gamma, a / n, (b - 1) / n)
            - _k_arr(gamma, (a - 1) / n, b / n)
            + _k_arr(gamma, (a - 1) / n, (b - 1) / n)
        )

    oracle_incr = axis_incr_cov(alphas, ns, ii, kk) * axis_incr_cov(betas, ns, jj, ll)
    h = HurstPair(alphas, betas)
    direct_incr = incr_cov(h, ns, ii, jj, kk, ll)
    worst_incr = float(np.abs(direct_incr - oracle_incr).max())

    def axis_point_incr(gamma, n, p, b):
        return _k_arr(gamma, p, b / n) - _k_arr(gamma, p, (b - 1) / n)

    oracle_delta = axis_point_incr(alphas, ns, (kk - 1) / ns, ii) * axis_point_incr(
        betas, ns, (ll - 1) / ns, jj
    )
    direct_delta = delta_incr_inner(h, ns, kk, ll, ii, jj)
    worst_delta = float(np.abs(direct_delta - oracle_delta).max())

    a2, b2 = _random_admissible_arrays(rng, cases)
    s1, t1 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    s2, t2 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    l1, l2 = rng.uniform(0.0, 1.0, (2, cases))
    vals = np.abs(
        (_k_arr(a2, l1, t1) - _k_arr(a2, l1, s1)) * (_k_arr(b2, l2, t2) - _k_arr(b2, l2, s2))
    )
    bounds = np.abs(t1 - s1) ** (2 * a2) * np.abs(t2 - s2) ** (2 * b2)
    violations = int(np.sum(vals > bounds + 1e-12))

    def record(test, estimate, provenance, passed):
        params = {"cases": cases, "seed": seed}
        return mcverify.VerifyReport(test, params, estimate, 0.0, 0.0, provenance, passed).to_dict()

    cov = "signed cov_point expansion"
    return [
        record("incr_cov_oracle_equivalence", worst_incr, cov, worst_incr <= 1e-10),
        record("delta_incr_inner_oracle_equivalence", worst_delta, cov, worst_delta <= 1e-10),
        record("point_rect_cov_bound", float(violations), "exact kernel formula", violations == 0),
    ]


_B = mcverify._CASE_BLOCK


@pytest.mark.parametrize("cases", [1, _B - 1, _B, _B + 1, 2000, 100_000])
def test_kernel_property_suite_equals_whole_array_checks(cases):
    reports = kernel_property_suite(cases, seed=101)
    assert [r.to_dict() for r in reports] == _kernel_property_suite_whole(cases, 101)


@pytest.mark.parametrize("cases, block", [(2000, 13), (3 * _B + 5, _B)])
def test_kernel_check_blocks_equal_whole_array_calls(cases, block):
    # every value, not only the largest gap, and bit for bit
    rng = np.random.default_rng(cases)
    alphas, betas = mcverify._random_admissible_arrays(rng, cases)
    ns = rng.integers(2, 33, cases)
    oracle_args = (alphas, betas, ns, *(rng.integers(1, ns + 1) for _ in range(4)))
    s1, t1 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    s2, t2 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    bound_args = (*mcverify._random_admissible_arrays(rng, cases), s1, t1, s2, t2,
                  *rng.uniform(0.0, 1.0, (2, cases)))
    for check, args in ((mcverify._oracle_pairs, oracle_args), (mcverify._rect_bound_sides, bound_args)):
        whole = check(*args)
        parts = [check(*(a[lo : lo + block] for a in args)) for lo in range(0, cases, block)]
        for k, values in enumerate(whole):
            assert values.tobytes() == np.concatenate([p[k] for p in parts]).tobytes()


def _nan_first(values):
    values = values.copy()
    values[0] = np.nan
    return values


def _break_bound_first(sides):
    vals, bounds = sides
    return np.where(np.arange(vals.size) == 0, bounds + 1.0, vals), bounds


@pytest.mark.parametrize("module, name, fault, failing, estimate", [
    ("sheetqv.kernel", "incr_cov", _nan_first, 0, math.nan),
    ("sheetqv.kernel", "delta_incr_inner", _nan_first, 1, math.nan),
    ("sheetqv.mcverify", "_rect_bound_sides", _break_bound_first, 2, 1.0),
])
def test_kernel_property_suite_fails_on_a_fault_in_a_later_block(
    monkeypatch, module, name, fault, failing, estimate
):
    # three blocks; only the middle one has a fault
    fn, calls = getattr(sys.modules[module], name), itertools.count(1)
    monkeypatch.setattr(
        sys.modules[module], name, lambda *args: fault(fn(*args)) if next(calls) == 2 else fn(*args)
    )
    reports = kernel_property_suite(2 * _B + 10, seed=101)
    assert [r.passed for r in reports] == [k != failing for k in range(3)]
    assert repr(reports[failing].estimate) == repr(estimate)


def test_kernel_property_suite_holds_one_checks_cases_and_a_block():
    # whole-array checks peaked at 19.8 MiB here
    tracemalloc.start()
    try:
        kernel_property_suite(100_000, seed=101)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13 << 20


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
