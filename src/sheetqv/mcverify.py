"""Monte Carlo verification of the mixed-Gaussian limit theorem.

Every check compares a Monte Carlo estimate (always reported with a standard
error) against a reference value whose provenance is recorded: an exact
kernel-sum formula, quadrature, or the limiting-constant series. Limit
statements have no rate attached, so a limit check draws at grid size n and
may also judge a ``coarse`` size 1 <= coarse < n from the same draws. It
then returns records at coarse and at n, judged by ``_records``: the record
at n must shrink toward the reference and meet the 4-sigma rule with the
coarse gap as "slack" (the second moment: a relative gap of 0.15). Samples
are ``_grid_pass`` corner sums, drawn only once the sizes and sigma pass.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._threads import alongside
from .fieldsim import PURPOSE_SHEET, check_grid_size, factor_1d, prefix_nodes, standard_normals
from .fieldsim import replication_rng  # noqa: F401  (perfbench.layers patches this name)
from .kernel import HurstPair, InputError, rho
from .qv import WeightFunction, summands, weight
from .quadrature import gauss_legendre_2d
from .sigma import sigma as sigma_of

PURPOSE_BOOT = 2
# Bytes that all chunks in flight may hold at once; the chunk size follows
# from it at every n, so memory stays bounded however large n is. 16 MiB
# (20 replications per chunk at n = 64) kept the Monte Carlo suites' peak
# RSS within 1% of the serial loop's; 24 MiB added about 2%.
_CHUNK_BUDGET = 16 << 20
_BOOT_RESAMPLES = 200

DEFAULT_LAMBDAS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
MAX_CHARFN_LAMBDA = 5.0


@dataclass
class VerifyReport:
    """One verification record: estimate vs reference, with provenance."""

    test: str
    params: dict
    estimate: float
    se: float
    reference: float
    provenance: str
    passed: bool
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "params": self.params,
            "estimate": self.estimate,
            "se": self.se,
            "reference": self.reference,
            "provenance": self.provenance,
            "pass": self.passed,
            **({"extra": self.extra} if self.extra else {}),
        }


# ---------------------------------------------------------------------------
# exact finite-n moments


def _rho_sq_weighted(gamma: float, count: int) -> float:
    """sum over i,k in 1..count of rho_gamma(k-i)^2 via lag counts."""
    c = np.arange(-(count - 1), count)
    r = rho(gamma, c)
    return float(np.sum((count - np.abs(c)) * r * r))


def exact_qv_variance(h: HurstPair, n: int, t: tuple[float, float] = (1.0, 1.0)) -> float:
    """Exact Var of the statistic at t for f == 1.

    With f constant the weight terms of the chaos decomposition vanish and
    Var = 2 n^{-2} sum_{i,j,k,l} (n^{2(a+b)} incr_cov)^2, which factorizes
    over the two axes. Equals 2 at alpha = beta = 1/2, t = (1,1).
    """
    n1, n2 = int(np.floor(n * t[0])), int(np.floor(n * t[1]))
    if n1 == 0 or n2 == 0:
        return 0.0
    return (
        2.0 / (16.0 * n * n)
        * _rho_sq_weighted(h.alpha, n1)
        * _rho_sq_weighted(h.beta, n2)
    )


def _corner_inner_1d(gamma: float, count: int, n: int) -> np.ndarray:
    """K^g((k-1)/n, k/n) - ((k-1)/n)^{2g} for k = 1..count."""
    k = np.arange(1, count + 1, dtype=float)
    a = (k - 1.0) / n
    b = k / n
    return 0.5 * (b ** (2.0 * gamma) - a ** (2.0 * gamma) - float(n) ** (-2.0 * gamma))


# Terms exact_mean forms at once: 512 KiB per array.
_MEAN_LEAF = 1 << 16
# Largest n mean_decay takes. The exact mean's time is O(n^2): the 4.3e9
# terms at 2^16 took 8 s for f = square on one x86-64 core.
MAX_MEAN_N = 1 << 16


def _pairwise_sum(leaf, start: int, count: int):
    """``np.sum`` of ``count`` flat terms from ``start``, formed ``leaf`` by leaf.

    numpy sums a contiguous float64 array pairwise: a range of more than 128
    terms is split at count // 2, rounded down to a multiple of 8, and the
    two halves' sums are added. This splits the same way down to ranges of
    at most _MEAN_LEAF terms and adds ``leaf(start, count)``, the ``np.sum``
    of that range, so it returns the float ``np.sum`` of the whole array
    would, without the array.
    """
    if count <= _MEAN_LEAF:
        return leaf(start, count)
    half = count // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, count - half)


def exact_mean(h: HurstPair, f: WeightFunction, n: int, t: tuple[float, float]) -> float:
    """Exact finite-n mean of the statistic at t, from the closed form f.d2_mean.

    E[X^n_t] = n^{2(a+b)-1} sum_{k,l} E[f''(W at lower-left node)] * inner^2,
    where inner is the corner-rectangle/cell inner product; it factorizes
    across the two axes. Identically zero whenever f'' == 0.

    The n1 x n2 terms are summed by ``_pairwise_sum`` in leaves of at most
    _MEAN_LEAF terms, each formed from the rows it spans, so memory is
    O(n + _MEAN_LEAF) and the sum is that of the whole term array. Time is
    O(n1 n2).
    """
    n1, n2 = int(np.floor(n * t[0])), int(np.floor(n * t[1]))
    if n1 == 0 or n2 == 0:
        return 0.0
    va = ((np.arange(1, n1 + 1) - 1.0) / n) ** (2.0 * h.alpha)
    vb = ((np.arange(1, n2 + 1) - 1.0) / n) ** (2.0 * h.beta)
    da = _corner_inner_1d(h.alpha, n1, n)
    db = _corner_inner_1d(h.beta, n2, n)
    da2, db2 = da * da, db * db

    def leaf(start, count):
        r0, c0 = divmod(start, n2)
        rows = slice(r0, -(-(start + count) // n2))
        terms = f.d2_mean(np.outer(va[rows], vb)) * np.outer(da2[rows], db2)  # a constant broadcasts
        return np.sum(terms.ravel()[c0 : c0 + count])

    scale = float(n) ** (2.0 * (h.alpha + h.beta) - 1.0)
    return float(scale * _pairwise_sum(leaf, 0, n1 * n2))


def mean_decay(
    h: HurstPair, f: WeightFunction, t: tuple[float, float], n_list: list[int]
) -> VerifyReport:
    """Check |E[X^n_t]| <= C n^{1-2(a+b)} with C fitted at the smallest n.

    Also reports the least-squares log-log slope of |E[X^n_t]| vs n.

    Both rules assume the grid is already in the asymptotic regime. For
    f = square the normalized mean n^{2(a+b)-1} E[X^n_(1,1)] equals
    S_a(n) S_b(n) / (8 n^2), S_g(n) = sum_{k<=n} (1 - k^{2g} + (k-1)^{2g})^2,
    which increases toward 1/8, so the fitted-C bound fails on every grid,
    and the slope is still -0.0014 on n = 8..2048 at a = b = 0.35. Acceptance
    criterion 5 checks the rate instead, by bracketing that normalized mean.
    """
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InputError("n_list must be strictly increasing with >= 2 values")
    if n_list[0] < 1 or n_list[-1] > MAX_MEAN_N:
        raise InputError(
            f"n_list sizes must be in 1 .. {MAX_MEAN_N} (the exact mean sums n^2 terms), got {n_list}"
        )
    means = np.array([exact_mean(h, f, n, t) for n in n_list])
    expo = 1.0 - 2.0 * (h.alpha + h.beta)
    ns = np.array(n_list, dtype=float)
    if np.all(means == 0.0):
        slope, bound_ok, passed = 0.0, True, True
    else:
        c_fit = abs(means[0]) / ns[0] ** expo
        bound_ok = bool(np.all(np.abs(means) <= c_fit * ns**expo * (1.0 + 1e-9)))
        nz = np.abs(means) > 0
        slope, _ = np.polyfit(np.log(ns[nz]), np.log(np.abs(means[nz])), 1)
        passed = bound_ok and abs(slope - expo) <= 0.25
    return VerifyReport(
        test="mean_decay",
        params={"alpha": h.alpha, "beta": h.beta, "t": list(t), "n_list": n_list},
        estimate=float(slope),
        se=0.0,
        reference=expo,
        provenance="exact kernel formula",
        passed=passed,
        extra={"means": means.tolist(), "slope": float(slope), "bound_ok": bound_ok},
    )


# ---------------------------------------------------------------------------
# chunked sheet sampling


def _rep_bytes(shapes) -> int:
    """Bytes one replication holds while its chunk is in flight.

    ``shapes`` are the (g, m) shapes of the grids' factors. Per grid, the
    draws Z, the half product F_alpha Z, and six cell-sized arrays: the
    increments, the nodes and the temporaries of a chunk's work. A coarse
    grid's draws are a contiguous copy of a prefix of the fine grid's.
    """
    return sum(8 * (m * m + g * m + 6 * (g + 1) ** 2) for g, m in shapes)


def _chunk_reps(shapes) -> int:
    """Replications per chunk so that three chunks fit _CHUNK_BUDGET (at least 1).

    Three are in flight at most: the two that ``_node_chunks`` lends the
    worker (the one it works on and one drawn and waiting for it), and the
    one the calling thread finishes itself. A lent chunk holds its slot of
    the two until the worker has finished it and dropped its draws.
    """
    return max(1, _CHUNK_BUDGET // (3 * _rep_bytes(shapes)))


def _node_chunks(h, n, seed, M, work, rep_offset=0, method="cholesky", coarse=None):
    """Run ``work(inc, nodes, rows)`` over replications rep_offset .. rep_offset+M-1 in chunks.

    ``work`` gets a chunk's increments (size, n, n), its nodes (size, n+1, n+1)
    and the slice of 0 .. M-1 they belong to, and writes its results into
    those rows of the caller's preallocated outputs.

    ``coarse=(n_c, work_c)`` with n_c < n also runs ``work_c`` on the n_c grid
    of the same replications, in the same chunks. Z is drawn once, at n: the
    draws of the n_c grid are the first m_c^2 normals of each replication's
    stream (m_c the factor width at n_c), which are exactly what a pass at
    n_c alone would draw. They are copied into a contiguous buffer before the
    product, since a strided view handed to BLAS may change its bits.

    The calling thread draws every chunk (building the streams holds the GIL)
    and lends it to the worker of ``alongside``, which forms the products, the
    prefix sums and ``work``, through a two-slot semaphore and a queue. When
    the worker holds two unfinished chunks, no slot is free and the calling
    thread finishes the chunk itself, so it never waits for the worker before
    the end. It draws no more chunks once the worker has failed. ``work`` may
    thus run on either thread and must touch no shared state but its own rows.
    The stream contract makes every chunk size and every split between the
    threads give the same bits.

    Each thread writes its chunks' products and nodes into its own set of
    buffers. With fresh arrays per chunk (about 0.5 MB each at n = 64) glibc
    returned their pages and faulted them in again for every chunk.
    """
    from queue import SimpleQueue  # only the Monte Carlo suites need it

    grids = [(n, work)] if coarse is None else [(n, work), coarse]
    factors = [(factor_1d(h.alpha, g, method), factor_1d(h.beta, g, method), w) for g, w in grids]
    m = factors[0][0].shape[1]
    size = _chunk_reps([fa.shape for fa, _, _ in factors])
    reps = min(size, M)

    def buffers():
        # per grid: the draws (None at n: the drawn stack itself), F_alpha Z, increments, nodes
        return [
            (
                np.empty((reps, fa.shape[1], fb.shape[1])) if k else None,
                np.empty((reps, fa.shape[0], fb.shape[1])),
                np.empty((reps, fa.shape[0], fb.shape[0])),
                np.zeros((reps, fa.shape[0] + 1, fb.shape[0] + 1)),
            )
            for k, (fa, fb, _) in enumerate(factors)
        ]

    def finish(z, bufs, chunk):
        k = z.shape[0]
        for (fa, fb, grid_work), (zc, half, inc, nodes) in zip(factors, bufs):
            zg = z
            if zc is not None:
                mc = fa.shape[1]
                zg = zc[:k]
                np.copyto(zg, z.reshape(k, m * m)[:, : mc * mc].reshape(k, mc, mc))
            np.matmul(fa, zg, out=half[:k])
            np.matmul(half[:k], fb.T, out=inc[:k])
            grid_work(inc[:k], prefix_nodes(inc[:k], out=nodes[:k]), chunk)

    own, lent = buffers(), buffers()
    slots, chunks = threading.Semaphore(2), SimpleQueue()  # the worker holds at most two chunks

    def lend():
        for z, chunk in iter(chunks.get, None):
            finish(z, lent, chunk)
            del z  # a chunk's draws go before its slot does
            slots.release()

    with alongside(lend) as failed:
        try:
            for start in range(0, M, size):
                if failed:
                    break
                chunk = slice(start, min(start + size, M))
                z = standard_normals(seed, rep_offset + start, chunk.stop - start, PURPOSE_SHEET, (m, m))
                if slots.acquire(blocking=False):
                    chunks.put((z, chunk))
                else:
                    finish(z, own, chunk)
        finally:
            chunks.put(None)  # the worker stops after the chunks it was lent


def _point_indices(n: int, points) -> np.ndarray:
    return np.array(
        [[min(int(np.floor(n * p[0])), n), min(int(np.floor(n * p[1])), n)] for p in points]
    )


def _corner_sums(a: np.ndarray, idx) -> np.ndarray:
    """Sums of a[..., :i, :j] for each (i, j) in idx, shape (..., len(idx)).

    One running row walks down the rows once, up to the largest i, and at
    each requested i only the needed prefix of it is summed. These are the
    adds of a full double cumsum read at (i-1, j-1), in its order, so each
    value has the same bits; a pairwise ``.sum()`` or ``np.add.reduce`` down the
    rows would round differently.
    """
    wanted = {}
    for p, (i, j) in enumerate(idx):
        if i and j:
            wanted.setdefault(i, []).append((p, j))
    out = np.zeros(a.shape[:-2] + (len(idx),))
    if not wanted:
        return out
    acc = a[..., 0, :].copy()  # the sum of rows 0 .. done-1
    done = 1
    for i in sorted(wanted):
        for k in range(done, i):
            acc += a[..., k, :]
        done = i
        for p, j in wanted[i]:
            out[..., p] = acc[..., :j].cumsum(axis=-1)[..., -1]
    return out


def _check_sizes(n: int, coarse: int | None) -> None:
    """Refuse a draw size the samplers cannot hold, or a ``coarse`` size outside 1 .. n-1."""
    check_grid_size(n)
    if coarse is not None and not 1 <= coarse < n:
        raise InputError(f"coarse grid size must satisfy 1 <= coarse < n={n}, got {coarse}")


def _grid_pass(h, n, seed, M, points, cells, functional=None, rep_offset=0, coarse=None):
    """Corner sums of ``cells(inc, nodes)`` below ``points``, at n and at ``coarse`` if given, in one pass.

    Returns a dict from each grid size g to its (sums, Z): the (M, len(points))
    sums of the cells below each point's corner on grid g, and
    ``functional(nodes)`` of each sheet (M,) or None. Both run per chunk on
    either thread (see _node_chunks), so they must touch no state shared with
    the caller. No stream is drawn before the sizes are checked.
    """
    _check_sizes(n, coarse)
    outs = {}

    def work_at(g):
        # grid g's outputs, and the work that fills a chunk's rows of them
        idx = _point_indices(g, points)
        sums, zs = np.empty((M, len(idx))), None if functional is None else np.empty(M)
        outs[g] = sums, zs

        def work(inc, nodes, rows):
            sums[rows] = _corner_sums(cells(inc, nodes), idx)
            if zs is not None:
                zs[rows] = functional(nodes)

        return work

    work = work_at(n)
    pair = None if coarse is None else (coarse, work_at(coarse))
    _node_chunks(h, n, seed, M, work, rep_offset=rep_offset, coarse=pair)
    return outs


def qv_point_samples(
    h: HurstPair,
    f: WeightFunction,
    n: int,
    M: int,
    seed: int,
    points,
    sheet_functional=None,
    coarse: int | None = None,
):
    """Monte Carlo samples of the statistic at the given time points.

    Returns _grid_pass's dict from each grid size (n, and ``coarse`` if given)
    to its (X, Z): X (M, len(points)) holds the corner sums of the summands
    over the grid size, and Z ``sheet_functional(nodes)`` of each sheet, or None.
    """
    cells = lambda inc, nodes: summands(h, nodes, inc, f)
    outs = _grid_pass(h, n, seed, M, points, cells, sheet_functional, coarse=coarse)
    for g, (xs, _) in outs.items():
        xs /= g
    return outs


# ---------------------------------------------------------------------------
# two-scale records


def _records(record, n, coarse=None):
    """A limit check's records: one at n, or at ``coarse`` and then at n.

    ``record(size, slack, last)`` makes one record. The first is judged with
    slack 0. With ``coarse``, the record at n is judged with the coarse
    record's gap as its slack and ``last`` true; it also gets
    ``gap_shrinks``, whether its gap is at most the coarse record's, and
    passes only if it does.
    """
    first = record(n if coarse is None else coarse, 0.0, False)
    if coarse is None:
        return [first]
    gap = lambda r: r.extra.get("sup_diff", r.extra.get("gap"))  # distance from the reference
    last = record(n, gap(first), True)
    last.extra["gap_shrinks"] = shrinks = gap(last) <= gap(first)
    last.passed = bool(last.passed and shrinks)
    return [first, last]


# ---------------------------------------------------------------------------
# second moment


def second_moment_limit(
    h: HurstPair,
    f: WeightFunction,
    t: tuple[float, float],
    n: int,
    M: int,
    seed: int,
    coarse: int | None = None,
) -> list[VerifyReport]:
    """MC second moment of X^n_t vs the limiting value from the covariance series.

    Reference: sigma^2 * int_0^{t1} int_0^{t2} E[f^2(W(u,v))] du dv, the inner
    expectation by the closed form f.m_closed, the integral by Gauss-Legendre.

    Returns one record at n, or with a ``coarse`` size 1 <= coarse < n the
    records at coarse and at n, from one pass of draws at n and judged as
    _records says. A record passes if its gap is within 4 SE plus its slack;
    the record at n of two instead carries ``relative_gap`` and passes if
    that is at most 0.15 and the gap shrinks.
    """
    _check_sizes(n, coarse)
    sig2 = sigma_of(h, 1e-10) ** 2
    samples = qv_point_samples(h, f, n, M, seed, [t], coarse=coarse)

    def integrand(u, v):
        var = u ** (2.0 * h.alpha) * v ** (2.0 * h.beta)
        return np.vectorize(lambda vv: float(f.m_closed(vv)))(var)

    ref = sig2 * gauss_legendre_2d(integrand, t[0], t[1])

    def record(g, slack, last):
        sq = samples[g][0][:, 0] ** 2
        est = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(M))
        extra = {"gap": abs(est - ref)}
        passed = extra["gap"] <= 4.0 * se + slack
        if last:
            extra["relative_gap"] = extra["gap"] / abs(ref)
            passed = extra["relative_gap"] <= 0.15
        return VerifyReport(
            test="second_moment_limit",
            params={
                "alpha": h.alpha, "beta": h.beta, "f": f.kind, "t": list(t), "n": g, "M": M, "seed": seed,
            },
            estimate=est,
            se=se,
            reference=ref,
            provenance="series + quadrature",
            passed=passed,
            extra=extra,
        )

    return _records(record, n, coarse)


# ---------------------------------------------------------------------------
# conditional covariance and characteristic functions


def _q_quadform_samples(h, f, n, M, seed, points, functional=None, coarse=None):
    """The reference side's sums over the independent replications M .. 2M-1.

    Returns a dict from each grid size g (n, and ``coarse`` as in
    qv_point_samples) to its (sums, Z). ``sums`` (M, P^2) holds, for every
    ordered pair of the P points in row-major order, the unscaled sum of f^2
    at the lower-left nodes of the cells below both points, those of the
    corner (min i, min j); times sigma^2 / g^2 it is the Riemann sum of the
    conditional covariance Q. Z is as in _grid_pass.
    """
    # _point_indices is monotone, so a pair's corner (min i, min j) is that of its coordinatewise min
    corners = [tuple(map(min, p, q)) for p in points for q in points]
    cells = lambda _, nodes: f.func(nodes[..., :-1, :-1]) ** 2
    return _grid_pass(h, n, seed, M, corners, cells, functional, rep_offset=M, coarse=coarse)


def bootstrap_se(build, sizes, M: int, dtype, seed: int) -> dict:
    """Per grid size g in ``sizes``, the column means of ``build(g)`` (M, L) and their bootstrap SE.

    Deterministic given ``seed``; complex columns get the quadrature-combined
    SE of real and imaginary parts. The seed's _BOOT_RESAMPLES weights are
    drawn first, in the dtype the product ``weights @ columns`` computes in
    (that of ``dtype`` and float64), so it casts nothing, from multinomial
    draws of about 1 MiB of counts at a time: consecutive draws of k rows
    from one generator give the rows of one draw of them all. Then each
    grid's columns are built, resampled and dropped before the next grid's
    are built, so the weights share memory with one block of counts or one
    grid's columns.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, PURPOSE_BOOT)))
    pvals = np.full(M, 1.0 / M)
    weights = np.empty((_BOOT_RESAMPLES, M), np.result_type(np.float64, dtype))
    block = max(1, (1 << 20) // (8 * M))
    for start in range(0, _BOOT_RESAMPLES, block):
        rows = weights[start : start + block]
        np.divide(rng.multinomial(M, pvals, size=rows.shape[0]), M, out=rows)
    out = {}
    for g in sizes:
        v = build(g)
        means = weights @ v
        if np.iscomplexobj(v):
            se = np.sqrt(means.real.var(axis=0, ddof=1) + means.imag.var(axis=0, ddof=1))
        else:
            se = means.std(axis=0, ddof=1)
        out[g] = v.mean(axis=0), se
        del v  # before the next grid's columns are built
    return out


def lambda_product_grid(m: int, per_coord=DEFAULT_LAMBDAS) -> np.ndarray:
    """Cartesian product grid of lambda vectors, shape (len(per_coord)^m, m)."""
    grids = np.meshgrid(*([np.asarray(per_coord)] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _conditional_check(
    test, params, provenance, h, f, points, functional, sample, reference, n, M, seed, coarse
) -> list[VerifyReport]:
    """Records of a sample side and a reference side that should agree, judged as _records says.

    Checks the sizes, computes sigma, then draws each side: ``sample(xs, z)`` and
    ``reference(sums, z, g, sigma)`` map a grid's qv_point_samples and _q_quadform_samples
    to (M, L) complex and real values, whose column means are bootstrapped under ``seed`` and ``seed + 1``.
    A record passes iff |left - right| <= 4 * combined SE + slack on every column.
    """
    _check_sizes(n, coarse)
    sigma_val = sigma_of(h, 1e-10)
    samples = qv_point_samples(h, f, n, M, seed, points, sheet_functional=functional, coarse=coarse)
    left = bootstrap_se(lambda g: sample(*samples[g]), samples, M, complex, seed)
    refs = _q_quadform_samples(h, f, n, M, seed, points, functional, coarse)
    right = bootstrap_se(lambda g: reference(*refs[g], g, sigma_val), refs, M, float, seed + 1)

    def record(g, slack, _):
        (lm, lse), (rm, rse) = left[g], right[g]
        diff = np.abs(lm - rm)
        combined = np.sqrt(lse**2 + rse**2)
        excess = diff - 4.0 * combined
        sup_i = int(np.argmax(diff))
        return VerifyReport(
            test=test,
            params={**params, "n": g, "M": M, "seed": seed},
            estimate=float(diff[sup_i]),
            se=float(combined[sup_i]),
            reference=0.0,
            provenance=provenance,
            passed=bool(np.all(excess <= slack)),
            extra={"sup_diff": float(diff.max()), "max_excess": float(excess.max())},
        )

    return _records(record, n, coarse)


def charfn_compare(
    h: HurstPair,
    f: WeightFunction,
    points,
    lambdas: np.ndarray,
    n: int,
    M: int,
    seed: int,
    coarse: int | None = None,
) -> list[VerifyReport]:
    """Empirical characteristic function of the statistic vs the closed form.

    The reference E[exp(-1/2 lam' Q lam)] is averaged over an independent set
    of sheet samples (replication indices offset by M). Pass rule: for every
    lambda on the grid, |empirical - reference| <= 4 * combined SE + slack.
    ``coarse`` and the records as in second_moment_limit.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 1:
        lam = lam[:, None]
    if np.abs(lam).max() > MAX_CHARFN_LAMBDA:
        raise InputError(f"lambda grid must satisfy |lambda| <= {MAX_CHARFN_LAMBDA:g} per coordinate")

    def quadform(sums, _, g, sigma_val):
        # exp(-1/2 lam' Q lam) per replication, in place in one (M, L) array
        p = len(points)
        q = np.einsum("la,rab,lb->rl", lam, sums.reshape(M, p, p) * (sigma_val**2 / (g * g)), lam)
        q *= -0.5
        return np.exp(q, out=q)

    params = {"alpha": h.alpha, "beta": h.beta, "f": f.kind, "points": [list(p) for p in points]}
    return _conditional_check(
        "charfn_compare", params, "closed-form conditional charfn over independent sheet MC",
        h, f, points, None, lambda xs, _: np.exp(q := 1j * xs @ lam.T, out=q), quadform, n, M, seed, coarse,
    )


# the bounded sheet functionals Z of stable_convergence_check, by name
Z_KINDS = {
    "cos_corner": lambda nodes: np.cos(nodes[:, -1, -1]),
    "indicator_center": lambda nodes: (nodes[:, nodes.shape[1] // 2, nodes.shape[2] // 2] > 0).astype(float),
}


def stable_convergence_check(
    h: HurstPair,
    f: WeightFunction,
    t: tuple[float, float],
    z_kind: str,
    lambdas,
    n: int,
    M: int,
    seed: int,
    coarse: int | None = None,
) -> list[VerifyReport]:
    """Test E[exp(i lam X^n_t) Z] against the conditional-Gaussian identity.

    Z is a bounded functional of the sheet; the right side is
    E[Z exp(-1/2 lam^2 sigma^2 int_{[0,t]} f^2(W))] over independent sheet
    samples. At lam = 0 both sides estimate E[Z]. Pass rule as in
    charfn_compare; ``coarse`` and the records as in second_moment_limit.
    """
    if z_kind not in Z_KINDS:
        raise InputError(f"unknown Z kind {z_kind!r}")
    lam = np.asarray(lambdas, dtype=float).ravel()
    sample = lambda xs, z: z[:, None] * np.exp(1j * np.outer(xs[:, 0], lam))
    reference = lambda sums, z, g, sigma_val: z[:, None] * np.exp(
        -0.5 * np.outer(sums[:, 0] / (g * g), lam**2) * sigma_val**2
    )
    params = {"alpha": h.alpha, "beta": h.beta, "f": f.kind, "t": list(t), "Z": z_kind}
    return _conditional_check(
        "stable_convergence", params, "conditional-Gaussian identity over independent sheet MC",
        h, f, [t], Z_KINDS[z_kind], sample, reference, n, M, seed, coarse,
    )


# ---------------------------------------------------------------------------
# kernel property suite (randomized oracle equivalence)


def _random_admissible_arrays(rng, size):
    """Arrays of admissible (alpha, beta) pairs by rejection sampling."""
    alphas = np.empty(size)
    betas = np.empty(size)
    filled = 0
    while filled < size:
        a = rng.uniform(0.05, 0.49, size - filled)
        b = rng.uniform(0.05, 0.49, size - filled)
        ok = a + b > 0.5
        cnt = int(ok.sum())
        alphas[filled : filled + cnt] = a[ok]
        betas[filled : filled + cnt] = b[ok]
        filled += cnt
    return alphas, betas


def _k_arr(gamma, s1, s2):
    p = lambda x: np.abs(x) ** (2.0 * gamma)
    return 0.5 * (p(s1) + p(s2) - p(s1 - s2))


def _axis_incr_cov(gamma, n, a, b):
    # E[(B(a/n) - B((a-1)/n)) (B(b/n) - B((b-1)/n))] from the 1D kernel
    return (
        _k_arr(gamma, a / n, b / n)
        - _k_arr(gamma, a / n, (b - 1) / n)
        - _k_arr(gamma, (a - 1) / n, b / n)
        + _k_arr(gamma, (a - 1) / n, (b - 1) / n)
    )


def _axis_point_incr(gamma, n, p, b):
    # E[B(p) (B(b/n) - B((b-1)/n))]
    return _k_arr(gamma, p, b / n) - _k_arr(gamma, p, (b - 1) / n)


# Cases whose kernel values are formed at once: each temporary is 64 KiB.
_CASE_BLOCK = 8192


def _oracle_pairs(alphas, betas, ns, ii, jj, kk, ll):
    """(direct, oracle) values of incr_cov and of delta_incr_inner, case by case.

    The oracle is the signed 16-term cov_point expansion, factorized per axis
    into 4 signed kernel terms. Every operation is elementwise, so a block of
    cases gets the values the whole arrays would.
    """
    from .kernel import delta_incr_inner, incr_cov

    h = HurstPair(alphas, betas)
    return (
        incr_cov(h, ns, ii, jj, kk, ll),
        _axis_incr_cov(alphas, ns, ii, kk) * _axis_incr_cov(betas, ns, jj, ll),
        delta_incr_inner(h, ns, kk, ll, ii, jj),
        _axis_point_incr(alphas, ns, (kk - 1) / ns, ii)
        * _axis_point_incr(betas, ns, (ll - 1) / ns, jj),
    )


def _rect_bound_sides(a2, b2, s1, t1, s2, t2, l1, l2):
    """|point/rectangle covariance| and its bound |t1-s1|^{2a} |t2-s2|^{2b}, case by case."""
    vals = np.abs(
        (_k_arr(a2, l1, t1) - _k_arr(a2, l1, s1)) * (_k_arr(b2, l2, t2) - _k_arr(b2, l2, s2))
    )
    return vals, np.abs(t1 - s1) ** (2 * a2) * np.abs(t2 - s2) ** (2 * b2)


def _worst_oracle_gaps(rng, cases):
    """Largest |direct - oracle| of both oracle checks over ``cases`` drawn cases.

    A NaN anywhere is the result, as with one ``max`` over all cases.
    """
    alphas, betas = _random_admissible_arrays(rng, cases)
    ns = rng.integers(2, 33, cases)
    ii, jj, kk, ll = (rng.integers(1, ns + 1) for _ in range(4))
    gaps = []
    for lo in range(0, cases, _CASE_BLOCK):
        b = slice(lo, lo + _CASE_BLOCK)
        d_incr, o_incr, d_delta, o_delta = _oracle_pairs(
            alphas[b], betas[b], ns[b], ii[b], jj[b], kk[b], ll[b]
        )
        gaps.append((np.abs(d_incr - o_incr).max(), np.abs(d_delta - o_delta).max()))
    return np.maximum.reduce(gaps)


def _rect_bound_violations(rng, cases):
    """How many of ``cases`` drawn rectangles break the covariance bound."""
    a2, b2 = _random_admissible_arrays(rng, cases)
    s1, t1 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    s2, t2 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    l1, l2 = rng.uniform(0.0, 1.0, (2, cases))
    violations = 0
    for lo in range(0, cases, _CASE_BLOCK):
        b = slice(lo, lo + _CASE_BLOCK)
        vals, bounds = _rect_bound_sides(a2[b], b2[b], s1[b], t1[b], s2[b], t2[b], l1[b], l2[b])
        violations += int(np.sum(vals > bounds + 1e-12))
    return violations


def kernel_property_suite(cases: int, seed: int) -> list[VerifyReport]:
    """Randomized oracle-equivalence and bound checks on the kernel module.

    Three reports: increment covariance vs its signed cov_point expansion,
    the corner-rectangle inner product vs the same oracle, and the
    |t1-s1|^{2a} |t2-s2|^{2b} bound on point/rectangle covariances in the
    admissible regime. The kernel functions under test are called once per
    block of _CASE_BLOCK cases. The oracle side is a vectorized
    tensor-product expansion independent of the lag-based path it checks.
    The oracle checks' cases are drawn and checked first, then the bound
    check's, so one check's drawn cases are held at a time.
    """
    if cases < 1:
        raise InputError(f"the kernel suite needs at least 1 case, got {cases}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 3)))
    worst_incr, worst_delta = map(float, _worst_oracle_gaps(rng, cases))
    violations = _rect_bound_violations(rng, cases)

    params = {"cases": cases, "seed": seed}
    oracle = "signed cov_point expansion"
    checks = [
        ("incr_cov_oracle_equivalence", worst_incr, oracle, worst_incr <= 1e-10),
        ("delta_incr_inner_oracle_equivalence", worst_delta, oracle, worst_delta <= 1e-10),
        ("point_rect_cov_bound", float(violations), "exact kernel formula", violations == 0),
    ]
    return [
        VerifyReport(test=t, params=params, estimate=e, se=0.0, reference=0.0, provenance=p, passed=ok)
        for t, e, p, ok in checks
    ]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, 2 sum (-1)^{k-1} e^{-2k^2x^2}."""
    if x <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * x * x)
        total += sign * term
        sign = -sign
        if term < 1e-16:
            break
    return min(max(2.0 * total, 0.0), 1.0)


def _ks_sample_size(m: int) -> None:
    # the p-value is asymptotic
    if m < 100:
        raise InputError(f"the KS test needs at least 100 samples, got {m}")


def ks_normality(samples, mean: float, sd: float) -> tuple[float, float]:
    """One-sample KS statistic against N(mean, sd^2) with asymptotic p-value."""
    if sd <= 0.0:
        raise InputError("sd must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    _ks_sample_size(m)
    cdf = _std_normal_cdf((x - mean) / sd)
    i = np.arange(1, m + 1)
    d = max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m))
    return float(d), kolmogorov_sf(math.sqrt(m) * d)


def ks_check(h: HurstPair, n: int, M: int, seed: int) -> list[VerifyReport]:
    """KS test of the f == 1 statistic at (1, 1) against N(0, its exact finite-n variance).

    f == 1 is the only weight whose variance exact_qv_variance gives, so the
    check takes no weight. Passes if the asymptotic p-value exceeds 1e-3; needs M >= 100,
    which is checked before any draw.
    """
    _ks_sample_size(M)
    xs, _ = qv_point_samples(h, weight("constant_one"), n, M, seed, [(1.0, 1.0)])[n]
    var = exact_qv_variance(h, n)
    stat, p = ks_normality(xs[:, 0], 0.0, np.sqrt(var))
    return [VerifyReport(
        test="ks_normality",
        params={"alpha": h.alpha, "beta": h.beta, "f": "constant_one", "n": n, "M": M, "seed": seed},
        estimate=stat, se=0.0, reference=var,
        provenance="exact kernel-sum finite-n variance",
        passed=p > 1e-3,
        extra={"p_value": p},
    )]
