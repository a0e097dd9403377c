"""Monte Carlo verification of the mixed-Gaussian limit theorem.

Every check compares a Monte Carlo estimate (always reported with a standard
error) against a reference value whose provenance is recorded: an exact
kernel-sum formula, quadrature, or the limiting-constant series. Limit
statements have no rate attached, so limit checks are run at two grid sizes
and must both shrink toward the reference and meet an absolute tolerance at
the larger one; the recorded small-n gap is the "slack" added to the 4-sigma
rule.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fieldsim import PURPOSE_SHEET, factor_1d, prefix_nodes, standard_normals
from .fieldsim import replication_rng  # noqa: F401  (perfbench.layers patches this name)
from .kernel import HurstPair, rho
from .qv import WeightFunction, d2_mean_at, moment_m, summands
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


def exact_mean(h: HurstPair, f: WeightFunction, n: int, t: tuple[float, float]) -> float:
    """Exact (quadrature-accurate) finite-n mean of the statistic at t.

    E[X^n_t] = n^{2(a+b)-1} sum_{k,l} E[f''(W at lower-left node)] * inner^2,
    where inner is the corner-rectangle/cell inner product; it factorizes
    across the two axes. Identically zero whenever f'' == 0.
    """
    n1, n2 = int(np.floor(n * t[0])), int(np.floor(n * t[1]))
    if n1 == 0 or n2 == 0:
        return 0.0
    da = _corner_inner_1d(h.alpha, n1, n)
    db = _corner_inner_1d(h.beta, n2, n)
    inner_sq = np.outer(da * da, db * db)
    va = ((np.arange(1, n1 + 1) - 1.0) / n) ** (2.0 * h.alpha)
    vb = ((np.arange(1, n2 + 1) - 1.0) / n) ** (2.0 * h.beta)
    v = np.outer(va, vb)
    if f.d2_mean is not None:  # closed forms take arrays; broadcast constants
        e2 = np.broadcast_to(np.asarray(f.d2_mean(v), dtype=float), v.shape)
    else:
        e2 = np.vectorize(lambda vv: d2_mean_at(f, vv))(v)
    scale = float(n) ** (2.0 * (h.alpha + h.beta) - 1.0)
    return float(scale * np.sum(e2 * inner_sq))


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
        raise ValueError("n_list must be strictly increasing with >= 2 values")
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


def _rep_bytes(n: int, method: str) -> int:
    """Bytes one replication holds while its chunk is in flight.

    The draws Z, the half product F_alpha Z, and six cell-sized arrays: the
    increments, the nodes and the temporaries of a chunk's work.
    """
    m = n if method == "cholesky" else 2 * n
    return 8 * (m * m + n * m + 6 * (n + 1) ** 2)


def _chunk_reps(n: int, method: str) -> int:
    """Replications per chunk so that three chunks fit _CHUNK_BUDGET (at least 1).

    Three are in flight at most: the worker's, one drawn and waiting for it,
    and the one the calling thread finishes itself.
    """
    return max(1, _CHUNK_BUDGET // (3 * _rep_bytes(n, method)))


def _node_chunks(h, n, seed, M, work, rep_offset=0, purpose=PURPOSE_SHEET, method="cholesky"):
    """Run ``work(inc, nodes, rows)`` over replications rep_offset .. rep_offset+M-1 in chunks.

    ``work`` gets a chunk's increments (size, n, n), its nodes (size, n+1, n+1)
    and the slice of 0 .. M-1 they belong to, and writes its results into
    those rows of the caller's preallocated outputs.

    The calling thread draws every chunk (building the streams holds the GIL)
    and queues it for the one worker thread, which forms the products, the
    prefix sums and ``work``. When the worker has two unfinished chunks, the
    calling thread finishes the chunk itself instead, so it never waits for
    the worker before the end. ``work`` may thus run on either thread and must
    touch no shared state but its own rows. The stream contract makes every
    chunk size and every split between the threads give the same bits.

    Each thread writes its chunks' products and nodes into its own set of
    buffers. With fresh arrays per chunk (about 0.5 MB each at n = 64) glibc
    returned their pages and faulted them in again for every chunk.
    """
    from concurrent.futures import ThreadPoolExecutor  # only the Monte Carlo suites need it

    fa = factor_1d(h.alpha, n, method)
    fb = factor_1d(h.beta, n, method)
    shape = (fa.shape[1], fb.shape[1])
    size = _chunk_reps(n, method)
    reps = min(size, M)

    def buffers():
        return np.empty((reps, n, shape[1])), np.empty((reps, n, n)), np.zeros((reps, n + 1, n + 1))

    def finish(z, bufs, chunk):
        half, inc, nodes = (b[: z.shape[0]] for b in bufs)
        np.matmul(fa, z, out=half)
        np.matmul(half, fb.T, out=inc)
        work(inc, prefix_nodes(inc, out=nodes), chunk)

    own, lent = buffers(), buffers()
    pending = deque()  # the worker's unfinished chunks, in order
    with ThreadPoolExecutor(1) as pool:
        for start in range(0, M, size):
            chunk = slice(start, min(start + size, M))
            z = standard_normals(seed, rep_offset + start, chunk.stop - start, purpose, shape)
            while pending and pending[0].done():
                pending.popleft().result()  # raises what the worker raised
            if len(pending) < 2:
                pending.append(pool.submit(finish, z, lent, chunk))
            else:
                finish(z, own, chunk)
        for future in pending:
            future.result()


def _point_indices(n: int, points) -> np.ndarray:
    return np.array(
        [[min(int(np.floor(n * p[0])), n), min(int(np.floor(n * p[1])), n)] for p in points]
    )


def _corner_sums(a: np.ndarray, idx) -> np.ndarray:
    """Sums of a[..., :i, :j] for each (i, j) in idx, shape (..., len(idx)).

    Adds down the columns, then along only the needed row prefix, so each
    value is bit-identical to a full double cumsum read at (i-1, j-1); a
    pairwise ``.sum()`` would round differently.
    """
    cols = a.cumsum(axis=-2)
    out = np.zeros(a.shape[:-2] + (len(idx),))
    for p, (i, j) in enumerate(idx):
        if i and j:
            out[..., p] = cols[..., i - 1, :j].cumsum(axis=-1)[..., -1]
    return out


def _f2_sums(f: WeightFunction, nodes: np.ndarray, idx) -> np.ndarray:
    """Unscaled conditional variances: sums of f^2(lower-left node) per corner in idx."""
    return _corner_sums(f.func(nodes[..., :-1, :-1]) ** 2, idx)


def _pair_indices(idx: np.ndarray) -> np.ndarray:
    """Corner (min i, min j) of every ordered pair of points, row-major."""
    return np.minimum(idx[:, None, :], idx[None, :, :]).reshape(-1, 2)


def qv_point_samples(
    h: HurstPair,
    f: WeightFunction,
    n: int,
    M: int,
    seed: int,
    points,
    rep_offset: int = 0,
    sheet_functional=None,
    method: str = "cholesky",
):
    """Monte Carlo samples of the statistic at the given time points.

    Returns (X, Z) where X has shape (M, m). Z collects per-replication
    sheet functionals when ``sheet_functional`` (nodes -> (size,) array) is
    given, else None. ``sheet_functional`` runs one chunk of replications at
    a time, on the calling thread or on a worker thread, so it must not touch
    state shared with the caller.
    """
    idx = _point_indices(n, points)
    xs = np.empty((M, len(points)))
    zs = np.empty(M) if sheet_functional is not None else None

    def work(inc, nodes, rows):
        xs[rows] = _corner_sums(summands(h, nodes, inc, f), idx) / n
        if zs is not None:
            zs[rows] = sheet_functional(nodes)

    _node_chunks(h, n, seed, M, work, rep_offset=rep_offset, method=method)
    return xs, zs


# ---------------------------------------------------------------------------
# second moment


def second_moment_limit(
    h: HurstPair,
    f: WeightFunction,
    t: tuple[float, float],
    n: int,
    M: int,
    seed: int,
    slack: float = 0.0,
) -> VerifyReport:
    """MC second moment of X^n_t vs the limiting value from the covariance series.

    Reference: sigma^2 * int_0^{t1} int_0^{t2} E[f^2(W(u,v))] du dv with the
    inner expectation by closed form or Gauss-Hermite quadrature.
    """
    xs, _ = qv_point_samples(h, f, n, M, seed, [t])
    sq = xs[:, 0] ** 2
    est = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(M))
    sig2 = sigma_of(h, 1e-10) ** 2

    def integrand(u, v):
        var = u ** (2.0 * h.alpha) * v ** (2.0 * h.beta)
        return np.vectorize(lambda vv: moment_m(f, vv))(var)

    ref = sig2 * gauss_legendre_2d(integrand, t[0], t[1])
    return VerifyReport(
        test="second_moment_limit",
        params={"alpha": h.alpha, "beta": h.beta, "f": f.kind, "t": list(t), "n": n, "M": M, "seed": seed},
        estimate=est,
        se=se,
        reference=ref,
        provenance="series + quadrature",
        passed=abs(est - ref) <= 4.0 * se + slack,
        extra={"gap": abs(est - ref)},
    )


# ---------------------------------------------------------------------------
# conditional covariance and characteristic functions


def build_Q(field, f: WeightFunction, sigma_val: float, points) -> np.ndarray:
    """Riemann-sum conditional covariance matrix on the field's grid."""
    n = field.n
    m = len(points)
    mat = _f2_sums(f, field.values, _pair_indices(_point_indices(n, points))).reshape(m, m)
    mat *= sigma_val**2 / (n * n)
    return mat


def _q_quadform_samples(h, f, n, M, seed, rep_offset, points, sigma_val, lambdas):
    """Per-replication exp(-1/2 lam' Q lam) over independent sheet samples."""
    pairs = _pair_indices(_point_indices(n, points))
    m = len(points)
    lam = np.asarray(lambdas)  # (L, m)

    out = np.empty((M, lam.shape[0]))

    def work(_, nodes, rows):
        q = _f2_sums(f, nodes, pairs).reshape(nodes.shape[0], m, m)
        q *= sigma_val**2 / (n * n)
        out[rows] = np.exp(-0.5 * np.einsum("la,rab,lb->rl", lam, q, lam))

    _node_chunks(h, n, seed, M, work, rep_offset=rep_offset)
    return out


def bootstrap_se(values: np.ndarray, seed: int, resamples: int = _BOOT_RESAMPLES) -> np.ndarray:
    """Bootstrap standard error of the column means of ``values`` (M, K).

    Deterministic given ``seed``; complex input gets the quadrature-combined
    SE of real and imaginary parts.
    """
    m = values.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, PURPOSE_BOOT)))
    weights = rng.multinomial(m, np.full(m, 1.0 / m), size=resamples) / m
    means = weights @ values.reshape(m, -1)
    if np.iscomplexobj(values):
        se = np.sqrt(means.real.var(axis=0, ddof=1) + means.imag.var(axis=0, ddof=1))
    else:
        se = means.std(axis=0, ddof=1)
    return se.reshape(values.shape[1:])


def lambda_product_grid(m: int, per_coord=DEFAULT_LAMBDAS) -> np.ndarray:
    """Cartesian product grid of lambda vectors, shape (len(per_coord)^m, m)."""
    grids = np.meshgrid(*([np.asarray(per_coord)] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _sup_diff_report(test, params, provenance, left, left_se, right, right_se, slack) -> VerifyReport:
    """Pass iff |left - right| <= 4 * combined SE + slack on every lambda; report the sup."""
    diff = np.abs(left - right)
    combined = np.sqrt(left_se**2 + right_se**2)
    excess = diff - 4.0 * combined
    sup_i = int(np.argmax(diff))
    return VerifyReport(
        test=test,
        params=params,
        estimate=float(diff[sup_i]),
        se=float(combined[sup_i]),
        reference=0.0,
        provenance=provenance,
        passed=bool(np.all(excess <= slack)),
        extra={"sup_diff": float(diff.max()), "max_excess": float(excess.max())},
    )


def charfn_compare(
    h: HurstPair,
    f: WeightFunction,
    points,
    lambdas: np.ndarray,
    n: int,
    M: int,
    seed: int,
    slack: float = 0.0,
) -> VerifyReport:
    """Empirical characteristic function of the statistic vs the closed form.

    The reference E[exp(-1/2 lam' Q lam)] is averaged over an independent set
    of sheet samples (replication indices offset by M). Pass rule: for every
    lambda on the grid, |empirical - reference| <= 4 * combined SE + slack.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 1:
        lam = lam[:, None]
    if np.abs(lam).max() > MAX_CHARFN_LAMBDA:
        raise ValueError(f"lambda grid must satisfy |lambda| <= {MAX_CHARFN_LAMBDA:g} per coordinate")
    sigma_val = sigma_of(h, 1e-10)

    xs, _ = qv_point_samples(h, f, n, M, seed, points)
    emp_samples = np.exp(1j * xs @ lam.T)  # (M, L)
    emp = emp_samples.mean(axis=0)
    emp_se = bootstrap_se(emp_samples, seed)

    ref_samples = _q_quadform_samples(h, f, n, M, seed, M, points, sigma_val, lam)
    ref = ref_samples.mean(axis=0)
    ref_se = bootstrap_se(ref_samples, seed + 1)

    params = {
        "alpha": h.alpha, "beta": h.beta, "f": f.kind,
        "points": [list(p) for p in points], "n": n, "M": M, "seed": seed,
    }
    return _sup_diff_report(
        "charfn_compare", params, "closed-form conditional charfn over independent sheet MC",
        emp, emp_se, ref, ref_se, slack,
    )


def stable_convergence_check(
    h: HurstPair,
    f: WeightFunction,
    t: tuple[float, float],
    z_kind: str,
    lambdas,
    n: int,
    M: int,
    seed: int,
    slack: float = 0.0,
) -> VerifyReport:
    """Test E[exp(i lam X^n_t) Z] against the conditional-Gaussian identity.

    Z is a bounded functional of the sheet; the right side is
    E[Z exp(-1/2 lam^2 sigma^2 int_{[0,t]} f^2(W))] over independent sheet
    samples. At lam = 0 both sides estimate E[Z].
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    sigma_val = sigma_of(h, 1e-10)

    if z_kind == "cos_corner":
        functional = lambda nodes: np.cos(nodes[:, -1, -1])
    elif z_kind == "indicator_center":
        functional = lambda nodes: (nodes[:, nodes.shape[1] // 2, nodes.shape[2] // 2] > 0).astype(float)
    else:
        raise ValueError(f"unknown Z kind {z_kind!r}")

    xs, z = qv_point_samples(h, f, n, M, seed, [t], sheet_functional=functional)
    left_samples = z[:, None] * np.exp(1j * np.outer(xs[:, 0], lam))
    left = left_samples.mean(axis=0)
    left_se = bootstrap_se(left_samples, seed)

    idx = _point_indices(n, [t])
    zr = np.empty(M)
    vr = np.empty(M)

    def work(_, nodes, rows):
        zr[rows] = functional(nodes)
        vr[rows] = _f2_sums(f, nodes, idx)[:, 0] / (n * n)

    _node_chunks(h, n, seed, M, work, rep_offset=M)
    right_samples = zr[:, None] * np.exp(-0.5 * np.outer(vr, lam**2) * sigma_val**2)
    right = right_samples.mean(axis=0)
    right_se = bootstrap_se(right_samples, seed + 1)

    params = {
        "alpha": h.alpha, "beta": h.beta, "f": f.kind, "t": list(t),
        "Z": z_kind, "n": n, "M": M, "seed": seed,
    }
    return _sup_diff_report(
        "stable_convergence", params, "conditional-Gaussian identity over independent sheet MC",
        left, left_se, right, right_se, slack,
    )


# ---------------------------------------------------------------------------
# kernel property suite (randomized oracle equivalence)


def incr_cov_oracle(h: HurstPair, n: int, i: int, j: int, k: int, l: int) -> float:
    """Brute-force 16-term expansion of the increment covariance via cov_point."""
    from .kernel import cov_point

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


def kernel_property_suite(cases: int, seed: int) -> list[VerifyReport]:
    """Randomized oracle-equivalence and bound checks on the kernel module.

    Three reports: increment covariance vs its signed cov_point expansion,
    the corner-rectangle inner product vs the same oracle, and the
    |t1-s1|^{2a} |t2-s2|^{2b} bound on point/rectangle covariances in the
    admissible regime. The kernel functions under test are called once each,
    on arrays holding every case. The oracle side is a vectorized
    tensor-product expansion independent of the lag-based path it checks.
    """
    from .kernel import delta_incr_inner, incr_cov

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 3)))
    alphas, betas = _random_admissible_arrays(rng, cases)
    ns = rng.integers(2, 33, cases)
    ii, jj, kk, ll = (rng.integers(1, ns + 1) for _ in range(4))

    # signed 16-term expansion, factorized per axis into 4 signed kernel terms
    def axis_incr_cov(gamma, n, a, b):
        # E[(B(a/n) - B((a-1)/n)) (B(b/n) - B((b-1)/n))] from the 1D kernel
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
        # E[B(p) (B(b/n) - B((b-1)/n))]
        return _k_arr(gamma, p, b / n) - _k_arr(gamma, p, (b - 1) / n)

    oracle_delta = axis_point_incr(alphas, ns, (kk - 1) / ns, ii) * axis_point_incr(
        betas, ns, (ll - 1) / ns, jj
    )
    direct_delta = delta_incr_inner(h, ns, kk, ll, ii, jj)
    worst_delta = float(np.abs(direct_delta - oracle_delta).max())

    # Lemma-style bound on randomized continuous rectangles
    a2, b2 = _random_admissible_arrays(rng, cases)
    s1, t1 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    s2, t2 = np.sort(rng.uniform(0.0, 1.0, (2, cases)), axis=0)
    l1, l2 = rng.uniform(0.0, 1.0, (2, cases))
    vals = np.abs(
        (_k_arr(a2, l1, t1) - _k_arr(a2, l1, s1)) * (_k_arr(b2, l2, t2) - _k_arr(b2, l2, s2))
    )
    bounds = np.abs(t1 - s1) ** (2 * a2) * np.abs(t2 - s2) ** (2 * b2)
    violations = int(np.sum(vals > bounds + 1e-12))

    params = {"cases": cases, "seed": seed}
    return [
        VerifyReport(
            test="incr_cov_oracle_equivalence", params=params,
            estimate=worst_incr, se=0.0, reference=0.0,
            provenance="signed cov_point expansion",
            passed=worst_incr <= 1e-10,
        ),
        VerifyReport(
            test="delta_incr_inner_oracle_equivalence", params=params,
            estimate=worst_delta, se=0.0, reference=0.0,
            provenance="signed cov_point expansion",
            passed=worst_delta <= 1e-10,
        ),
        VerifyReport(
            test="point_rect_cov_bound", params=params,
            estimate=float(violations), se=0.0, reference=0.0,
            provenance="exact kernel formula",
            passed=violations == 0,
        ),
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


def ks_normality(samples, mean: float, sd: float) -> tuple[float, float]:
    """One-sample KS statistic against N(mean, sd^2) with asymptotic p-value."""
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    m = len(x)
    if m < 100:
        raise ValueError("need at least 100 samples")
    cdf = _std_normal_cdf((x - mean) / sd)
    i = np.arange(1, m + 1)
    d = max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m))
    return float(d), kolmogorov_sf(math.sqrt(m) * d)
