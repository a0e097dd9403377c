"""Exact grid simulation of the fractional Brownian sheet.

The cell-increment field of the sheet on a regular n x n grid is a
stationary Gaussian matrix whose covariance is the Kronecker product
M^alpha (x) M^beta of two 1D fractional-noise covariance matrices
M^g[i,k] = n^{-2g} rho_g(k-i) / 2. We therefore sample it exactly as

    Delta = F_alpha @ Z @ F_beta.T,    Z iid standard normal,

where F_g is any real matrix with F_g F_g^T = M^g. Two factorizations are
provided: dense Cholesky (always works) and circulant embedding of the
stationary covariance into size 2n (fails loudly if the embedding spectrum
goes negative, which does not happen for this covariance family). Node
values are recovered by 2D prefix summation; the sheet vanishes on the axes.

Memory: sampling one field holds at most three large arrays at once, the
draws Z (m x m, m = n or 2n) with F_alpha and the half product F_alpha Z
(n x m each). For the circulant method that is 256 MiB at n = 2048 and
1 GiB at n = 4096.

Reproducibility contract: replication r of a sample with a given purpose
draws from the generator that ``replication_rng(seed, r, purpose)``
returns. Identical (seed, replication, purpose) give identical fields no
matter how replications are scheduled across workers. The draws fill
their array in order, so the first k normals of a stream are the same
whatever shape it fills: the (m_c, m_c) draws of a coarser grid are the
first m_c^2 normals of the (m, m) draws of a finer one, and one draw
serves both. The contract covers the draws, not the factors: a Cholesky
factor's bits depend on the numpy/BLAS build and its thread count (they
differ between one and two OpenBLAS threads at n = 1024), so Cholesky
fields are reproducible only for a fixed build and thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .kernel import HurstPair, InputError, rho_range

PURPOSE_SHEET = 0

# Z, F_alpha and F_alpha Z are dense: 1 GiB for circulant at 4096, 4 GiB at the next doubling
_MAX_N = 4096

_MAGIC = b"FBSH"
_HURST_SCALE = 10**9  # header stores alpha, beta as nanounits


class CirculantEmbeddingError(RuntimeError):
    """The even extension of the covariance is not positive semidefinite."""


def replication_rng(seed: int, replication: int = 0, purpose: int = PURPOSE_SHEET) -> np.random.Generator:
    """The generator of one (replication, purpose) pair under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replication, purpose)))


@dataclass
class IncrementField:
    """n x n matrix of rectangular cell increments of the sheet."""

    n: int
    values: np.ndarray
    hurst: HurstPair


@dataclass
class GridField:
    """(n+1) x (n+1) matrix of node values W(i/n, j/n); zero on the axes."""

    n: int
    values: np.ndarray
    hurst: HurstPair


def _window_rows(v: np.ndarray, width: int, starts: slice) -> np.ndarray:
    """Rows v[s : s + width] for the window starts ``range(len(v) - width + 1)[starts]``.

    The entries are copied, not recomputed, into a C-contiguous array: a
    negative-stride view handed to ``@`` may take another BLAS path and
    change the bits of the product.
    """
    return np.lib.stride_tricks.sliding_window_view(v, width)[starts].copy()


def increment_cov_1d(gamma: float, n: int) -> np.ndarray:
    """The n x n matrix M^gamma[i,k] = n^{-2 gamma} rho_gamma(k-i) / 2.

    Only the n values at lags 0..n-1 are evaluated. Row i of the Toeplitz
    matrix is the window starting at n-1-i of (r[n-1], ..., r[1], r[0], ..., r[n-1]).
    """
    r = 0.5 * float(n) ** (-2.0 * gamma) * rho_range(gamma, 0, n)
    return _window_rows(np.concatenate([r[:0:-1], r]), n, slice(None, None, -1))


def factor_1d(gamma: float, n: int, method: str = "cholesky") -> np.ndarray:
    """Square-root operator F of M^gamma by Cholesky or circulant embedding.

    F has shape (n, m) with F @ F.T == M^gamma; m = n for cholesky,
    m = 2n for circulant.
    """
    if not (0.0 < gamma < 1.0):
        raise InputError(f"gamma must lie in (0,1), got {gamma}")
    if not 1 <= n <= _MAX_N:
        raise InputError(f"grid size n must be in 1 .. {_MAX_N} (the dense-factor budget), got {n}")
    if method == "cholesky":
        return np.linalg.cholesky(increment_cov_1d(gamma, n))
    if method == "circulant":
        # even extension of the stationary covariance to length 2n
        r = 0.5 * float(n) ** (-2.0 * gamma) * rho_range(gamma, 0, n + 1)
        circ = np.concatenate([r, r[-2:0:-1]])
        lam = np.fft.fft(circ).real
        if lam.min() < -1e-10:
            raise CirculantEmbeddingError(
                f"embedding eigenvalue {lam.min():.3e} below tolerance"
            )
        lam = np.clip(lam, 0.0, None)
        # symmetric circulant square root; its first n rows give F with
        # F F^T equal to the leading n x n block of the embedding, i.e. M^gamma
        b = np.fft.ifft(np.sqrt(lam)).real
        # F[i, j] = b[(j - i) mod 2n]: row i is the window of (b, b) starting at 2n - i
        m = 2 * n
        return _window_rows(np.concatenate([b, b]), m, slice(m, m - n, -1))
    raise InputError(f"unknown factorization method {method!r}")


def standard_normals(seed: int, first: int, reps: int, purpose: int, shape: tuple) -> np.ndarray:
    """Stack of ``reps`` standard-normal arrays of ``shape``.

    Entry b is drawn from the stream (seed, first + b, purpose), so any split
    of a replication range into calls gives the same draws.
    """
    z = np.empty((reps, *shape))
    for b in range(reps):
        # filled in place: the same draws as standard_normal(shape), without a copy
        replication_rng(seed, first + b, purpose).standard_normal(out=z[b])
    return z


def sample_increments(
    h: HurstPair, n: int, rng: np.random.Generator, method: str = "cholesky"
) -> IncrementField:
    """Draw one exact sample of the n x n increment field from ``rng``.

    The product runs as (F_alpha Z) F_beta^T with each factor built only
    when it is read, so at most three large arrays are live: Z, F_alpha and
    the half product, then the half product, F_beta and the result. Z is
    (m, m) with m the width of either factor, so it is drawn before F_beta
    exists, after F_alpha's construction has checked n and the method.
    """
    fa = factor_1d(h.alpha, n, method)
    z = rng.standard_normal((fa.shape[1], fa.shape[1]))
    half = fa @ z
    del fa, z
    return IncrementField(n=n, values=half @ factor_1d(h.beta, n, method).T, hurst=h)


def prefix_nodes(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2D prefix sums over the last two axes, zero-padded in front of each.

    Cell values of shape (..., n, m) give node values of shape
    (..., n+1, m+1) whose first row and column are zero. A given ``out`` of
    that shape must already hold those zeros; it is filled and returned.
    """
    if out is None:
        out = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1] + 1))
    nodes = out[..., 1:, 1:]
    np.cumsum(values, axis=-2, out=nodes)
    np.cumsum(nodes, axis=-1, out=nodes)
    return out


def field_from_increments(inc: IncrementField) -> GridField:
    """2D prefix sums of the increments; row 0 and column 0 are zero."""
    return GridField(n=inc.n, values=prefix_nodes(inc.values), hurst=inc.hurst)


def write_field(path, f: GridField) -> None:
    """Binary dump: 16-byte header then row-major little-endian float64 nodes.

    Header: magic 'FBSH', n as uint32, alpha and beta as uint32 nanounits.
    """
    header = struct.pack(
        "<4sIII",
        _MAGIC,
        f.n,
        round(f.hurst.alpha * _HURST_SCALE),
        round(f.hurst.beta * _HURST_SCALE),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        # the buffer of a C-contiguous little-endian array is the dump itself: no copy
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def write_csv_rows(fh, rows: np.ndarray, end: str) -> None:
    """Write each row of a 2-D array as one line of %.17g values joined by commas.

    ``end`` is the line end ("\\n" or "\\r\\n"). The text is byte for byte that
    of ``"%.17g" % v`` for every value; ``csvtext.write_rows`` computes it
    in blocks on two threads. It is imported here, at the first call, so
    that commands writing no CSV neither load nor compile it.
    """
    from . import csvtext

    csvtext.write_rows(fh, rows, end)


def read_field(path) -> GridField:
    """Inverse of write_field."""
    with open(path, "rb") as fh:
        magic, n, ia, ib = struct.unpack("<4sIII", fh.read(16))
        if magic != _MAGIC:
            raise ValueError("not a sheet field dump")
        vals = np.frombuffer(fh.read(), dtype="<f8").reshape(n + 1, n + 1).copy()
    return GridField(n=n, values=vals, hurst=HurstPair(ia / _HURST_SCALE, ib / _HURST_SCALE))
