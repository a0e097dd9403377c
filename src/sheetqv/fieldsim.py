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

Reproducibility contract: every sample is drawn from a named stream keyed
by (seed, replication, purpose). Identical keys give identical fields no
matter how replications are scheduled across workers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .kernel import HurstPair, rho_array

PURPOSE_SHEET = 0
PURPOSE_DRIVER = 1

_MAX_N = 4096  # dense factors; beyond this the memory budget is blown

_MAGIC = b"FBSH"
_HURST_SCALE = 10**9  # header stores alpha, beta as nanounits


class CirculantEmbeddingError(RuntimeError):
    """The even extension of the covariance is not positive semidefinite."""


@dataclass(frozen=True)
class RngStream:
    """A named deterministic stream: (seed, replication, purpose)."""

    key: tuple
    generator: np.random.Generator


def replication_rng(seed: int, replication: int = 0, purpose: int = PURPOSE_SHEET) -> RngStream:
    """Derive the stream for one (replication, purpose) pair from a master seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(replication, purpose))
    return RngStream(key=(seed, replication, purpose), generator=np.random.default_rng(ss))


def _split(rng) -> tuple[np.random.Generator, tuple | None]:
    if isinstance(rng, RngStream):
        return rng.generator, rng.key
    return rng, None


@dataclass
class IncrementField:
    """n x n matrix of rectangular cell increments of the sheet."""

    n: int
    values: np.ndarray
    hurst: HurstPair
    stream_key: tuple | None = field(default=None, compare=False)


@dataclass
class GridField:
    """(n+1) x (n+1) matrix of node values W(i/n, j/n); zero on the axes."""

    n: int
    values: np.ndarray
    hurst: HurstPair
    stream_key: tuple | None = field(default=None, compare=False)


def increment_cov_1d(gamma: float, n: int) -> np.ndarray:
    """The n x n matrix M^gamma[i,k] = n^{-2 gamma} rho_gamma(k-i) / 2."""
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return 0.5 * float(n) ** (-2.0 * gamma) * rho_array(gamma, lags)


def factor_1d(gamma: float, n: int, method: str = "cholesky") -> np.ndarray:
    """Square-root operator F of M^gamma by Cholesky or circulant embedding.

    F has shape (n, m) with F @ F.T == M^gamma; m = n for cholesky,
    m = 2n for circulant.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > _MAX_N:
        raise ValueError(f"n={n} exceeds the dense-factor budget ({_MAX_N})")
    if method == "cholesky":
        return np.linalg.cholesky(increment_cov_1d(gamma, n))
    if method == "circulant":
        # even extension of the stationary covariance to length 2n
        r = 0.5 * float(n) ** (-2.0 * gamma) * rho_array(gamma, np.arange(n + 1))
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
        m = 2 * n
        idx = (np.arange(m)[None, :] - np.arange(n)[:, None]) % m
        return b[idx]
    raise ValueError(f"unknown factorization method {method!r}")


def standard_normals(seed: int, first: int, reps: int, purpose: int, shape: tuple) -> np.ndarray:
    """Stack of ``reps`` standard-normal arrays of ``shape``.

    Entry b is drawn from the stream (seed, first + b, purpose), so any split
    of a replication range into calls gives the same draws.
    """
    z = np.empty((reps, *shape))
    for b in range(reps):
        z[b] = replication_rng(seed, first + b, purpose).generator.standard_normal(shape)
    return z


def sample_increments(h: HurstPair, n: int, rng, method: str = "cholesky") -> IncrementField:
    """Draw one exact sample of the n x n increment field."""
    gen, key = _split(rng)
    fa = factor_1d(h.alpha, n, method)
    fb = factor_1d(h.beta, n, method)
    z = gen.standard_normal((fa.shape[1], fb.shape[1]))
    vals = fa @ z @ fb.T
    return IncrementField(n=n, values=vals, hurst=h, stream_key=key)


def sample_increments_batch(
    h: HurstPair, n: int, seed: int, reps: int,
    purpose: int = PURPOSE_SHEET, method: str = "cholesky",
) -> np.ndarray:
    """Stack of ``reps`` increment fields, shape (reps, n, n).

    Replication r uses the stream (seed, r, purpose), so the stack is
    identical to sampling each replication independently.
    """
    fa = factor_1d(h.alpha, n, method)
    fb = factor_1d(h.beta, n, method)
    return fa @ standard_normals(seed, 0, reps, purpose, (fa.shape[1], fb.shape[1])) @ fb.T


def prefix_nodes(values: np.ndarray) -> np.ndarray:
    """2D prefix sums over the last two axes, zero-padded in front of each.

    Cell values of shape (..., n, m) give node values of shape
    (..., n+1, m+1) whose first row and column are zero.
    """
    out = np.zeros(values.shape[:-2] + (values.shape[-2] + 1, values.shape[-1] + 1))
    out[..., 1:, 1:] = values.cumsum(axis=-2).cumsum(axis=-1)
    return out


def field_from_increments(inc: IncrementField) -> GridField:
    """2D prefix sums of the increments; row 0 and column 0 are zero."""
    return GridField(
        n=inc.n, values=prefix_nodes(inc.values), hurst=inc.hurst, stream_key=inc.stream_key
    )


def sample_white_increments(n: int, rng) -> IncrementField:
    """iid N(0, 1/n^2) cell increments of a standard Brownian sheet."""
    gen, key = _split(rng)
    vals = gen.standard_normal((n, n)) / n
    return IncrementField(n=n, values=vals, hurst=HurstPair(0.5, 0.5), stream_key=key)


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
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_field(path) -> GridField:
    """Inverse of write_field."""
    with open(path, "rb") as fh:
        magic, n, ia, ib = struct.unpack("<4sIII", fh.read(16))
        if magic != _MAGIC:
            raise ValueError("not a sheet field dump")
        vals = np.frombuffer(fh.read(), dtype="<f8").reshape(n + 1, n + 1).copy()
    return GridField(n=n, values=vals, hurst=HurstPair(ia / _HURST_SCALE, ib / _HURST_SCALE))
