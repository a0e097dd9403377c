"""The weighted quadratic-variation statistic.

The statistic on the grid is the partial-sum array

    S[I, J] = (1/n) sum_{i<=I, j<=J} f(W((i-1)/n, (j-1)/n))
                                   * (n^{2(alpha+beta)} Delta_{i,j}^2 - 1),

with the weight evaluated at the lower-left node of each cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fieldsim import IncrementField, prefix_nodes, write_csv_rows
from .kernel import HurstPair
from .quadrature import gauss_hermite_mean


@dataclass(frozen=True)
class WeightFunction:
    """A weight f with the derivative and moment metadata the harness needs.

    ``m_closed`` is v -> E[f^2(N(0, v))] and ``d2_mean`` is
    v -> E[f''(N(0, v))], both optional closed forms; when absent they are
    computed by Gauss-Hermite quadrature from ``func`` / ``d2``. ``d2_mean``
    must also accept an array of variances (a scalar result is broadcast).
    """

    kind: str
    func: Callable
    d2: Callable | None = None
    m_closed: Callable | None = None
    d2_mean: Callable | None = None


def weight(kind: str) -> WeightFunction:
    """Built-in weight functions by name."""
    if kind == "constant_one":
        return WeightFunction(
            kind,
            func=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            m_closed=lambda v: 1.0,
            d2_mean=lambda v: 0.0,
        )
    if kind == "identity":
        return WeightFunction(
            kind,
            func=lambda x: np.asarray(x, dtype=float),
            d2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            m_closed=lambda v: v,
            d2_mean=lambda v: 0.0,
        )
    if kind == "square":
        return WeightFunction(
            kind,
            func=lambda x: np.asarray(x, dtype=float) ** 2,
            d2=lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
            m_closed=lambda v: 3.0 * v * v,  # E[X^4] for X ~ N(0,v)
            d2_mean=lambda v: 2.0,
        )
    if kind == "cosine":
        return WeightFunction(
            kind,
            func=np.cos,
            d2=lambda x: -np.cos(x),
            m_closed=lambda v: 0.5 * (1.0 + np.exp(-2.0 * v)),
            d2_mean=lambda v: -np.exp(-0.5 * v),
        )
    raise ValueError(f"unknown weight kind {kind!r}")


def moment_m(f: WeightFunction, v: float) -> float:
    """E[f^2(N(0, v))], closed form when available else quadrature."""
    if f.m_closed is not None:
        return float(f.m_closed(v))
    return gauss_hermite_mean(lambda x: f.func(x) ** 2, v)


def d2_mean_at(f: WeightFunction, v: float) -> float:
    """E[f''(N(0, v))], closed form when available else quadrature."""
    if f.d2_mean is not None:
        return float(f.d2_mean(v))
    if f.d2 is None:
        raise ValueError(f"weight {f.kind!r} has no usable second derivative")
    return gauss_hermite_mean(f.d2, v)


@dataclass
class QVProcess:
    """Partial-sum array of the statistic at every grid point."""

    n: int
    partial_sums: np.ndarray  # (n+1, n+1), row/column 0 zero
    hurst: HurstPair
    weight_kind: str


def summands(h: HurstPair, nodes: np.ndarray, inc: np.ndarray, f: WeightFunction) -> np.ndarray:
    """Per-cell terms f(lower-left node) * (n^{2(alpha+beta)} Delta^2 - 1).

    ``nodes`` (..., n+1, n+1) and ``inc`` (..., n, n) may carry leading
    replication axes; the statistic is their prefix sum divided by n.
    """
    scale = float(inc.shape[-1]) ** (2.0 * (h.alpha + h.beta))
    return f.func(nodes[..., :-1, :-1]) * (scale * inc**2 - 1.0)


def qv_process(inc: IncrementField, f: WeightFunction) -> QVProcess:
    """Compute the statistic's partial sums from one simulated sample's increments."""
    s = prefix_nodes(summands(inc.hurst, prefix_nodes(inc.values), inc.values, f)) / inc.n
    return QVProcess(n=inc.n, partial_sums=s, hurst=inc.hurst, weight_kind=f.kind)


def eval_qv(p: QVProcess, s: float, t: float) -> float:
    """Value of the process at (s, t): the partial sum S[floor(ns), floor(nt)]."""
    i = min(int(np.floor(p.n * s)), p.n)
    j = min(int(np.floor(p.n * t)), p.n)
    return float(p.partial_sums[i, j])


def write_qv_csv(path, p: QVProcess) -> None:
    """CSV dump: one header row (n, alpha, beta, weight kind), then row-major values.

    Lines end in CRLF, the line ending of the csv module's default dialect.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([p.n, repr(p.hurst.alpha), repr(p.hurst.beta), p.weight_kind])
        write_csv_rows(fh, p.partial_sums, "\r\n")
