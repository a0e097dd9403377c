"""The weighted quadratic-variation statistic and its discretized limit.

The statistic on the grid is the partial-sum array

    S[I, J] = (1/n) sum_{i<=I, j<=J} f(W((i-1)/n, (j-1)/n))
                                   * (n^{2(alpha+beta)} Delta_{i,j}^2 - 1),

with the weight evaluated at the lower-left node of each cell. The limit
process is a stochastic integral of f(sheet) against an independent standard
Brownian sheet, discretized on the same grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fieldsim import GridField, IncrementField, prefix_nodes, write_csv_rows
from .kernel import HurstPair
from .quadrature import gauss_hermite_mean


@dataclass(frozen=True)
class WeightFunction:
    """A weight f with the derivative and moment metadata the harness needs.

    ``m_closed`` is v -> E[f^2(N(0, v))] and ``d2_mean`` is
    v -> E[f''(N(0, v))], both optional closed forms; when absent they are
    computed by Gauss-Hermite quadrature from ``func`` / ``d2``. ``d2_mean``
    must also accept an array of variances (a scalar result is broadcast).
    ``satisfies_h`` marks weights smooth enough for theorem-verification runs.
    """

    kind: str
    func: Callable
    d2: Callable | None = None
    m_closed: Callable | None = None
    d2_mean: Callable | None = None
    satisfies_h: bool = True


def weight(kind: str, table: tuple | None = None) -> WeightFunction:
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
    if kind == "user_table":
        if table is None:
            raise ValueError("user_table weight requires (xs, ys) knots")
        xs = np.asarray(table[0], dtype=float)
        ys = np.asarray(table[1], dtype=float)
        if xs.min() < -8.0 or xs.max() > 8.0:
            raise ValueError("table knots must lie in [-8, 8]")
        # piecewise linear, clamped outside the knot range; not C^4, so it
        # is excluded from theorem-verification runs
        return WeightFunction(
            kind,
            func=lambda x: np.interp(x, xs, ys),
            satisfies_h=False,
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


def _check_same_sample(field: GridField, inc: IncrementField) -> None:
    if field.n != inc.n:
        raise ValueError(f"grid mismatch: field n={field.n}, increments n={inc.n}")
    if field.hurst != inc.hurst:
        raise ValueError("field and increments carry different Hurst pairs")
    if not np.array_equal(field.values[1:, 1:], prefix_nodes(inc.values)[1:, 1:]):
        raise ValueError("field is not the prefix sum of the given increments")


def summands(h: HurstPair, nodes: np.ndarray, inc: np.ndarray, f: WeightFunction) -> np.ndarray:
    """Per-cell terms f(lower-left node) * (n^{2(alpha+beta)} Delta^2 - 1).

    ``nodes`` (..., n+1, n+1) and ``inc`` (..., n, n) may carry leading
    replication axes; the statistic is their prefix sum divided by n.
    """
    scale = float(inc.shape[-1]) ** (2.0 * (h.alpha + h.beta))
    return f.func(nodes[..., :-1, :-1]) * (scale * inc**2 - 1.0)


def qv_process(field: GridField, inc: IncrementField, f: WeightFunction) -> QVProcess:
    """Compute the statistic's partial sums from one simulated sample."""
    _check_same_sample(field, inc)
    s = prefix_nodes(summands(inc.hurst, field.values, inc.values, f)) / inc.n
    return QVProcess(n=inc.n, partial_sums=s, hurst=inc.hurst, weight_kind=f.kind)


def eval_qv(p: QVProcess, s: float, t: float) -> float:
    """Value of the process at (s, t): the partial sum S[floor(ns), floor(nt)]."""
    i = min(int(np.floor(p.n * s)), p.n)
    j = min(int(np.floor(p.n * t)), p.n)
    return float(p.partial_sums[i, j])


def limit_sample(
    field: GridField, f: WeightFunction, sigma_val: float, driver: IncrementField
) -> np.ndarray:
    """Discretized limit process sigma * int f(W) dB on the field's grid.

    ``driver`` must be a standard-sheet increment field drawn from a stream
    independent of the one that produced ``field``.
    """
    if driver.n != field.n:
        raise ValueError("driver and field grids differ")
    if (
        field.stream_key is not None
        and driver.stream_key is not None
        and field.stream_key == driver.stream_key
    ):
        raise ValueError("driver shares its rng stream with the field")
    return prefix_nodes(sigma_val * f.func(field.values[:-1, :-1]) * driver.values)


def write_qv_csv(path, p: QVProcess) -> None:
    """CSV dump: one header row (n, alpha, beta, weight kind), then row-major values.

    Lines end in CRLF, the line ending of the csv module's default dialect.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([p.n, repr(p.hurst.alpha), repr(p.hurst.beta), p.weight_kind])
        write_csv_rows(fh, p.partial_sums, "\r\n")
