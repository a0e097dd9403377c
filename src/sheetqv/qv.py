"""The weighted quadratic-variation statistic.

The statistic on the grid is the partial-sum array

    S[I, J] = (1/n) sum_{i<=I, j<=J} f(W((i-1)/n, (j-1)/n))
                                   * (n^{2(alpha+beta)} Delta_{i,j}^2 - 1),

with the weight evaluated at the lower-left node of each cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fieldsim import IncrementField, prefix_nodes, write_csv_rows
from .kernel import HurstPair, InputError
from .quadrature import gauss_hermite_mean  # noqa: F401  (perfbench.layers patches this name)


@dataclass(frozen=True)
class WeightFunction:
    """A weight f with the two moments the harness needs, both in closed form.

    ``m_closed`` is v -> E[f^2(N(0, v))] and ``d2_mean`` is v -> E[f''(N(0, v))];
    ``d2_mean`` must also accept an array of variances (a scalar result is broadcast).
    """

    kind: str
    func: Callable
    m_closed: Callable
    d2_mean: Callable


# the built-in weights by name
WEIGHTS = {w.kind: w for w in (
    WeightFunction(
        "constant_one",
        func=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        m_closed=lambda v: 1.0,
        d2_mean=lambda v: 0.0,
    ),
    WeightFunction(
        "identity",
        func=lambda x: np.asarray(x, dtype=float),
        m_closed=lambda v: v,
        d2_mean=lambda v: 0.0,
    ),
    WeightFunction(
        "square",
        func=lambda x: np.asarray(x, dtype=float) ** 2,
        m_closed=lambda v: 3.0 * v * v,  # E[X^4] for X ~ N(0,v)
        d2_mean=lambda v: 2.0,
    ),
    WeightFunction(
        "cosine",
        func=np.cos,
        m_closed=lambda v: 0.5 * (1.0 + np.exp(-2.0 * v)),
        d2_mean=lambda v: -np.exp(-0.5 * v),
    ),
)}


def weight(kind: str) -> WeightFunction:
    """A built-in weight function by name."""
    if kind not in WEIGHTS:
        raise InputError(f"unknown weight kind {kind!r}")
    return WEIGHTS[kind]


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


def write_qv_csv(path, p: QVProcess) -> None:
    """CSV dump: one header row (n, alpha, beta, weight kind), then row-major values.

    Lines end in CRLF, the line ending of the csv module's default dialect.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"{p.n},{p.hurst.alpha!r},{p.hurst.beta!r},{p.weight_kind}\r\n")
        write_csv_rows(fh, p.partial_sums, "\r\n")
