"""Closed-form covariance kernels of the fractional Brownian sheet.

Everything here is a pure real-valued function of its arguments; no state,
no caching. These formulas are the analytic ground truth that the samplers
and the Monte Carlo harness are tested against.

Conventions
-----------
The sheet W has tensor-product covariance

    E[W(s1,t1) W(s2,t2)] = K^alpha(s1,s2) * K^beta(t1,t2),

with K^g(a,b) = (a^{2g} + b^{2g} - |a-b|^{2g}) / 2, and vanishes whenever
either coordinate is zero. ``rho`` is the second difference of x -> x^{2g}
on the integers; it drives both the increment covariance and the limiting
constant. ``rho_array`` is its vectorized form: it builds one table of
x^{2g} over the lag range it is given (one array ``pow`` per distinct value,
with an exact 0 at x = 0) and reads the three terms of every lag from it, in
the same order of float operations as a masked ``pow`` per term. Scalar
``rho`` stays separate on purpose: numpy's array ``pow`` can differ from
libm's scalar ``pow`` in the last bit (seen with numpy 2.4 on AVX-512 CPUs),
and perfbench/golden.json pins the outputs of both, so neither may replace
the other where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HurstPair:
    """Pair of Hurst indices (alpha, beta), each in (0, 1)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")

    def admissible(self) -> bool:
        """True iff alpha < 1/2, beta < 1/2 and alpha + beta > 1/2.

        This is the regime in which the mixed-Gaussian limit theorem for the
        weighted quadratic variation holds.
        """
        return (
            self.alpha < 0.5 and self.beta < 0.5 and self.alpha + self.beta > 0.5
        )

    def series_convergent(self) -> bool:
        """True iff the double series defining sigma converges (both < 3/4)."""
        return self.alpha < 0.75 and self.beta < 0.75


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [s1,t1] x [s2,t2] inside the unit square."""

    s1: float
    t1: float
    s2: float
    t2: float

    def __post_init__(self):
        if not (self.s1 <= self.t1 and self.s2 <= self.t2):
            raise ValueError("rectangle coordinates must satisfy s1<=t1, s2<=t2")
        for v in (self.s1, self.t1, self.s2, self.t2):
            if not (0.0 <= v <= 1.0):
                raise ValueError("rectangle must lie inside the unit square")


def _pow2g(x: float, gamma: float) -> float:
    # |x|^{2*gamma} with the x == 0 case short-circuited so no 0**neg issues
    # can arise and the result is an exact 0.
    if x == 0.0:
        return 0.0
    return abs(x) ** (2.0 * gamma)


def k_gamma(gamma: float, s1: float, s2: float) -> float:
    """1D fractional covariance K^gamma(s1,s2) on [0,1].

    K^gamma(s,s) = s^{2 gamma}; gamma = 1/2 recovers min(s1, s2).
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")
    return 0.5 * (_pow2g(s1, gamma) + _pow2g(s2, gamma) - _pow2g(s1 - s2, gamma))


def cov_point(
    h: HurstPair, p1: tuple[float, float], p2: tuple[float, float]
) -> float:
    """Covariance of the sheet at two points of the unit square."""
    for p in (p1, p2):
        if not (0.0 <= p[0] <= 1.0 and 0.0 <= p[1] <= 1.0):
            raise ValueError(f"point {p} outside the unit square")
    return k_gamma(h.alpha, p1[0], p2[0]) * k_gamma(h.beta, p1[1], p2[1])


def rho(gamma: float, c: int) -> float:
    """Second difference |c+1|^{2g} + |c-1|^{2g} - 2|c|^{2g}.

    Even in c; rho(gamma, 0) = 2; identically 0 for |c| >= 1 at gamma = 1/2.
    """
    return _pow2g(c + 1, gamma) + _pow2g(c - 1, gamma) - 2.0 * _pow2g(c, gamma)


def rho_array(gamma: float, c: np.ndarray) -> np.ndarray:
    """``rho`` at an array of integer lags, with exact zeros at the cusp.

    One ``pow`` per distinct value: p[x - lo] = x^{2 gamma} over the lag
    range lo..hi that the three terms read, with p = 0 at x = 0. The table
    starts at the smallest lag, so a block of lags far from 0 costs no more
    than one near it.
    """
    a = np.abs(np.asarray(c, dtype=np.int64))
    if a.size == 0:
        return np.zeros(a.shape)
    lo = max(int(a.min()) - 1, 0)
    x = np.arange(lo, int(a.max()) + 2, dtype=float)
    p = x ** (2.0 * gamma)
    if lo == 0:
        p[0] = 0.0
    return p[a + 1 - lo] + p[np.abs(a - 1) - lo] - 2.0 * p[a - lo]


def _check_index(n: int, *idx: int) -> None:
    for v in idx:
        if not (1 <= v <= n):
            raise IndexError(f"index {v} out of range 1..{n}")


def incr_cov(h: HurstPair, n: int, i: int, j: int, k: int, l: int) -> float:
    """Covariance of the rectangular cell increments at (i,j) and (k,l).

    Equals n^{-2(alpha+beta)} * rho_a(k-i) * rho_b(l-j) / 4; in particular the
    variance of a single cell increment is n^{-2(alpha+beta)}.
    """
    _check_index(n, i, j, k, l)
    scale = float(n) ** (-2.0 * (h.alpha + h.beta))
    return 0.25 * scale * rho(h.alpha, k - i) * rho(h.beta, l - j)


def point_rect_cov(h: HurstPair, l: tuple[float, float], r: Rect) -> float:
    """Covariance E[W(l) * (rectangular increment of W over r)].

    Factorizes as (K^a(l1,t1) - K^a(l1,s1)) * (K^b(l2,t2) - K^b(l2,s2)).
    For alpha, beta < 1/2 the absolute value is bounded by
    |t1-s1|^{2 alpha} |t2-s2|^{2 beta}.
    """
    if not (0.0 <= l[0] <= 1.0 and 0.0 <= l[1] <= 1.0):
        raise ValueError(f"point {l} outside the unit square")
    d1 = k_gamma(h.alpha, l[0], r.t1) - k_gamma(h.alpha, l[0], r.s1)
    d2 = k_gamma(h.beta, l[1], r.t2) - k_gamma(h.beta, l[1], r.s2)
    return d1 * d2


def delta_incr_inner(h: HurstPair, n: int, k: int, l: int, i: int, j: int) -> float:
    """Inner product of the corner rectangle at ((k-1)/n,(l-1)/n) with cell (i,j).

    This is point_rect_cov with the point at the lower-left node of cell (k,l)
    and the rectangle equal to grid cell (i,j). Zero whenever k = 1 or l = 1.
    """
    _check_index(n, k, l, i, j)
    point = ((k - 1) / n, (l - 1) / n)
    cell = Rect((i - 1) / n, i / n, (j - 1) / n, j / n)
    return point_rect_cov(h, point, cell)
