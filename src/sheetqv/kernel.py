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
constant.

Scalar and array calls
----------------------
``k_gamma``, ``cov_point``, ``rho``, ``incr_cov``, ``point_rect_cov`` and
``delta_incr_inner`` take scalars or numpy arrays (a ``HurstPair`` or
``Rect`` may hold arrays) and check their domains elementwise. Their powers
go through ``np.float_power``, whose float64 loop calls libm's ``pow`` as
Python's ``**`` does, so an array call equals the per-element scalar calls
bit for bit. ``np.power`` may instead dispatch to a SIMD kernel (numpy 2.4 on
AVX-512 CPUs) that differs from libm in the last bit. ``rho_range``, which
reads the contiguous lags lo..hi-1 from one ``np.power`` table of |x|^{2g}
over lo-1..hi (exact 0 at x = 0), and the oracle of
``mcverify.kernel_property_suite`` use it; every array of ρ in the package
(the samplers' covariance rows, σ's series) is such a contiguous range, so
ρ has one array formula. perfbench/golden.json pins the outputs of both
paths, so neither may replace the other where it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """An argument a function refuses: the one refusal type, which the CLI
    reports as one line and exit code 2."""


def _failing(ok, *vals):
    """The elements of ``vals`` at the first place where the check ``ok`` fails."""
    at = np.argmin(ok)
    return tuple(np.broadcast_to(v, np.shape(ok)).flat[at] for v in vals)


def _check_hurst(name: str, v) -> None:
    ok = (0.0 < v) & (v < 1.0)
    if not np.all(ok):
        raise InputError(f"{name} must lie in (0,1), got {_failing(ok, v)[0]}")


def _check_point(p) -> None:
    ok = (0.0 <= p[0]) & (p[0] <= 1.0) & (0.0 <= p[1]) & (p[1] <= 1.0)
    if not np.all(ok):
        raise ValueError("point ({}, {}) outside the unit square".format(*_failing(ok, *p)))


@dataclass(frozen=True)
class HurstPair:
    """Pair of Hurst indices (alpha, beta), each in (0, 1).

    Both may be arrays of one shape, for the elementwise kernel calls.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        _check_hurst("alpha", self.alpha)
        _check_hurst("beta", self.beta)

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
        if not np.all((self.s1 <= self.t1) & (self.s2 <= self.t2)):
            raise ValueError("rectangle coordinates must satisfy s1<=t1, s2<=t2")
        for v in (self.s1, self.t1, self.s2, self.t2):
            if not np.all((0.0 <= v) & (v <= 1.0)):
                raise ValueError("rectangle must lie inside the unit square")


def _pow2g(x, gamma):
    # |x|^{2 gamma} by libm's pow, as Python's ** computes it; an exact 0 at
    # x == 0, since 2 gamma > 0.
    return np.float_power(np.abs(x), 2.0 * gamma)


def k_gamma(gamma: float, s1: float, s2: float) -> float:
    """1D fractional covariance K^gamma(s1,s2) on [0,1].

    K^gamma(s,s) = s^{2 gamma}; gamma = 1/2 recovers min(s1, s2).
    """
    _check_hurst("gamma", gamma)
    return 0.5 * (_pow2g(s1, gamma) + _pow2g(s2, gamma) - _pow2g(s1 - s2, gamma))


def cov_point(
    h: HurstPair, p1: tuple[float, float], p2: tuple[float, float]
) -> float:
    """Covariance of the sheet at two points of the unit square."""
    _check_point(p1)
    _check_point(p2)
    return k_gamma(h.alpha, p1[0], p2[0]) * k_gamma(h.beta, p1[1], p2[1])


def rho(gamma: float, c: int) -> float:
    """Second difference |c+1|^{2g} + |c-1|^{2g} - 2|c|^{2g}.

    Even in c; rho(gamma, 0) = 2; identically 0 for |c| >= 1 at gamma = 1/2.
    """
    return _pow2g(c + 1, gamma) + _pow2g(c - 1, gamma) - 2.0 * _pow2g(c, gamma)


def rho_range(gamma: float, lo: int, hi: int, out=None) -> np.ndarray:
    """``rho`` at the contiguous lags lo, lo+1, ..., hi-1 (0 <= lo <= hi).

    One ``pow`` per lag: p = |x|^{2 gamma} over x = lo-1 .. hi, with p = 0
    at x = 0, and rho = p(x+1) + p(|x-1|) - 2 p(x) as three shifted slices
    of that table. A range far from 0 costs no more than one near it.

    ``out=(steps, table, res)`` allocates nothing: ``steps`` holds 0.0, 1.0,
    2.0, ... and is only read, the table is built in ``table`` and rho in
    ``res``, whose first hi - lo elements are returned. ``steps`` and
    ``table`` need hi - lo + 2 elements. Every element is the same float
    either way.
    """
    m = hi - lo
    if out is None:
        p, r = np.arange(lo - 1, hi + 1, dtype=float), np.empty(m)
    else:
        steps, table, res = out
        p, r = np.add(steps[: m + 2], lo - 1, out=table[: m + 2]), res[:m]
    np.abs(p, out=p)
    p **= 2.0 * gamma
    if lo <= 1:
        p[1 - lo] = 0.0
    np.add(p[2:], p[:-2], out=r)
    p[1:-1] *= 2.0
    return np.subtract(r, p[1:-1], out=r)


def _check_index(n: int, *idx: int) -> None:
    for v in idx:
        ok = (1 <= v) & (v <= n)
        if not np.all(ok):
            raise IndexError("index {} out of range 1..{}".format(*_failing(ok, v, n)))


def incr_cov(h: HurstPair, n: int, i: int, j: int, k: int, l: int) -> float:
    """Covariance of the rectangular cell increments at (i,j) and (k,l).

    Equals n^{-2(alpha+beta)} * rho_a(k-i) * rho_b(l-j) / 4; in particular the
    variance of a single cell increment is n^{-2(alpha+beta)}.
    """
    _check_index(n, i, j, k, l)
    scale = np.float_power(n, -2.0 * (h.alpha + h.beta))
    return 0.25 * scale * rho(h.alpha, k - i) * rho(h.beta, l - j)


def point_rect_cov(h: HurstPair, l: tuple[float, float], r: Rect) -> float:
    """Covariance E[W(l) * (rectangular increment of W over r)].

    Factorizes as (K^a(l1,t1) - K^a(l1,s1)) * (K^b(l2,t2) - K^b(l2,s2)).
    For alpha, beta < 1/2 the absolute value is bounded by
    |t1-s1|^{2 alpha} |t2-s2|^{2 beta}.
    """
    _check_point(l)
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
