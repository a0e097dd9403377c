"""The limiting constant sigma_{alpha,beta}.

sigma^2 = (1/8) * sum over all integers c, d of (rho_a(c) * rho_b(d))^2,
which factorizes as (1/8) * (sum_c rho_a(c)^2) * (sum_d rho_b(d)^2).
The series converges iff alpha < 3/4 and beta < 3/4. All terms are
non-negative, so a truncated sum is a lower bound and we attach a rigorous
upper bound on the omitted mass.

Tail bound: rho_g(c) is the second difference of x -> x^{2g}, so by the
mean-value form |rho_g(c)| <= 2g|2g-1| (|c|-1)^{2g-2} for |c| >= 2, giving

    sum_{c > N} rho_g(c)^2 <= (2g|2g-1|)^2 * (N-1)^{4g-3} / (3-4g),  N >= 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import HurstPair, rho_range

_CUTOFF_CAP = 10**8
_BLOCK = 1 << 16  # lags per block of series terms: memory is O(block) at any cutoff
_SPAN = 8  # binary exponents a block may span and still sum exactly in int64


class RegimeError(ValueError):
    """Raised when (alpha, beta) is outside the series-convergence regime."""


class CutoffError(RuntimeError):
    """Raised when the series misses its tolerance at the largest cutoff."""


@dataclass(frozen=True)
class SeriesResult:
    """Truncated series value with a rigorous bracket.

    value <= sigma^2 <= value + tail_bound.
    """

    value: float
    cutoff: int
    tail_bound: float


def _check_regime(h: HurstPair) -> None:
    if not h.series_convergent():
        raise RegimeError(
            f"series for sigma diverges unless alpha, beta < 3/4; "
            f"got alpha={h.alpha}, beta={h.beta}"
        )


def _exact_parts(t: np.ndarray):
    """At most two floats whose exact sum is the exact sum of the terms t.

    t holds at most 2^21 finite, non-negative terms. Let e be floor(log2)
    of the smallest term. When every exponent lies within e .. e + _SPAN and
    2^(53-e) is finite (so no term is subnormal), each term times 2^(53-e) is
    an integer below 2^62; the high and low 32-bit halves of those integers
    then sum exactly in int64 (below 2^51 and 2^53), and scaling the two sums
    back is exact. Any other t, such as one holding a zero, comes back as a
    memoryview of its own terms.
    """
    lo, hi = t.min(), t.max()
    if not (0.0 < lo and hi < math.inf and t.size <= 1 << 21):
        return memoryview(t)
    e = math.frexp(lo)[1] - 1
    if math.frexp(hi)[1] - 1 - e > _SPAN or 53 - e > 1023:
        return memoryview(t)
    v = (t * math.ldexp(1.0, 53 - e)).astype(np.int64)
    return (
        math.ldexp(float((v >> 32).sum()), e - 21),
        math.ldexp(float((v & 0xFFFFFFFF).sum()), e - 53),
    )


def _axis_sum_sq(gamma: float, cutoff: int) -> float:
    """sum_{|c| <= cutoff} rho_gamma(c)^2 with compensated accumulation.

    ``math.fsum`` is correctly rounded, so its result depends only on the
    exact real sum of what it is given. Each block of ``_BLOCK`` lags reaches
    it as the at most two floats of ``_exact_parts``, whose exact sum is that
    of the block's terms, or as the terms themselves, so the result is the
    same float as ``fsum`` of one list of all terms, at O(block) memory.
    """
    blocks = (
        _exact_parts(rho_range(gamma, lo, min(lo + _BLOCK, cutoff + 1)) ** 2)
        for lo in range(1, cutoff + 1, _BLOCK)
    )
    # rho(0) = 2 always; one-sided terms counted twice by symmetry
    return 4.0 + 2.0 * math.fsum(itertools.chain.from_iterable(blocks))


def tail_constant(gamma: float) -> float:
    """The mean-value constant 2g|2g-1| bounding |rho_gamma| decay."""
    return 2.0 * gamma * abs(2.0 * gamma - 1.0)


def _axis_tail(gamma: float, cutoff: int) -> float:
    """Upper bound on sum_{|c| > cutoff} rho_gamma(c)^2 (two-sided)."""
    cg = tail_constant(gamma)
    if cg == 0.0:
        return 0.0  # gamma = 1/2: rho vanishes off zero
    base = max(cutoff, 2)
    extra = 0.0
    if base > cutoff:
        extra = 2.0 * math.fsum(rho_range(gamma, cutoff + 1, base + 1) ** 2)
    # integral comparison of sum_{c > base} (c-1)^{4g-4}
    integral = (base - 1.0) ** (4.0 * gamma - 3.0) / (3.0 - 4.0 * gamma)
    return extra + 2.0 * cg * cg * integral


def sigma_squared_partial(h: HurstPair, cutoff: int) -> SeriesResult:
    """Truncated factorized double series for sigma^2 with tail bound."""
    _check_regime(h)
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    sa = _axis_sum_sq(h.alpha, cutoff)
    sb = sa if h.beta == h.alpha else _axis_sum_sq(h.beta, cutoff)
    ta = _axis_tail(h.alpha, cutoff)
    tb = _axis_tail(h.beta, cutoff)
    value = 0.125 * sa * sb
    tail = 0.125 * ((sa + ta) * (sb + tb) - sa * sb)
    if tail <= 0.0 and (ta > 0.0 or tb > 0.0):
        # the difference cancelled: the tails are below an ulp of the axis sums
        tail = 0.125 * (sa * tb + sb * ta + ta * tb)
    return SeriesResult(value=value, cutoff=cutoff, tail_bound=tail)


def sigma_series(h: HurstPair, tol: float) -> SeriesResult:
    """Partial sum of sigma^2 at the first cutoff in 4, 40, 400, ... whose
    tail bound is at most tol * value; CutoffError past a 10^8 cutoff.

    A series that misses tol at cutoff 4 is refused at once when the cap
    cannot meet it either: at the cap each axis sum s is at least 4, so its
    tail bound is at least floor = 0.5 * (t_alpha + t_beta) for the axis
    tails t there, while its value is at most sigma^2 <= value + tail_bound
    at cutoff 4. The test has no cancellation, unlike the cap's own tail
    bound, which rounds to 0 once the tails fall below an ulp of s.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _check_regime(h)
    cutoff = 4
    res = sigma_squared_partial(h, cutoff)
    floor = 0.5 * (_axis_tail(h.alpha, _CUTOFF_CAP) + _axis_tail(h.beta, _CUTOFF_CAP))
    reachable = floor <= tol * (res.value + res.tail_bound)
    while res.tail_bound > tol * res.value:
        if cutoff >= _CUTOFF_CAP or not reachable:
            raise CutoffError(
                f"series did not reach tolerance {tol} within cutoff {_CUTOFF_CAP}"
            )
        cutoff = min(cutoff * 10, _CUTOFF_CAP)
        res = sigma_squared_partial(h, cutoff)
    return res


def sigma(h: HurstPair, tol: float) -> float:
    """sigma_{alpha,beta} to relative series-truncation tolerance tol.

    Returns sqrt of the partial sum of ``sigma_series``. Deterministic for
    fixed inputs; sqrt(2) exactly at alpha = beta = 1/2.
    """
    return math.sqrt(sigma_series(h, tol).value)
