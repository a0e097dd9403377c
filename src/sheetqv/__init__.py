"""Weighted quadratic variations of fractional Brownian sheets.

Exact grid simulation of the sheet, the renormalized weighted
quadratic-variation statistic, the limiting constant and mixed-Gaussian
limit law, and a Monte Carlo harness that verifies the limit theorem's
quantitative content at desk scale.
"""

from .chaos import centered_square, hermite, i2_pair_moment
from .fieldsim import (
    GridField,
    IncrementField,
    factor_1d,
    field_from_increments,
    replication_rng,
    sample_increments,
)
from .kernel import (
    HurstPair,
    Rect,
    cov_point,
    delta_incr_inner,
    incr_cov,
    k_gamma,
    point_rect_cov,
    rho,
)
from .qv import QVProcess, WeightFunction, qv_process, weight
from .sigma import RegimeError, SeriesResult, sigma, sigma_series, sigma_squared_partial

__all__ = [
    "HurstPair", "Rect", "k_gamma", "cov_point", "rho", "incr_cov",
    "point_rect_cov", "delta_incr_inner",
    "hermite", "centered_square", "i2_pair_moment",
    "SeriesResult", "RegimeError", "sigma", "sigma_series", "sigma_squared_partial",
    "IncrementField", "GridField", "factor_1d",
    "sample_increments", "field_from_increments",
    "replication_rng",
    "WeightFunction", "QVProcess", "weight", "qv_process",
]
