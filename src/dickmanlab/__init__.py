"""Numerical laboratory for the Dickman distribution and weighted Bernoulli sums."""

from .dickman import (
    EULER_GAMMA,
    DickmanRangeError,
    RhoTable,
    build_rho_table,
    dickman_cdf,
    dickman_density,
    rho,
    rho_integral,
    rho_sq_integral,
)
from .exact_dist import KappaSeq, Pmf, cov_Y, kolmogorov_distance, pmf, prob_at
from .simulate import PathEstimate, estimate_gamma, estimate_rho, simulate_path, simulate_paths

__all__ = [
    "EULER_GAMMA",
    "DickmanRangeError",
    "RhoTable",
    "KappaSeq",
    "Pmf",
    "PathEstimate",
    "build_rho_table",
    "rho",
    "dickman_density",
    "dickman_cdf",
    "rho_integral",
    "rho_sq_integral",
    "pmf",
    "prob_at",
    "kolmogorov_distance",
    "cov_Y",
    "simulate_path",
    "simulate_paths",
    "estimate_gamma",
    "estimate_rho",
]

__version__ = "0.1.0"
