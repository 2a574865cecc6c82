"""Numerical laboratory for the Dickman distribution and weighted Bernoulli sums.

The names below resolve on first access (PEP 562), so ``import dickmanlab``
loads neither numpy nor a numeric module until one of them is used.
"""

import importlib

# Each exported name and the module that defines it.
_HOME = {
    "EULER_GAMMA": "dickman",
    "DickmanRangeError": "dickman",
    "RhoTable": "dickman",
    "KappaSeq": "exact_dist",
    "Pmf": "exact_dist",
    "PathEstimate": "simulate",
    "build_rho_table": "dickman",
    "rho": "dickman",
    "dickman_density": "dickman",
    "dickman_cdf": "dickman",
    "rho_integral": "dickman",
    "rho_sq_integral": "dickman",
    "pmf": "exact_dist",
    "prob_at": "exact_dist",
    "kolmogorov_distance": "exact_dist",
    "cov_Y": "exact_dist",
    "simulate_path": "simulate",
    "simulate_paths": "simulate",
    "estimate_gamma": "simulate",
    "estimate_rho": "simulate",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in this namespace: the attribute is always the home
    # module's current one, so a patched or traced function is seen here too.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
