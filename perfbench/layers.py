"""The layers the traced run measures and the per-layer metrics it reports.

A layer is a module of the ``dickmanlab`` package.  NOTES.md maps each
metric below to the end-to-end metric and workload it should move.
Metrics a workload does not exercise read 0.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from tracing import summarize
from workloads import CLI_COMMANDS

LAYERS = ("dickman", "exact_dist", "spectral", "cumulants", "audits", "simulate",
          "config", "cli")

CLI_SUBCOMMANDS = tuple(dict.fromkeys(argv[0] for argv in CLI_COMMANDS))


def dickmanlab_modules() -> list:
    """Every loaded module of the package, the package namespace included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "dickmanlab" or name.startswith("dickmanlab.")]


def _triangle_sum(n: int) -> int:
    """sum_{k=1}^{n} k(k+1)/2."""
    return n * (n + 1) * (n + 2) // 6


def _pmf_work(a) -> dict:
    # Step k writes the support 0..S_k, S_k = sum_{j=m+1}^{k} j, into a new
    # array and reads a temporary of the previous support times 1/k.
    m, n = a["m"], a["n"]
    cells = _triangle_sum(n) - _triangle_sum(m) - (n - m) * m * (m + 1) // 2 + (n - m)
    weights = (n * (n + 1) - m * (m + 1)) // 2
    out = {"cells": cells}
    if a["mode"] == "float":
        out["bytes"] = 8 * (2 * cells - weights)
    return out


# Work counts computed from each call's inputs (and, for atoms, its law).
# They are exact counts of the algorithm at the parent commit, not
# measurements; their units say "computed".
COUNTERS = {
    "exact_dist.pmf": lambda a, r: _pmf_work(a),
    "exact_dist.point_prob_scan": lambda a, r: {
        "cells": a["n_max"] * (a["kappa"](a["n_max"]) + 1)},
    "exact_dist.power_sum_scan": lambda a, r: {
        "cells": (lambda n: _triangle_sum(n) + n)(max(int(v) for v in a["n_list"]))},
    "exact_dist.kolmogorov_distance": lambda a, r: {
        "atoms": int(np.count_nonzero(np.asarray(a["dist"].probs, dtype=float)))},
    "audits.gamma_kernel_sup": lambda a, r: {"terms": a["u_points"] * (a["n"] - a["m"])},
    "simulate.simulate_path": lambda a, r: {"steps": a["N"]},
    "simulate.estimate_gamma": lambda a, r: {"steps": a["N"] * len(a["seeds"])},
    "simulate.estimate_rho": lambda a, r: {"steps": a["N"] * len(a["seeds"])},
    "simulate.dispersion_diagnostic": lambda a, r: {
        "steps": max(int(v) for v in a["N_list"]) * len(a["seeds"])},
}

# Spans whose tracemalloc peak is recorded.
MEMORY = ("audits.gamma_kernel_sup",)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("dickman.build_rho_table.s", "s", "lower"),
    ("dickman.dickman_cdf.calls", "count", "lower"),
    ("dickman.dickman_cdf.s", "s", "lower"),
    ("exact_dist.pmf.calls", "count", "lower"),
    ("exact_dist.pmf.s", "s", "lower"),
    ("exact_dist.pmf.cells", "cells_computed", "lower"),
    ("exact_dist.pmf.bytes", "bytes_computed", "lower"),
    ("exact_dist.point_prob_scan.s", "s", "lower"),
    ("exact_dist.point_prob_scan.cells", "cells_computed", "lower"),
    ("exact_dist.power_sum_scan.s", "s", "lower"),
    ("exact_dist.power_sum_scan.cells", "cells_computed", "lower"),
    ("exact_dist.kolmogorov_distance.s", "s", "lower"),
    ("exact_dist.kolmogorov_distance.self_s", "s", "lower"),
    ("exact_dist.kolmogorov_distance.atoms", "count", "lower"),
    ("exact_dist.cov_Y.calls", "count", "lower"),
    ("exact_dist.cov_Y.s", "s", "lower"),
    ("exact_dist.KappaSeq.values.s", "s", "lower"),
    ("audits.run_calibration.s", "s", "lower"),
    ("audits.gamma_kernel_sup.s", "s", "lower"),
    ("audits.gamma_kernel_sup.terms", "terms_computed", "lower"),
    ("audits.gamma_kernel_sup.peak_mb", "MB", "lower"),
    ("audits.pmf_cache.hit_ratio", "ratio", "higher"),
    ("audits.stimabase_check.s", "s", "lower"),
    ("audits.w1_rows.s", "s", "lower"),
    ("audits.w2_check.s", "s", "lower"),
    ("audits.covariance_audit.s", "s", "lower"),
    ("audits.llt_table.s", "s", "lower"),
    ("audits.llt_table.double_slope_s", "s", "lower"),
    ("audits.zs_check.s", "s", "lower"),
    ("spectral.phi_dickman.calls", "count", "lower"),
    ("spectral.phi_dickman.s", "s", "lower"),
    ("spectral.phi_T.s", "s", "lower"),
    ("cumulants.alpha_j.s", "s", "lower"),
    ("simulate.estimate_gamma.s", "s", "lower"),
    ("simulate.estimate_rho.s", "s", "lower"),
    ("simulate.dispersion_diagnostic.s", "s", "lower"),
    ("simulate.hybrid_oracle_mean.s", "s", "lower"),
    ("simulate.steps", "count", "lower"),
    ("simulate.steps_per_s", "1/s", "higher"),
    ("cli.startup.s", "s", "lower"),
    *((f"cli.{sub}.s", "s", "lower") for sub in CLI_SUBCOMMANDS),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def span_metrics(spans, passes: int, setup_spans=()) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``<fn>.calls``, ``<fn>.s`` and ``<fn>.self_s`` come from the spans named
    ``<fn>``; ``<fn>.<count>`` from their counts; ``<layer>.self_s`` is the
    self time of every span of that layer.  All are per pass, except the
    peaks (maxima) and ``dickman.build_rho_table.s`` (seconds per build,
    counting the builds in ``setup_spans`` too).
    """
    by_name, counts = summarize(spans)
    out: dict[str, float] = {"trace.spans": len(spans) / passes}
    for name, agg in by_name.items():
        for stat in ("calls", "s", "self_s"):
            out[f"{name}.{stat}"] = agg[stat] / passes
    for key, value in counts.items():
        out[key] = value if key.endswith(".peak_mb") else value / passes
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(agg["self_s"] for name, agg in by_name.items()
                                     if name.startswith(layer + ".")) / passes
    out["simulate.steps"] = sum(v for k, v in counts.items()
                                if k.startswith("simulate.") and k.endswith(".steps")) / passes
    builds = [s[2] - s[1] for s in (*setup_spans, *spans) if s[0] == "dickman.build_rho_table"]
    out["dickman.build_rho_table.s"] = math.fsum(builds) / len(builds) if builds else 0.0
    return out
