"""The benchmark's tracer still binds every counted library function.

perfbench/layers.py computes each counted span's work from the call's
bound arguments by name, so a renamed parameter would break a traced run
(``perfbench/run.py --trace 1``).  Each counted function is called once
here, with tiny inputs, under that tracer.
"""
import sys
from pathlib import Path

import pytest

from dickmanlab import KappaSeq, audits, exact_dist, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import COUNTS, NAME, Tracer  # noqa: E402


def test_every_counted_span_gets_its_counts(table):
    kappa = KappaSeq(1)
    tracer = Tracer(layers.COUNTERS)
    tracer.install(layers.dickmanlab_modules())
    try:
        law = exact_dist.pmf(0, 6)
        exact_dist.point_prob_scan(kappa, 10)
        exact_dist.power_sum_scan([5])
        exact_dist.kolmogorov_distance(law, table)
        audits.gamma_kernel_sup(2, 10, 11)
        simulate.simulate_path(kappa, 100, 1)
        simulate.estimate_gamma(100, [1, 2])
        simulate.estimate_rho(1.5, 100, [1, 2])
        simulate.dispersion_diagnostic(1.0, [50, 100], [1, 2, 3])
    finally:
        tracer.uninstall()
    assert not hasattr(exact_dist.pmf, "__wrapped__")  # uninstalled
    want = {
        "exact_dist.pmf": {"cells": 62, "bytes": 8 * (2 * 62 - 21)},
        "exact_dist.point_prob_scan": {"cells": 10 * 11},
        "exact_dist.power_sum_scan": {"cells": 35 + 5},
        "exact_dist.kolmogorov_distance": {"atoms": 19},  # T_6 - 1 misses 1 and 19 of 0..20
        "audits.gamma_kernel_sup": {"terms": 11 * 8},
        "simulate.simulate_path": {"steps": 100},
        "simulate.estimate_gamma": {"steps": 200},
        "simulate.estimate_rho": {"steps": 200},
        "simulate.dispersion_diagnostic": {"steps": 300},
    }
    assert set(want) == set(layers.COUNTERS)
    for name, counts in want.items():
        spans = [s for s in tracer.spans if s[NAME] == name]
        assert spans, name
        got = {k: v for k, v in spans[0][COUNTS].items() if k != "peak_mb"}
        assert got == pytest.approx(counts), name
