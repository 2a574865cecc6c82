"""End-to-end acceptance gate.

Each test checks one acceptance criterion at its stated tolerance and
records a PASS/FAIL line (echoed in the terminal summary).  Shared heavy
artifacts (the rho table, DP scans, Monte Carlo paths) are module-scoped
fixtures so the whole gate stays within its time budget.
"""
import io
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from dickmanlab import audits, config, simulate
from dickmanlab.cli import main as cli_main
from dickmanlab.cumulants import (
    a_coeff,
    cumulant_explicit,
    cumulant_ratio_series,
    cumulant_recurrence,
    stirling2,
)
from dickmanlab.dickman import EULER_GAMMA, dickman_cdf, rho, rho_integral
from dickmanlab.exact_dist import (
    KappaSeq,
    convolve,
    pmf,
    point_prob_scan,
    power_sum_scan,
    prob_at,
)
from dickmanlab.spectral import l2_cf_integral_quad, l2_cf_limit

KAPPA1 = KappaSeq(1, mode="exact-multiple")
MASTER_SEED = 20260823
N_MC = 10**6
PATHS = 32


def record(num: int, desc: str, ok: bool):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def scan():
    return point_prob_scan(KAPPA1, 2000)


@pytest.fixture(scope="module")
def mc_paths():
    return simulate.simulate_paths(KAPPA1, N_MC, [MASTER_SEED + i for i in range(PATHS)])


def test_criterion_01_closed_form(table):
    t0 = time.time()
    xs = np.linspace(1.0, 2.0, 1000)
    err = max(abs(rho(table, float(x)) - (1.0 - math.log(x))) for x in xs)
    elapsed = time.time() - t0
    record(1, f"closed form on [1,2], max err {err:.2e} in {elapsed:.2f}s",
           err < 1e-10 and elapsed < 1.0)


def test_criterion_02_mass_identity(table):
    gap = abs(rho_integral(table, 30.0) - math.exp(EULER_GAMMA))
    record(2, f"integral of rho vs e^gamma, gap {gap:.2e}", gap < 1e-6)


def test_criterion_03_difference_identity(table):
    worst = 0.0
    for x in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        lhs = dickman_cdf(table, x) - (dickman_cdf(table, x - 1.0) if x > 1.0 else 0.0)
        worst = max(worst, abs(lhs - x * math.exp(-EULER_GAMMA) * rho(table, x)))
    record(3, f"D(x)-D(x-1) identity, worst {worst:.2e}", worst < 1e-8)


def test_criterion_04_brute_force_oracle():
    t0 = time.time()
    ok = True
    for n in range(2, 13):
        ref: dict[int, Fraction] = {}
        for bits in itertools.product((0, 1), repeat=n - 1):
            v = 1 + sum(k * z for k, z in zip(range(2, n + 1), bits))
            p = Fraction(1)
            for k, z in zip(range(2, n + 1), bits):
                p *= Fraction(1, k) if z else Fraction(k - 1, k)
            ref[v] = ref.get(v, Fraction(0)) + p
        exact = pmf(0, n, mode="exact")
        ok &= {v: p for v, p in enumerate(exact.probs) if p} == ref
        flt = pmf(0, n)
        ok &= all(abs(flt.probs[v] - float(ref.get(v, 0))) < 1e-12
                  for v in range(len(flt.probs)))
    elapsed = time.time() - t0
    record(4, f"enumeration oracle n<=12 in {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_05_convolution():
    worst = 0.0
    for m, n in ((3, 7), (5, 12), (10, 20)):
        gap = np.max(np.abs(pmf(0, n).probs - convolve(pmf(0, m), pmf(m, n)).probs))
        worst = max(worst, float(gap))
    record(5, f"block convolution consistency, worst atom gap {worst:.2e}",
           worst < 1e-12)


def test_criterion_06_cumulant_identities():
    t0 = time.time()
    ok = all(cumulant_explicit(n).coeffs == cumulant_recurrence(n).coeffs
             for n in range(2, 31))
    ok &= all(a_coeff(k, n) == (-1) ** (k + 1) * math.factorial(k) * stirling2(n, k)
              for n in range(1, 21) for k in range(1, n + 1))
    for n in range(2, 31):
        series = cumulant_ratio_series(n)
        poly = cumulant_explicit(n)
        x = Fraction(3, 7)
        ok &= poly.eval_at(x) / x - 1 == sum(
            c * x ** (k - 1) for k, c in zip(range(2, n + 1), series))
    elapsed = time.time() - t0
    record(6, f"exact cumulant identities n<=30 in {elapsed:.2f}s",
           ok and elapsed < 10.0)


def test_criterion_07_local_limit(scan):
    target = math.exp(-EULER_GAMMA)
    errs = [abs(n * scan[n - 1] - target) for n in (125, 250, 500, 1000, 2000)]
    dec = all(a > b for a, b in zip(errs, errs[1:]))
    record(7, f"LLT errors decreasing, e_2000 = {errs[-1]:.2e}",
           dec and errs[-1] < 0.05)


def test_criterion_08_parseval(table):
    powers = power_sum_scan(config.ZS_N_LIST)
    limit = l2_cf_limit(table)
    seq = [2 * math.pi * n * powers[n] for n in config.ZS_N_LIST]
    gaps = [abs(v - limit) for v in seq]
    dec = all(a > b for a, b in zip(gaps, gaps[1:]))
    quad_ok = all(
        abs(2 * math.pi * n * float(np.dot(p := np.asarray(pmf(0, n).probs), p))
            - l2_cf_integral_quad(n)) < 1e-6
        for n in (2, 4, 8))
    record(8, f"Parseval gaps decreasing (final {gaps[-1]:.2e}), quadrature agrees",
           dec and quad_ok)


def test_criterion_09_point_estimate_shape():
    worst = max(audits.stimabase_check(m, n, KAPPA1).ratio
                for m, n in config.stimabase_pairs())
    golden = config.load_golden()["stimabase"]["constant"]
    record(9, f"point-estimate ratio {worst:.4g} vs golden {golden:.4g}",
           worst <= golden * (1 + 1e-9))


def test_criterion_10_zero_band():
    ok = True
    for m, n in ((40, 50), (10, 14), (20, 29), (100, 149)):
        ok &= audits.lemmino_check(KappaSeq(1.0), 0.2, m, n)
    for m, n in ((40, 50), (10, 12), (20, 25), (100, 127)):
        ok &= audits.lemmino_check(KappaSeq(2.0), 0.1, m, n)
    record(10, "zero probability inside the sigma band, both (x, eps) settings", ok)


def test_criterion_11_covariance_regimes():
    golden = config.load_golden()
    diag = near = far = 0.0
    for x in config.COV_X:
        kx = KappaSeq(x, mode="exact-multiple")
        diag = max(diag, *(r.ratio for r in audits.covariance_audit(
            kx, config.cov_diag_pairs(), regime="diag")))
        pairs = audits.cov_near_pairs(x)
        if pairs:
            near = max(near, *(r.ratio for r in audits.covariance_audit(
                kx, pairs, regime="near")))
        far = max(far, *(r.ratio for r in audits.covariance_audit(
            kx, config.cov_far_pairs(), regime="far")))
    ok = (diag <= golden["cov_diag"]["constant"] * (1 + 1e-9)
          and near <= golden["cov_near"]["constant"] * (1 + 1e-9)
          and far <= golden["cov_far"]["constant"] * (1 + 1e-9))
    record(11, f"covariance ratios diag {diag:.3g} / near {near:.3g} / far {far:.3g}",
           ok)


def test_criterion_12_aslt_monte_carlo(mc_paths):
    t0 = time.time()
    mean = float(np.mean([p.log_avg for p in mc_paths]))
    oracle = simulate.hybrid_oracle_mean(N_MC)
    mean_ok = abs(mean - oracle) < 0.1
    disp = simulate.dispersion_diagnostic(
        1.0, [10**4, 10**6], [MASTER_SEED + i for i in range(PATHS)])
    disp_ok = disp[1][1] < disp[0][1]
    rho2 = simulate.estimate_rho(2.0, N_MC, [MASTER_SEED + i for i in range(PATHS)])
    rho_ok = abs(rho2 - (1.0 - math.log(2.0))) < 0.1
    elapsed = time.time() - t0
    record(12, f"ASLLT mean gap {abs(mean - oracle):.3f}, dispersion shrinks, "
               f"rho(2) est {rho2:.3f} ({elapsed:.0f}s)",
           mean_ok and disp_ok and rho_ok and elapsed < 300)


def test_criterion_13_mc_dp_consistency():
    draws = 10**6
    counts = simulate.sample_sum_counts(50, draws, seed=MASTER_SEED)
    probs = np.asarray(pmf(0, 50).probs)
    heavy = np.argsort(probs)[::-1][:20]
    worst_z = max(abs(counts[v] - draws * probs[v])
                  / math.sqrt(draws * probs[v] * (1 - probs[v])) for v in heavy)
    record(13, f"T_50 frequencies vs DP, worst z {worst_z:.2f}", worst_z < 4.0)


def test_criterion_14_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli_main(["aslt", "--N", "50000", "--paths", "4",
                         "--seed", "17", "--output", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    code = cli_main(["llt-table", "--n", "125,250",
                     "--output", str(tmp_path / "c.csv")])
    code2 = cli_main(["llt-table", "--n", "125,250",
                      "--output", str(tmp_path / "d.csv")])
    ok &= (code == code2 == 0
           and (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes())
    record(14, "byte-identical reports for identical configs", ok)
