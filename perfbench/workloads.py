"""The benchmark's four workloads and the checks on their outputs.

NOTES.md says why each workload exists and which layer metric should move
which end-to-end metric.  A workload draws its inputs from the seed once,
in ``__init__``; ``run_pass`` then makes the same library calls on every
pass and records one check per verified output in a ``Recorder``.  Calls
go through module attributes (``audits.llt_table``, never a name imported
into this file) so that the tracer's wrappers see them.

``min_passes`` is the fewest passes of an end-to-end run: three for the
in-process workloads, whose first pass in a process runs slower, so that
the median is a steady pass; two for cli_reports, whose every pass starts
fresh processes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import digamma

from dickmanlab import audits, config, cumulants, dickman, exact_dist, simulate, spectral

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"

# Monte Carlo estimates must lie within this many across-path standard
# errors of their reference value.
Z_MC = 5.0

# A subprocess that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 60


class Recorder:
    """One pass's checked operations and the latency of each library call."""

    def __init__(self):
        self.checks: list[tuple[str, bool]] = []
        self.errors: list[str] = []
        self.times: dict[str, float] = {}

    def call(self, label: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)``; an exception is logged and gives None."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing library call is a failed operation
            self.errors.append(f"{label}: {exc!r}")
            return None
        finally:
            self.times[label] = self.times.get(label, 0.0) + time.perf_counter() - t0

    def check(self, label: str, predicate) -> None:
        """Record one verified output; a predicate that raises counts as failed."""
        try:
            ok = bool(predicate())
        except Exception as exc:  # e.g. the checked call returned None
            self.errors.append(f"check {label}: {exc!r}")
            ok = False
        self.checks.append((label, ok))


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def pmf_cache():
    """The law cache the audits share, or None if the library has none."""
    return getattr(audits, "_pmf_cached", None)


def clear_pmf_cache() -> None:
    # A user pays for filling the cache once per process; each pass does too.
    cache = pmf_cache()
    if cache is not None:
        cache.cache_clear()


# ------------------------------------------------------------- calibration

def golden_matches(computed, golden: dict, rel: float = 1e-12) -> list[tuple[str, bool]]:
    """For each golden constant: does the computed one equal it to ``rel``?"""
    return [(name, computed is not None and name in computed
             and close(computed[name], entry["constant"], rel))
            for name, entry in sorted(golden.items())]


class Calibration:
    """audits.run_calibration on the versioned grids, checked against golden."""

    name = "calibration"
    min_passes = 3

    def __init__(self, seed: int, table, root: Path):
        # The grids are fixed by the golden grid hash: the seed changes nothing.
        self.table = table
        self.golden = config.load_golden()

    def sizes(self) -> dict:
        return {
            "stimabase_pairs": len(config.stimabase_pairs()),
            "w1_pairs": len(config.W1_PAIRS),
            "w2_pairs": len(config.W2_PAIRS),
            "cov_far_pairs": len(config.cov_far_pairs()),
            "gamma_kernel_u_points": 10001,
            "golden_constants": len(self.golden),
        }

    def run_pass(self, rec: Recorder) -> None:
        clear_pmf_cache()
        consts = rec.call("run_calibration", audits.run_calibration, self.table)
        for name, ok in golden_matches(consts, self.golden):
            rec.check(f"golden {name}", lambda ok=ok: ok)
        problems = rec.call("check_golden", audits.check_golden, consts, self.golden)
        rec.check("check_golden", lambda: problems == [])


# ---------------------------------------------------------- large_n_tables

LLT1_N = (150, 300, 600, 1250, 2500, 5000, 10000, 20000)
LLT_DOUBLE_N = (150, 300, 600, 1000, 2000, 4000)
ZS_N = (150, 300, 600, 1500)
ORACLE_N = (150, 300, 600)  # full laws pmf(0, n) used as the second route
BLOCK_N = 1500
ALPHA_J = range(1, 9)


def draw_slope(rng: random.Random) -> float:
    """A double slope in [1.5, 3] with three decimals, as a user would type it.

    ``KappaSeq`` pins a float to ``Fraction(str(x))``.  A slope with 17
    significant digits has a numerator near 10^16, and ``KappaSeq.values``
    then wraps its int64 product ``p * n`` from n of a few hundred on
    (ROADMAP item 4(b)); with three decimals the numerator stays below 3001
    and every target of these workloads is exact.
    """
    return rng.randint(1500, 3000) / 1000


def alpha_float(m: int, n: int, j: int) -> float:
    """alpha_j in floating point from the recurrence form of c_j."""
    coeffs = np.array(cumulants.cumulant_recurrence(j).coeffs, dtype=float)
    ks = np.arange(m + 1, n + 1, dtype=float)
    vals = np.polynomial.polynomial.polyval(1.0 / ks, coeffs)
    return float(np.sum(ks ** (j - 1) * (ks * vals - 1.0)) / (n - m))


class LargeNTables:
    """Audit rows at about twice the calibration's largest n."""

    name = "large_n_tables"
    min_passes = 3

    def __init__(self, seed: int, table, root: Path):
        rng = random.Random(seed)
        self.table = table
        self.x_double = draw_slope(rng)
        self.m = rng.randint(2, 20)
        self.kappa1 = exact_dist.KappaSeq(1, mode="exact-multiple")
        self.kappa_double = exact_dist.KappaSeq(self.x_double)

    def sizes(self) -> dict:
        return {"llt_x1_n": list(LLT1_N), "llt_double_x": self.x_double,
                "llt_double_n": list(LLT_DOUBLE_N), "zs_n": list(ZS_N),
                "oracle_n": list(ORACLE_N), "block": [self.m, BLOCK_N],
                "alpha_j": list(ALPHA_J)}

    def _llt(self, rec, label, kappa, n_list, oracles) -> None:
        rows = rec.call(label, audits.llt_table, kappa, n_list, self.table)
        for i, n in enumerate(n_list):
            def ok(i=i, n=n):
                row, k = rows[i], kappa(n)
                good = (row.n == n and row.kappa_n == k and math.isfinite(row.lhs)
                        and row.lhs >= 0.0 and int(kappa.values([n])[0]) == k)
                if n in oracles:
                    good = good and close(row.lhs, n * exact_dist.prob_at(oracles[n], k), 1e-12)
                return good
            rec.check(f"{label} n={n}", ok)

    def run_pass(self, rec: Recorder) -> None:
        clear_pmf_cache()
        oracles = {}
        for n in ORACLE_N:
            oracles[n] = rec.call(f"pmf 0,{n}", exact_dist.pmf, 0, n)
            rec.check(f"mass 0,{n}", lambda d=oracles[n]: abs(math.fsum(d.probs) - 1.0) <= 1e-12)
        self._llt(rec, "llt_table x=1", self.kappa1, LLT1_N, oracles)
        self._llt(rec, "llt_table double", self.kappa_double, LLT_DOUBLE_N, oracles)

        powers = rec.call("power_sum_scan", exact_dist.power_sum_scan, ZS_N)
        for n in ZS_N:
            row = rec.call(f"zs_check {n}",
                           lambda n=n: audits.zs_check(n, self.table, power=powers[n]))
            if n in oracles:
                d = oracles[n]
                rec.check(f"power_sum {n}", lambda n=n, d=d: close(
                    powers[n], exact_dist.power_sum(d), 1e-12))
                rec.check(f"zs {n}", lambda row=row, d=d: close(
                    row.lhs, spectral.l2_cf_integral(d), 1e-12))
            else:
                rec.check(f"zs {n}", lambda row=row: math.isfinite(row.lhs) and row.lhs > 0.0)

        m, n = self.m, BLOCK_N
        srow = rec.call("stimabase_check", audits.stimabase_check, m, n, self.kappa1)
        rec.check("stimabase", lambda: math.isfinite(srow.ratio) and srow.lhs >= 0.0)
        wrow = rec.call("w2_check", audits.w2_check, m, n, self.table)
        rec.check("w2", lambda: 0.0 <= wrow.lhs <= 1.0)
        for j in ALPHA_J:
            a = rec.call(f"alpha_j {j}", cumulants.alpha_j, m, n, j)
            rec.check(f"alpha_j {j}", lambda a=a, j=j: abs(a - alpha_float(m, n, j))
                      <= 1e-9 * max(abs(a), 1.0))


# ------------------------------------------------------------- monte_carlo

MC_N = 10**6
MC_DISPERSION_N = (10**4, 10**5, 10**6, 10**7)
MC_PATHS = 12
RHO_GROUPS, RHO_GROUP_PATHS = 8, 4
RATIO_HEAD_N = 300


def ratio_expectation(table, x: float, N: int, oracle_mean: float) -> float:
    """Expected value of estimate_rho(x, N) over paths, rho(x) plus its bias.

    ``oracle_mean`` is ``simulate.hybrid_oracle_mean(N)``.  The estimator is
    the ratio of the hits on floor(x n) to the hits on n;
    at N = 10^6 the ratio still differs from rho(x) by up to 20%.  Each
    expected hit count is the exact head sum of P(T_n = kappa_n) plus the
    limiting exp(-gamma) rho(x) / n tail.  The head stops at n = 300; a
    longer head changes the result by less than 1e-4 relative.
    """
    head = float(exact_dist.point_prob_scan(exact_dist.KappaSeq(x), RATIO_HEAD_N).sum())
    tail = math.exp(-dickman.EULER_GAMMA) * float(digamma(N + 1) - digamma(RATIO_HEAD_N + 1))
    num = head + tail * dickman.rho(table, x)
    return num / (oracle_mean * math.log(N))


class MonteCarlo:
    """Seed-keyed paths through every simulate estimator."""

    name = "monte_carlo"
    min_passes = 3

    def __init__(self, seed: int, table, root: Path):
        rng = random.Random(seed)
        self.table = table
        self.x_double = draw_slope(rng)
        self.seeds = [rng.getrandbits(32) for _ in range(MC_PATHS)]
        self.rho_groups = [[rng.getrandbits(32) for _ in range(RHO_GROUP_PATHS)]
                           for _ in range(RHO_GROUPS)]

    def steps_per_pass(self) -> int:
        return (MC_N * MC_PATHS + max(MC_DISPERSION_N) * MC_PATHS
                + MC_N * RHO_GROUPS * RHO_GROUP_PATHS)

    def sizes(self) -> dict:
        return {"N": MC_N, "paths": MC_PATHS, "dispersion_N": list(MC_DISPERSION_N),
                "rho_x": self.x_double, "rho_groups": RHO_GROUPS,
                "rho_group_paths": RHO_GROUP_PATHS, "steps_per_pass": self.steps_per_pass()}

    def run_pass(self, rec: Recorder) -> None:
        est = rec.call("estimate_gamma", simulate.estimate_gamma, MC_N, self.seeds)
        disp = rec.call("dispersion_diagnostic", simulate.dispersion_diagnostic,
                        1.0, MC_DISPERSION_N, self.seeds)
        oracle = rec.call("hybrid_oracle_mean", simulate.hybrid_oracle_mean, MC_N)
        rec.check("dispersion", lambda: [N for N, _ in disp] == list(MC_DISPERSION_N)
                  and all(math.isfinite(s) and s > 0.0 for _, s in disp))

        # dispersion_diagnostic runs the same (seed, stream) paths as
        # estimate_gamma, so its spread at N is the spread of the paths
        # averaged there; np.std has ddof 0, hence P - 1.
        def se_mean():
            return dict(disp)[MC_N] / math.sqrt(MC_PATHS - 1)

        rec.check("mean vs hybrid_oracle_mean",
                  lambda: abs(est[1] - oracle) <= Z_MC * se_mean())
        # The log-average converges at log speed; its bias at N is known
        # from the oracle and is allowed on top of the sampling error.
        rec.check("gamma vs EULER_GAMMA", lambda: abs(est[0] - dickman.EULER_GAMMA)
                  <= Z_MC * se_mean() / est[1] + abs(-math.log(oracle) - dickman.EULER_GAMMA))

        ratios = [rec.call("estimate_rho", simulate.estimate_rho, self.x_double, MC_N, g)
                  for g in self.rho_groups]
        want = rec.call("rho reference", ratio_expectation, self.table, self.x_double,
                        MC_N, oracle)
        rec.check("rho vs rho(table, x)", lambda: abs(statistics.fmean(ratios) - want)
                  <= Z_MC * statistics.stdev(ratios) / math.sqrt(RHO_GROUPS))


# ------------------------------------------------------------- cli_reports

CLI_COMMANDS = (
    ("stimabase", "--golden", "check"),
    ("w2", "--golden", "check"),
    ("cov-audit", "--regime", "diag", "--golden", "check"),
    ("cov-audit", "--regime", "near", "--golden", "check"),
    ("cov-audit", "--regime", "far", "--golden", "check"),
    ("zs",),
    ("llt-table",),
    ("lemmino", "--x", "1", "--eps", "0.2", "--m", "40", "--n", "50"),
    ("cumulants", "--n", "6"),
    ("rho", "--x", "1.5,2,3"),
    ("llt-table", "--format", "json"),
)


def report_ok(returncode: int, stdout: bytes, digest: str) -> bool:
    """A report passes when it exits 0 with exactly the recorded stdout bytes."""
    return returncode == 0 and hashlib.sha256(stdout).hexdigest() == digest


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliReports:
    """The default audit and table subcommands, one subprocess each."""

    name = "cli_reports"
    min_passes = 2

    def __init__(self, seed: int, table, root: Path):
        self.root = root
        self.env = child_env(root)
        self.order = random.Random(seed).sample(CLI_COMMANDS, len(CLI_COMMANDS))
        self.digests = json.loads(DIGESTS.read_text())
        # Set by run.py for traced passes: each child then writes its spans
        # to a file in trace_dir, listed with its argv in child_files.
        self.trace_dir: Path | None = None
        self.child_files: list[tuple[tuple, Path]] = []

    def sizes(self) -> dict:
        return {"commands": [" ".join(c) for c in self.order]}

    def command(self, argv: tuple) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "dickmanlab.cli", *argv]
        out = self.trace_dir / f"child-{len(self.child_files)}.json"
        self.child_files.append((argv, out))
        return [sys.executable, str(HERE / "cli_child.py"), str(out), *argv]

    def run_pass(self, rec: Recorder) -> None:
        for argv in self.order:
            key = " ".join(argv)
            proc = rec.call(key, subprocess.run, self.command(argv), cwd=self.root,
                            env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
            rec.check(key, lambda: report_ok(proc.returncode, proc.stdout, self.digests[key]))


def record_digests(root: Path) -> dict:
    """sha256 of each subcommand's stdout at the current source tree."""
    out = {}
    for argv in CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "dickmanlab.cli", *argv], cwd=root,
                              env=child_env(root), capture_output=True, check=True)
        out[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    return out


WORKLOADS = {w.name: w for w in (Calibration, LargeNTables, MonteCarlo, CliReports)}
