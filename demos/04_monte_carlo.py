"""Monte Carlo reproduction of the almost-sure log-average convergence.

Simulates independent paths of the Z sequence, counts hits {T_n = n},
and compares the log-averages with the hybrid reference value (exact DP
head plus the limiting tail).  Also runs the ratio estimator for rho(x),
against its expected value at this N (the same head-plus-tail sum for
both hit counts) and against its limit rho(x).
"""
import argparse
import math

import numpy as np

from dickmanlab import EULER_GAMMA, KappaSeq
from dickmanlab import simulate as sim
from dickmanlab.exact_dist import point_prob_scan


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=10**6)
    ap.add_argument("--paths", type=int, default=16)
    ap.add_argument("--seed", type=int, default=12345)
    args = ap.parse_args()

    seeds = [args.seed + i for i in range(args.paths)]
    kappa = KappaSeq(1, mode="exact-multiple")
    log_avgs = [p.log_avg for p in sim.simulate_paths(kappa, args.N, seeds)]
    oracle = sim.hybrid_oracle_mean(args.N)

    print(f"{args.paths} paths at N = {args.N}:")
    print(f"  per-path log-averages: min {min(log_avgs):.4f}, "
          f"max {max(log_avgs):.4f}, mean {np.mean(log_avgs):.4f}")
    print(f"  hybrid reference mean: {oracle:.4f}")
    print(f"  limit e^-gamma:        {math.exp(-EULER_GAMMA):.4f}")
    print()

    g_est, raw = sim.estimate_gamma(args.N, seeds)
    print(f"Euler constant estimate: {g_est:.4f} (true {EULER_GAMMA:.4f})")
    print()

    # Expected hits on kappa: the exact head up to n = 2000, then the
    # limiting exp(-gamma) rho(x) / n tail, which the hybrid reference
    # gives for x = 1.
    head_1 = float(point_prob_scan(kappa, 2000).sum())
    tail = oracle * math.log(args.N) - head_1
    for x in (1.5, 2.0):
        est = sim.estimate_rho(x, args.N, seeds)
        rho_x = 1 - math.log(x)
        head_x = float(point_prob_scan(KappaSeq(x), 2000).sum())
        expected = (head_x + tail * rho_x) / (head_1 + tail)
        print(f"rho({x}) ratio estimate: {est:.4f} "
              f"(expected at this N {expected:.4f}, limit rho({x}) {rho_x:.4f})")
    print()

    disp = sim.dispersion_diagnostic(1.0, [10**4, args.N], seeds)
    print("across-path dispersion of the log-average:")
    for N, s in disp:
        print(f"  N={N:8d}: {s:.4f}")


if __name__ == "__main__":
    main()
