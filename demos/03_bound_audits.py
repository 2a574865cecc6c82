"""Audit the quantitative bounds against the exact distributions.

Every left-hand side comes from DP-exact probabilities; the envelopes
carry calibrated constants stored in the package golden file.
"""
from dickmanlab import KappaSeq, build_rho_table
from dickmanlab import audits, config
from dickmanlab.exact_dist import power_sum_scan


def show(rows):
    print(f"  {'m':>4} {'n':>5} {'lhs':>12} {'envelope':>12} {'ratio':>10}")
    for r in rows:
        print(f"  {r.m:>4} {r.n:>5} {r.lhs:>12.6g} {r.envelope:>12.6g} {r.ratio:>10.4g}")


def main():
    table = build_rho_table()
    kappa = KappaSeq(1, mode="exact-multiple")

    print("point estimate vs window mass, envelope (1+log(n/m))/sqrt(n-m):")
    show(audits.AUDITS["stimabase"].rows(config.stimabase_pairs()[:6], kappa, None))
    print()

    print("Kolmogorov distance vs g envelope:")
    show(audits.AUDITS["w2"].rows(config.W2_PAIRS, kappa, table))
    print()

    print("L2 characteristic-function integral vs its limit:")
    powers = power_sum_scan(config.ZS_N_LIST)
    for r in [audits.zs_check(n, table, powers[n]) for n in config.ZS_N_LIST]:
        print(f"  n={r.n:4d}: {r.lhs:.6f} -> {r.envelope:.6f} (gap {abs(r.lhs - r.envelope):.4f})")
    print()

    print("zero-probability band (x=1, eps=0.2, sigma=1.5):")
    for m, n in ((10, 14), (40, 50), (100, 149)):
        print(f"  (m={m}, n={n}): P = 0 exactly -> {audits.lemmino_check(kappa, 0.2, m, n)}")
    print()

    print("covariance regimes (x=1):")
    show(audits.covariance_audit(kappa, config.cov_diag_pairs(), regime="diag"))
    show(audits.covariance_audit(kappa, config.cov_far_pairs()[:6], regime="far"))
    print()

    print("golden constants:", {k: round(v["constant"], 5)
                                for k, v in config.load_golden().items()})


if __name__ == "__main__":
    main()
