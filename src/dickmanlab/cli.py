"""Command-line front door: one subcommand per computation or audit.

Reports are CSV (17 significant digits, header row) or JSON carrying the
full config for provenance, with null for a non-finite float.  Exit
codes: 0 success, 1 audit regression or failed audit, 2 usage error, an
unwritable file or a law too large for memory, each reported as one
``error:`` line with nothing on stdout and the golden file unchanged.
Reports contain no timestamps, so a fixed config yields byte-identical
output.  Each subcommand imports the numeric modules it uses when it
runs, so ``--help``, a usage error and ``cumulants`` never load numpy.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import config

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _finite(v):
    """v with each non-finite float in it as None, JSON's null (JSON has no NaN)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, (list, tuple)):
        return [_finite(u) for u in v]
    return {k: _finite(u) for k, u in v.items()} if isinstance(v, dict) else v


def _report(args, header, rows) -> str:
    if args.format == "json":
        cfg = {k: v for k, v in vars(args).items()
               if k not in ("func", "output", "format") and v is not None}
        payload = {"command": args.command, "config": cfg,
                   "rows": [dict(zip(header, r)) for r in rows]}
        return json.dumps(_finite(payload), indent=2, default=_fmt) + "\n"
    return "".join(",".join(map(_fmt, r)) + "\n" for r in [header, *rows])


def _output(args):
    """The report stream: the ``--output`` file opened for writing, or stdout."""
    return open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout)


def _emit(args, header, rows) -> int:
    text = _report(args, header, rows)
    with _output(args) as out:
        out.write(text)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _kappa(x: float, mode: str | None):
    from .exact_dist import KappaSeq

    if x < 1.0:
        print(f"warning: x={x} < 1, kappa need not be strictly increasing",
              file=sys.stderr)
    return KappaSeq(x, mode=mode or "floor")


def _table(args):
    from . import dickman

    return dickman.build_rho_table(x_max=args.xmax, step=args.step)


# ---------------------------------------------------------------- subcommands

def cmd_rho(args) -> int:
    from .dickman import dickman_cdf, dickman_density, rho

    table = _table(args)
    rows = [(x, rho(table, x), dickman_density(table, x), dickman_cdf(table, x))
            for x in args.x]
    return _emit(args, ("x", "rho", "density", "cdf"), rows)


def cmd_pmf(args) -> int:
    from .exact_dist import pmf

    dist = pmf(args.m, args.n, mode=args.mode)
    rows = [(v, float(p)) for v, p in enumerate(dist.probs) if p != 0]
    return _emit(args, ("value", "probability"), rows)


def cmd_llt_table(args) -> int:
    from . import audits

    table = _table(args)
    kappa = _kappa(args.x, args.kappa_mode)
    rows = audits.llt_table(kappa, args.n, table)
    out = [(r.n, r.lhs, r.envelope, abs(r.lhs - r.envelope)) for r in rows]
    return _emit(args, ("n", "n_times_prob", "target", "abs_error"), out)


def _audit(args):
    from . import audits

    return audits.AUDITS[f"cov_{args.regime}" if args.command == "cov-audit" else args.command]


def cmd_audit(args) -> int:
    """stimabase, w2 and cov-audit: one registry audit's rows and golden gate.

    Without ``--golden`` the rows are the audit's on the cells asked for.
    With it, one ``calibrate`` of this audit gives the rows at ``--x`` and
    the constant over all its slopes, which check and regenerate both gate
    in ``--golden-file``, or in the packaged file when it is unset.
    """
    from . import audits

    audit = _audit(args)
    x = getattr(args, "x", 1.0)
    table = _table(args) if hasattr(args, "xmax") else None  # only w2 reads it
    if args.golden == "off":
        pairs = [(args.m, args.n)] if args.m is not None else audit.pairs(x)
        rows = audit.rows(pairs, _kappa(x, getattr(args, "kappa_mode", None)), table)
    else:
        constant, rows_at = audits.calibrate([audit], table)[audit.key]
        rows = rows_at[x]
    if not rows:
        raise ValueError(f"no {audit.key} grid cells at x={x}")
    text = _report(args, [*audits.AuditRow._fields, "ratio"], [(*r, r.ratio) for r in rows])
    problems = []
    # The output opens before the gate and is written after it, so a run
    # that exits 2 leaves the golden file as it was, or prints nothing.
    with _output(args) as out:
        if args.golden == "regenerate":
            audits.record_golden(audit.key, constant, args.golden_file)
        elif args.golden == "check":
            golden = config.load_golden(args.golden_file)
            problems = audits.check_golden({audit.key: constant}, golden)
        out.write(text)
    for p in problems:
        print(f"golden regression: {p}", file=sys.stderr)
    return EXIT_REGRESSION if problems else EXIT_OK


def cmd_zs(args) -> int:
    from . import audits
    from .exact_dist import power_sum_scan

    table = _table(args)
    powers = power_sum_scan(args.n)
    rows = [audits.zs_check(n, table, power=powers[n]) for n in sorted(powers)]
    out = [(r.n, r.lhs, r.envelope, abs(r.lhs - r.envelope)) for r in rows]
    return _emit(args, ("n", "l2_integral", "limit", "gap"), out)


def cmd_lemmino(args) -> int:
    from . import audits

    kappa = _kappa(args.x, args.kappa_mode)
    ok = audits.lemmino_check(kappa, args.eps, args.m, args.n)
    _emit(args, ("m", "n", "x", "eps", "zero_probability"),
          [(args.m, args.n, args.x, args.eps, ok)])
    return EXIT_OK if ok else EXIT_REGRESSION


def cmd_cumulants(args) -> int:
    from .cumulants import a_coeff, cumulant_explicit

    poly = cumulant_explicit(args.n)
    rows = [("coeff", args.n, i, str(c)) for i, c in enumerate(poly.coeffs)]
    rows += [("a", args.n, k, str(a_coeff(k, args.n))) for k in range(args.n + 1)]
    return _emit(args, ("kind", "n", "index", "value"), rows)


def _seeds(args) -> list[int]:
    return [args.seed + i for i in range(args.paths)]


def cmd_aslt(args) -> int:
    from . import simulate

    kappa = _kappa(args.x, args.kappa_mode)
    paths = simulate.simulate_paths(kappa, args.N, _seeds(args))
    rows = [(i, p.seed, p.N, p.hits, p.log_avg) for i, p in enumerate(paths)]
    return _emit(args, ("path", "seed", "N", "hits", "log_avg"), rows)


def cmd_estimate_gamma(args) -> int:
    from . import simulate

    gamma_est, raw_mean = simulate.estimate_gamma(args.N, _seeds(args))
    return _emit(args, ("N", "paths", "gamma_estimate", "mean_log_avg"),
                 [(args.N, args.paths, gamma_est, raw_mean)])


def cmd_estimate_rho(args) -> int:
    from . import simulate

    est = simulate.estimate_rho(args.x, args.N, _seeds(args))
    return _emit(args, ("x", "N", "paths", "rho_estimate"), [(args.x, args.N, args.paths, est)])


def cmd_dispersion(args) -> int:
    from . import simulate

    rows = simulate.dispersion_diagnostic(args.x, args.N, _seeds(args))
    return _emit(args, ("N", "std_log_avg"), rows)


# -------------------------------------------------------------------- parser

def _add_common(p, kappa=False, table=False, golden=False, sim=False):
    if kappa:
        p.add_argument("--kappa-mode", choices=("floor", "round", "exact-multiple"))
    if table:
        p.add_argument("--xmax", type=float, default=30.0)
        p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output file (default: stdout)")
    if golden:
        p.add_argument("--golden", choices=("off", "check", "regenerate"),
                       default="off")
        p.add_argument("--golden-file", metavar="PATH",
                       help="golden file to check or regenerate (default: the packaged one)")
    if sim:
        p.add_argument("--N", type=int, default=10**6)
        p.add_argument("--seed", type=int, default=20260823)
        p.add_argument("--paths", type=int, default=32)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dickmanlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="Dickman rho, density and CDF values")
    p.add_argument("--x", type=lambda s: [float(v) for v in s.split(",")],
                   required=True)
    _add_common(p, table=True)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("pmf", help="exact law of the weighted Bernoulli sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--mode", choices=("float", "exact"), default="float")
    _add_common(p)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("llt-table", help="point-probability convergence table")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--n", type=_int_list, default=list(config.LLT_N_LIST))
    _add_common(p, kappa=True, table=True)
    p.set_defaults(func=cmd_llt_table)

    p = sub.add_parser("stimabase", help="point estimate vs window-mass audit")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    _add_common(p, kappa=True, golden=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("w2", help="Kolmogorov distance vs envelope audit")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    _add_common(p, table=True, golden=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("zs", help="L2 characteristic-function integral checkpoints")
    p.add_argument("--n", type=_int_list, default=list(config.ZS_N_LIST))
    _add_common(p, table=True)
    p.set_defaults(func=cmd_zs)

    p = sub.add_parser("lemmino", help="zero-probability band check")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, kappa=True)
    p.set_defaults(func=cmd_lemmino)

    p = sub.add_parser("cov-audit", help="covariance bound audit by regime")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--regime", choices=("diag", "near", "far"), default="far")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    _add_common(p, kappa=True, golden=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("cumulants", help="exact cumulant polynomial tables")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("aslt", help="per-path log-average simulation")
    p.add_argument("--x", type=float, default=1.0)
    _add_common(p, kappa=True, sim=True)
    p.set_defaults(func=cmd_aslt)

    p = sub.add_parser("estimate-gamma", help="Euler constant estimator")
    _add_common(p, sim=True)
    p.set_defaults(func=cmd_estimate_gamma)

    p = sub.add_parser("estimate-rho", help="rho(x) ratio estimator")
    p.add_argument("--x", type=float, required=True)
    _add_common(p, sim=True)
    p.set_defaults(func=cmd_estimate_rho)

    p = sub.add_parser("dispersion", help="across-path dispersion diagnostic")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--N", type=_int_list, default=[10**4, 10**6])
    p.add_argument("--seed", type=int, default=20260823)
    p.add_argument("--paths", type=int, default=32)
    _add_common(p)
    p.set_defaults(func=cmd_dispersion)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.func is cmd_audit and (args.m is None) != (args.n is None):
        ap.error("--m requires --n" if args.n is None else "--n requires --m")
    if args.func is cmd_audit and args.golden != "off" and (
            args.m is not None or getattr(args, "x", 1.0) not in _audit(args).slopes
            or getattr(args, "kappa_mode", None) not in (None, "floor")):
        ap.error(f"--golden needs the default grid, floor kappa and x in {_audit(args).slopes}")
    golden_file = getattr(args, "golden_file", None)
    if golden_file and args.golden == "check" and not os.path.isfile(golden_file):
        ap.error(f"--golden-file {golden_file} is not a file")
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
