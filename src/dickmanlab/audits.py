"""Numerical audits of the limit theorems and quantitative bounds.

Every left-hand side here comes from the exact DP distributions, never
from simulation.  Each audit reports AuditRow records (identifiers, lhs,
envelope, ratio).  AUDITS holds one record per golden constant: its
default grid from config, how it plans its rows and the solver for the
smallest constant making the bound hold there.  run_calibration and the
CLI's golden gate both go through it.

Audits plan, then read.  An audit's plan validates its cells and states
every DP law its rows read as an (m, n, cap) request; one ``_laws`` sweep
builds the book {(m, n, cap): law}, and the plan's reader takes its rows
from it.  run_calibration builds one book for every audit and slope at
once; otherwise ``Audit.rows`` builds a book of its own, and each one-cell
function (``stimabase_check``, ``w2_check``, ``covariance_audit``,
``gamma_kernel_sup``) is its entry's rows on one cell.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config
from .dickman import RhoTable, dickman_density
from .exact_dist import (
    KappaSeq,
    Pmf,
    _cov_atoms,
    _covariances,
    _kolmogorov_cap,
    _laws,
    _point_probs,
    kolmogorov_distance,
    pmf,  # unused here; perfbench's tracer test reads it as audits.pmf
)
from .spectral import (Envelope, chi, f_envelope, g_envelope, gamma_grids, l2_cf_limit,
                       l2_cf_parseval, phi_T, phi_dickman)


@dataclass(frozen=True)
class AuditRow:
    """One audited grid cell: identifiers, measured lhs, envelope, ratio."""

    label: str
    m: int
    n: int
    x: float
    kappa_m: int
    kappa_n: int
    lhs: float
    envelope: float
    ratio: float = field(default=float("nan"))

    def __post_init__(self):
        if math.isnan(self.ratio):
            r = self.lhs / self.envelope if self.envelope > 0 else float("inf")
            object.__setattr__(self, "ratio", r)


def llt_table(kappa: KappaSeq, n_list, table: RhoTable) -> list[AuditRow]:
    """Point-probability convergence: lhs = n P(T_n = kappa_n), target e^-g rho(x).

    One DP sweep reads every requested n (``_point_probs``, whose cost
    stays linear in n for dense and sparse rows alike), so each lhs is
    n * point_prob_scan(kappa, n)[n - 1] bit for bit.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        raise ValueError("need at least one n")
    if n_list[0] < 1:
        raise ValueError(f"all n must be >= 1, got {n_list[0]}")
    x = kappa.x_float
    target = dickman_density(table, x)
    return [AuditRow("llt", 0, n, x, 0, kappa(n), n * p, target)
            for n, p in zip(n_list, _point_probs(kappa, n_list))]


def stimabase_check(m: int, n: int, kappa: KappaSeq) -> AuditRow:
    """Point probability against a window mass, envelope (1+log(n/m))/sqrt(n-m).

    lhs = | d P(T_m^n = d) - P(d - n < T_m^n <= d - (m+1)) |  with
    d = kappa_n - kappa_m; only the law on 0..d, all the check reads, is built.
    """
    return AUDITS["stimabase"].rows([(m, n)], kappa, None)[0]


def _stimabase_plan(pairs, kappa, table):
    """stimabase_check at every (m, n) pair: its law requests and their reader."""
    cells = []
    for m, n in pairs:
        if not (2 <= m < n):
            raise ValueError(f"need 2 <= m < n, got m={m}, n={n}")
        km, kn = kappa(m), kappa(n)
        if kn - km <= 0:
            raise ValueError(f"degenerate target: kappa_n - kappa_m = {kn - km}")
        cells.append((m, n, km, kn, kn - km))

    def read(book) -> list[AuditRow]:
        rows = []
        for m, n, km, kn, d in cells:
            probs = book[m, n, d]
            lo = max(d - n + 1, 0)  # first value strictly above d - n
            hi = min(d - (m + 1), len(probs) - 1)
            window = float(probs[lo : hi + 1].sum()) if hi >= lo else 0.0
            point = float(probs[d]) if d < len(probs) else 0.0
            lhs = abs(d * point - window)
            env = (1.0 + math.log(n / m)) / math.sqrt(n - m)
            rows.append(AuditRow("stimabase", m, n, kappa.x_float, km, kn, lhs, env))
        return rows

    return [(m, n, d) for m, n, _, _, d in cells], read


def _w1_plan(pairs, kappa, table):
    """|phi_{T/(n-m)}(t) - phi(t)| against the f envelope at every pair, in order.

    phi_dickman is evaluated once per t for all pairs.
    """
    envs = [Envelope(m, n) for m, n in pairs]

    def read(book) -> list[AuditRow]:
        ts = np.linspace(-config.W1_T_SPAN, config.W1_T_SPAN, config.W1_T_POINTS)
        cf = [phi_dickman(float(t)) for t in ts]
        rows = []
        for env in envs:
            m, n = env.m, env.n
            vals = phi_T(m, n, ts / (n - m))
            rows += [AuditRow("w1", m, n, float(t), 0, 0, abs(v - c), f_envelope(env, t))
                     for t, v, c in zip(ts, vals, cf)]
        return rows

    return [], read


def w2_check(m: int, n: int, table: RhoTable) -> AuditRow:
    """Kolmogorov distance of T_m^n/(n-m) to the Dickman CDF vs g envelope."""
    return AUDITS["w2"].rows([(m, n)], None, table)[0]


def _w2_plan(pairs, kappa, table: RhoTable):
    """w2_check at every pair: each law stops at its ``_kolmogorov_cap``."""
    envs = [Envelope(m, n) for m, n in pairs]
    requests = [(e.m, e.n, _kolmogorov_cap(table, e.m, e.n)) for e in envs]

    def read(book) -> list[AuditRow]:
        return [AuditRow("w2", m, n, float("nan"), 0, 0,
                         kolmogorov_distance(Pmf(m, n, book[m, n, cap], "float"), table),
                         g_envelope(env))
                for env, (m, n, cap) in zip(envs, requests)]

    return requests, read


def zs_check(n: int, table: RhoTable, power: float) -> AuditRow:
    """L2 characteristic-function integral 2 pi n sum P^2 against its limit; power = sum P^2."""
    return AuditRow("zs", 0, n, float("nan"), 0, 0, l2_cf_parseval(n, power),
                    l2_cf_limit(table))


def sigma_band(x: float, eps: float) -> float:
    """Band edge sigma = (1 + x(1-eps)) / (x(1+eps))."""
    if not (0 < eps < 1.0 / (2.0 * x)):
        raise ValueError(f"need 0 < eps < 1/(2x), got eps={eps}, x={x}")
    return (1.0 + x * (1.0 - eps)) / (x * (1.0 + eps))


def lemmino_check(kappa: KappaSeq, eps: float, m: int, n: int) -> bool:
    """True iff P(T_m^n = kappa_n - kappa_m) is exactly zero, x the slope of kappa.

    Inside the band m < n < sigma*m the increment target lands in the
    support gap [1, m], so the probability vanishes identically.  Exact:
    bit v of ``reach`` is set iff some subset of the weights m+1..n sums
    to v, and with m >= 1 every subset has positive probability.
    """
    x = kappa.x_float
    sigma = sigma_band(x, eps)
    if not (m < n < sigma * m):
        raise ValueError(f"(m={m}, n={n}) outside the band m < n < {sigma * m:.6g}")
    for j in (m, n):
        if abs(kappa(j) / j - x) >= eps * x:
            raise ValueError(f"kappa_{j}/{j} strays from x={x} by >= eps*x")
    d = kappa(n) - kappa(m)
    if d < 0:
        raise ValueError(f"kappa_n - kappa_m = {d} < 0")
    reach, mask = 1, (1 << (d + 1)) - 1
    for k in range(m + 1, n + 1):
        reach = (reach | reach << k) & mask
    return not reach >> d & 1


def cov_near_pairs(x: float, eps: float) -> list[tuple[int, int]]:
    """Near-diagonal (m, n) pairs with m < n <= sigma*m on the configured m grid."""
    sigma = sigma_band(x, eps)
    pairs = []
    for m in config.COV_M:
        n = math.floor(sigma * m)
        if n > m:
            pairs.append((m, n))
    return pairs


def covariance_audit(kappa: KappaSeq, pairs, regime: str = "far") -> list[AuditRow]:
    """Exact |Cov(Y_m, Y_n)| against the regime-appropriate bound.

    Regimes: "diag" (m = n, envelope C*m), "near" (m < n <= sigma m with
    sigma = sigma_band(x, COV_EPS), envelope C), "far" (m < n, envelope C
    times the chi-assembled aggregate, with the inner g evaluated at
    constant 1).  A pair outside its regime raises ValueError.
    """
    if regime not in ("diag", "near", "far"):
        raise ValueError(f"unknown regime {regime!r}")
    return AUDITS[f"cov_{regime}"].rows(pairs, kappa, None)


def _cov_plan(regime: str, pairs, kappa: KappaSeq, table):
    """covariance_audit's law requests and their reader."""
    pairs = list(pairs)
    x = kappa.x_float
    sigma = sigma_band(x, config.COV_EPS) if regime == "near" else None
    for m, n in pairs:
        if regime == "diag" and m != n:
            raise ValueError(f"the diag regime needs m = n, got m={m}, n={n}")
        if regime == "near" and not m < n <= sigma * m:
            raise ValueError(f"the near regime needs m < n <= {sigma:.6g} m, got m={m}, n={n}")
        if regime == "far" and m >= n:
            raise ValueError(f"the far regime needs m < n, got m={m}, n={n}")

    def read(book) -> list[AuditRow]:
        rows = []
        for (m, n), cov in zip(pairs, _covariances(kappa, pairs, book)):
            c = abs(cov)
            if regime == "diag":
                env = float(m)
            elif regime == "near":
                env = 1.0
            else:
                env = (
                    n / (n - m) * chi(Envelope(m, n), kappa, x)
                    + m / (n - m)
                    + chi(Envelope(2, n), kappa, x)
                    + 1.0 / n
                )
            rows.append(AuditRow(f"cov-{regime}", m, n, x, kappa(m), kappa(n), c, env))
        return rows

    return _cov_atoms(kappa, pairs), read


def gamma_kernel_sup(m: int, n: int, u_points: int = 10001) -> float:
    """sup over u_j = pi j/(u_points-1) of |gamma_{m,n}(u)| (n-m)/(1 + log(n/m)).

    The grid covers [0, pi], which suffices because |gamma(-u)| = |gamma(u)|.
    """
    _, read = _gamma_kernel_plan([(m, n)], None, None, u_points)
    return read({})[0].lhs


def _gamma_kernel_plan(pairs, kappa, table, u_points: int = 10001):
    """gamma_kernel_sup at every pair, from one coefficient series per m."""
    pairs = list(pairs)

    def read(book) -> list[AuditRow]:
        ns: dict[int, list[int]] = {}
        for m, n in pairs:
            ns.setdefault(m, []).append(n)
        sup = {}
        for m, n_list in ns.items():
            for n, grid in zip(n_list, gamma_grids(m, n_list, u_points)):
                sup[m, n] = float(np.abs(grid).max()) * (n - m) / (1.0 + math.log(n / m))
        # The sup is already normalised: its envelope is 1.
        return [AuditRow("gamma_kernel", m, n, float("nan"), 0, 0, sup[m, n], 1.0)
                for m, n in pairs]

    return [], read


# ----------------------------------------------------------- audit registry

def _max_ratio(rows) -> float:
    """Multiplicative constant: the largest lhs / envelope."""
    return max((r.ratio for r in rows), default=0.0)


def _solve_w1(rows) -> float:
    """cf-distance envelope: need expm1(C t^2 B) >= lhs, so C >= log1p(lhs)/(t^2 B)."""
    return max((math.log1p(r.lhs) / (r.x * r.x * Envelope(r.m, r.n)._bracket)
                for r in rows if r.x != 0.0), default=0.0)


def _solve_w2(rows) -> float:
    """Kolmogorov envelope: g = expm1(C B L^2) + 1/L, only binds past 1/L."""
    need = 0.0
    for r in rows:
        L = math.log(r.n / r.m)
        excess = r.lhs - 1.0 / L
        if excess > 0.0:
            need = max(need, math.log1p(excess) / (Envelope(r.m, r.n)._bracket * L * L))
    return need


@dataclass(frozen=True)
class Audit:
    """One calibrated bound, defined once for the calibration and the CLI.

    ``pairs(x)`` is the default (m, n) grid at slope x.  ``plan(pairs,
    kappa, table)`` validates those cells and returns (requests, read):
    the (m, n, cap) laws its rows need, and the reader of the rows from a
    book holding them.  ``solve(rows)`` is the smallest constant making
    the bound hold on them.  Envelope constants sit inside an exp, so they
    are solved pointwise (the envelopes are increasing in C); purely
    multiplicative constants are ratio maxima.  The golden constant is the
    largest solve over ``slopes``.
    """

    key: str
    pairs: Callable[[float], list]
    plan: Callable[..., tuple]
    solve: Callable[[list], float]
    slopes: tuple[float, ...] = (1.0,)

    def rows(self, pairs, kappa: KappaSeq, table: RhoTable | None) -> list[AuditRow]:
        """The audit of these cells alone, its laws from one sweep of its own."""
        requests, read = self.plan(pairs, kappa, table)
        return read(_laws(requests))


def _cov_audit(regime: str, grid) -> Audit:
    return Audit(f"cov_{regime}", grid, functools.partial(_cov_plan, regime),
                 _max_ratio, config.COV_X)


AUDITS: dict[str, Audit] = {a.key: a for a in (
    Audit("stimabase", lambda x: config.stimabase_pairs(), _stimabase_plan, _max_ratio),
    Audit("w1", lambda x: config.W1_PAIRS, _w1_plan, _solve_w1),
    Audit("w2", lambda x: config.W2_PAIRS, _w2_plan, _solve_w2),
    Audit("gamma_kernel", lambda x: config.stimabase_pairs(), _gamma_kernel_plan, _max_ratio),
    _cov_audit("diag", lambda x: config.cov_diag_pairs()),
    _cov_audit("near", lambda x: cov_near_pairs(x, config.COV_EPS)),
    _cov_audit("far", lambda x: config.cov_far_pairs()),
)}


def run_calibration(table: RhoTable) -> dict[str, float]:
    """Smallest constants making every audited bound hold on the grids.

    Plan, then read: every audit plans its grid at each of its slopes, one
    ``_laws`` sweep builds the book of the union of their requests, and
    each audit reads its rows from that book.  A law does not depend on
    the slope, and the grids share their block starts, so one sweep serves
    every audit; its top falls as the sweep passes the last read of the
    widest laws (``keep`` in ``_steps``).  Every row is the one its audit
    computes alone, bit for bit.
    """
    plans = {(audit.key, x): audit.plan(audit.pairs(x), KappaSeq(x), table)
             for audit in AUDITS.values() for x in audit.slopes}
    book = _laws(r for requests, _ in plans.values() for r in requests)
    return {audit.key: max(audit.solve(plans[audit.key, x][1](book)) for x in audit.slopes)
            for audit in AUDITS.values()}


def check_golden(computed: dict[str, float], golden: dict) -> list[str]:
    """Regressions of computed constants against the golden record.

    A constant regresses past stored * (1 + 1e-9) + 1e-15.  Returns
    human-readable problem strings; empty means clean.
    """
    problems = []
    want_hash = config.grid_hash()
    for name, value in sorted(computed.items()):
        entry = golden.get(name)
        if entry is None:
            problems.append(f"{name}: missing from golden file")
            continue
        if entry.get("grid_hash") != want_hash:
            problems.append(f"{name}: grid hash mismatch (grids changed?)")
            continue
        stored = entry["constant"]
        if value > stored * (1.0 + 1e-9) + 1e-15:
            problems.append(f"{name}: constant grew {stored:.6g} -> {value:.6g}")
    return problems
