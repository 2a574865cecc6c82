"""Numerical audits of the limit theorems and quantitative bounds.

Every left-hand side here comes from the exact DP distributions, never
from simulation.  Each audit reports AuditRow tuples (identifiers, lhs and
envelope, with the ratio derived).  AUDITS holds one record per golden
constant: its default grid from config, how it plans its rows and the
solver for the smallest constant making the bound hold there; ``grid_hash``
stamps that constant.  ``calibrate`` reads the rows and constants of any
set of them; run_calibration and the CLI's golden gate both go through it.

Audits plan, then read.  An audit's plan validates its cells and states
every DP entry its rows read as an (m, n, lo, hi) request; one ``_laws``
sweep builds the book of them, and the plan's reader takes its rows from
it.  ``calibrate`` builds one book for its audits at all their
slopes; otherwise ``Audit.rows`` builds a book of its own, and each one-cell
function (``stimabase_check``, ``w2_check``, ``covariance_audit``,
``gamma_kernel_sup``) is its entry's rows on one cell.  The f, g and chi
envelopes of a block (m, n), at constant 1, sit with the w1 and w2 solvers
that invert them.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from typing import Callable, NamedTuple

import numpy as np

from . import config
from .dickman import RhoTable, dickman_density
from .exact_dist import (
    KappaSeq,
    Pmf,
    _covariances,
    _kolmogorov_cap,
    _laws,
    kolmogorov_distance,
    pmf,  # unused here; perfbench's tracer test reads it as audits.pmf
)
from .spectral import gamma_grids, l2_cf_limit, l2_cf_parseval, phi_T, phi_dickman


class AuditRow(NamedTuple):
    """One audited grid cell: identifiers, measured lhs and envelope; ratio derived."""

    label: str
    m: int
    n: int
    x: float
    kappa_m: int
    kappa_n: int
    lhs: float
    envelope: float

    @property
    def ratio(self) -> float:
        """lhs / envelope, inf where the envelope is not positive."""
        return self.lhs / self.envelope if self.envelope > 0 else float("inf")


def llt_table(kappa: KappaSeq, n_list, table: RhoTable) -> list[AuditRow]:
    """Point-probability convergence: lhs = n P(T_n = kappa_n), target e^-g rho(x).

    One ``_laws`` book holds the atom (0, n, kappa_n, kappa_n) of every
    requested n: a sweep at a cost linear in n for dense and sparse rows
    alike, or the head series for n >= SERIES_N0 at kappa_n <= n.  Each
    lhs is n * point_prob_scan(kappa, n)[n - 1] bit for bit.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        raise ValueError("need at least one n")
    if n_list[0] < 1:
        raise ValueError(f"all n must be >= 1, got {n_list[0]}")
    x = kappa.x_float
    target = dickman_density(table, x)
    targets = list(map(kappa, n_list))
    book = _laws((0, n, t, t) for n, t in zip(n_list, targets))
    return [AuditRow("llt", 0, n, x, 0, t, n * book[0, n, t, t], target)
            for n, t in zip(n_list, targets)]


def stimabase_check(m: int, n: int, kappa: KappaSeq) -> AuditRow:
    """Point probability against a window mass, envelope (1+log(n/m))/sqrt(n-m).

    lhs = | d P(T_m^n = d) - P(d - n < T_m^n <= d - (m+1)) |  with
    d = kappa_n - kappa_m; the check reads entries max(d - n + 1, 0)..d, and the
    sweep keeps the law only up to d.
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

    requests = [(m, n, max(d - n + 1, 0), d) for m, n, _, _, d in cells]  # lo: above d - n

    def read(book) -> list[AuditRow]:
        rows = []
        for (m, n, km, kn, d), r in zip(cells, requests):
            lo, probs = r[2], book[r]  # entries lo..d, cut at the law's end
            size = d - m - lo  # of the window lo..d - (m+1)
            window = float(probs[:size].sum()) if size > 0 and len(probs) else 0.0
            point = float(probs[d - lo]) if d - lo < len(probs) else 0.0
            lhs = abs(d * point - window)
            env = (1.0 + math.log(n / m)) / math.sqrt(n - m)
            rows.append(AuditRow("stimabase", m, n, kappa.x_float, km, kn, lhs, env))
        return rows

    return requests, read


def _w1_plan(t_points: int, t_span: float, pairs, kappa, table):
    """|phi_{T/(n-m)}(t) - phi(t)| against the f envelope at every pair, in order.

    The t grid is t_points points on [-t_span, t_span]; phi_dickman is
    evaluated once per t for all pairs.
    """
    pairs = list(pairs)
    for m, n in pairs:
        _bracket(m, n)  # a bad cell fails here, before any row is read

    def read(book) -> list[AuditRow]:
        ts = np.linspace(-t_span, t_span, t_points)
        cf = [phi_dickman(float(t)) for t in ts]
        rows = []
        for m, n in pairs:
            vals = phi_T(m, n, ts / (n - m))
            rows += [AuditRow("w1", m, n, float(t), 0, 0, abs(v - c), f_envelope(m, n, t))
                     for t, v, c in zip(ts, vals, cf)]
        return rows

    return [], read


def w2_check(m: int, n: int, table: RhoTable) -> AuditRow:
    """Kolmogorov distance of T_m^n/(n-m) to the Dickman CDF vs g envelope."""
    return AUDITS["w2"].rows([(m, n)], None, table)[0]


def _w2_plan(pairs, kappa, table: RhoTable):
    """w2_check at every pair: each law stops at its ``_kolmogorov_cap``."""
    envs = [g_envelope(m, n) for m, n in pairs]  # a bad cell fails here, before any sweep
    requests = [(m, n, 0, _kolmogorov_cap(table, m, n)) for m, n in pairs]

    def read(book) -> list[AuditRow]:
        return [AuditRow("w2", m, n, float("nan"), 0, 0,
                         kolmogorov_distance(Pmf(m, n, book[m, n, 0, cap], "float"), table), env)
                for env, (m, n, _, cap) in zip(envs, requests)]

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
    d = kappa(n) - kappa(m)  # >= 0: x > 0 makes kappa nondecreasing, and m < n
    reach, mask = 1, (1 << (d + 1)) - 1
    for k in range(m + 1, n + 1):
        reach = (reach | reach << k) & mask
    return not reach >> d & 1


def cov_near_pairs(x: float) -> list[tuple[int, int]]:
    """Pairs m < n <= sigma*m on the configured m grid, sigma = sigma_band(x, COV_EPS)."""
    sigma = sigma_band(x, config.COV_EPS)
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

    atoms, covariances = _covariances(kappa, pairs)

    def read(book) -> list[AuditRow]:
        rows = []
        for (m, n), cov in zip(pairs, covariances(book)):
            c = abs(cov)
            if regime == "diag":
                env = float(m)
            elif regime == "near":
                env = 1.0
            else:
                env = n / (n - m) * chi(m, n, kappa) + m / (n - m) + chi(2, n, kappa) + 1.0 / n
            rows.append(AuditRow(f"cov-{regime}", m, n, x, kappa(m), kappa(n), c, env))
        return rows

    return atoms, read


def gamma_kernel_sup(m: int, n: int, u_points: int = config.GAMMA_U_POINTS) -> float:
    """sup over u_j = pi j/(u_points-1) of |gamma_{m,n}(u)| (n-m)/(1 + log(n/m)).

    The grid covers [0, pi], which suffices because |gamma(-u)| = |gamma(u)|.
    """
    _, read = _gamma_kernel_plan(u_points, [(m, n)], None, None)
    return read({})[0].lhs


def _gamma_kernel_plan(u_points: int, pairs, kappa, table):
    """gamma_kernel_sup at every pair, from one coefficient series for them all."""
    pairs = list(pairs)

    def read(book) -> list[AuditRow]:
        # The sup is already normalised: its envelope is 1.
        return [AuditRow("gamma_kernel", m, n, float("nan"), 0, 0,
                         float(np.abs(grid).max()) * (n - m) / (1.0 + math.log(n / m)), 1.0)
                for (m, n), grid in zip(pairs, gamma_grids(pairs, u_points))]

    return [], read


# ------------------------------------------- bound envelopes and their solvers

def _bracket(m: int, n: int) -> float:
    """B = log(n/m)/(n-m)^2 + (m+2)/(n-m), the block's scale in the f and g envelopes."""
    if not (2 <= m < n):
        raise ValueError(f"need 2 <= m < n, got m={m}, n={n}")
    return math.log(n / m) / (n - m) ** 2 + (m + 2) / (n - m)


def f_envelope(m: int, n: int, t: float) -> float:
    """exp{t^2 (log(n/m)/(n-m)^2 + (m+2)/(n-m))} - 1, at constant 1."""
    return math.expm1(t * t * _bracket(m, n))


def g_envelope(m: int, n: int) -> float:
    """exp(B log^2(n/m)) - 1 + 1/log(n/m), at constant 1."""
    B = _bracket(m, n)  # checks the block before the log reads it
    L = math.log(n / m)
    return math.expm1(B * L * L) + 1.0 / L


def chi(m: int, n: int, kappa: KappaSeq) -> float:
    """The chi_{m,n} aggregate controlling the far-regime covariance, x the slope of kappa."""
    x = kappa.x_float
    dk = kappa(n) - kappa(m)
    if dk <= 0:
        raise ValueError(f"kappa_n - kappa_m = {dk} must be positive")
    r = (n - m) / dk
    g = g_envelope(m, n)  # checks the block before the log reads it
    return r * math.log(n / m) / math.sqrt(n - m) + r * g + x * abs(r - 1.0 / x) + (m + 1) / dk


def _max_ratio(rows) -> float:
    """Multiplicative constant: the largest lhs / envelope."""
    return max((r.ratio for r in rows), default=0.0)


def _solve_w1(rows) -> float:
    """Inverts f: need expm1(C t^2 B) >= lhs, so C >= log1p(lhs)/(t^2 B)."""
    return max((math.log1p(r.lhs) / (r.x * r.x * _bracket(r.m, r.n))
                for r in rows if r.x != 0.0), default=0.0)


def _solve_w2(rows) -> float:
    """Inverts g: g = expm1(C B L^2) + 1/L binds only past 1/L."""
    need = 0.0
    for r in rows:
        L = math.log(r.n / r.m)
        excess = r.lhs - 1.0 / L
        if excess > 0.0:
            need = max(need, math.log1p(excess) / (_bracket(r.m, r.n) * L * L))
    return need


# ----------------------------------------------------------- audit registry

class Audit(NamedTuple):
    """One calibrated bound, defined once for the calibration and the CLI.

    ``pairs(x)`` is the default (m, n) grid at slope x.  ``plan(pairs,
    kappa, table)`` validates those cells and returns (requests, read):
    the (m, n, lo, hi) requests its rows need, and the reader of the rows
    from a book holding them; the sub-grid a reader sweeps inside each cell
    (w1's t, the gamma kernel's u) is bound into its plan, as a covariance
    regime is.  ``solve(rows)`` is the smallest constant making the bound
    hold on them.  The f and g constants sit inside an exp, so they are
    solved pointwise (the envelopes are increasing in C); purely
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
    Audit("w1", lambda x: config.W1_PAIRS,
          functools.partial(_w1_plan, config.W1_T_POINTS, config.W1_T_SPAN), _solve_w1),
    Audit("w2", lambda x: config.W2_PAIRS, _w2_plan, _solve_w2),
    Audit("gamma_kernel", lambda x: config.stimabase_pairs(),
          functools.partial(_gamma_kernel_plan, config.GAMMA_U_POINTS), _max_ratio),
    _cov_audit("diag", lambda x: config.cov_diag_pairs()),
    _cov_audit("near", cov_near_pairs),
    _cov_audit("far", lambda x: config.cov_far_pairs()),
)}


def calibrate(audits, table: RhoTable | None) -> dict[str, tuple[float, dict]]:
    """{key: (constant, {slope: rows})} for each audit, all read from one book.

    Every audit plans its grid at each of its slopes, and one ``_laws``
    sweep builds the book of the union of their requests.  A law does not
    depend on the slope, and the grids share their block starts, so one
    sweep serves them all; its top falls past the last read of the widest
    laws (``keep`` in ``_steps``).  Every row is the one its audit computes
    alone, bit for bit; the constant is the largest solve over the slopes.
    """
    plans = {(a.key, x): a.plan(a.pairs(x), KappaSeq(x), table) for a in audits for x in a.slopes}
    book = _laws(r for requests, _ in plans.values() for r in requests)
    rows = {a.key: {x: plans[a.key, x][1](book) for x in a.slopes} for a in audits}
    return {a.key: (max(map(a.solve, rows[a.key].values())), rows[a.key]) for a in audits}


def run_calibration(table: RhoTable) -> dict[str, float]:
    """Smallest constants making every audited bound hold on the grids: one sweep."""
    return {key: c for key, (c, _) in calibrate(AUDITS.values(), table).items()}


def grid_hash(key: str) -> str:
    """The golden stamp of one audit: 16 hex digits of the sha256 of its key, its
    pairs at each of its slopes and the arguments bound into its plan (the sub-grid
    its reader sweeps inside a cell, or a covariance regime)."""
    a = AUDITS[key]
    bound = getattr(a.plan, "args", ())
    blob = json.dumps([key, [[x, a.pairs(x)] for x in a.slopes], bound], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def record_golden(name: str, constant: float, path=None) -> None:
    """Store one constant with its audit's stamp; other entries stay as stored."""
    try:
        stored = config.load_golden(path)
    except FileNotFoundError:
        stored = {}
    stored[name] = {"constant": float(constant), "grid_hash": grid_hash(name)}
    config.save_golden(stored, path)


def check_golden(computed: dict[str, float], golden: dict) -> list[str]:
    """Regressions of computed constants against the golden record.

    Each entry must carry its own audit's stamp, and a constant regresses
    past stored * (1 + 1e-9) + 1e-15.  Returns human-readable problem
    strings; empty means clean.
    """
    problems = []
    for name, value in sorted(computed.items()):
        if name not in AUDITS:
            problems.append(f"{name}: no audit has this name")
            continue
        entry = golden.get(name)
        if entry is None:
            problems.append(f"{name}: missing from golden file")
            continue
        if entry.get("grid_hash") != grid_hash(name):
            problems.append(f"{name}: grid hash mismatch (grids changed?)")
            continue
        stored = entry["constant"]
        if value > stored * (1.0 + 1e-9) + 1e-15:
            problems.append(f"{name}: constant grew {stored:.6g} -> {value:.6g}")
    return problems
