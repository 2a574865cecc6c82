"""Dickman function, density and distribution on a dense uniform grid.

The Dickman function rho is the continuous solution of the delay
differential equation

    x * rho'(x) + rho(x - 1) = 0,   x > 1,       rho = 1 on [0, 1].

A table of rho values is built once, interval by interval, and all
evaluations (rho itself, the probability density exp(-gamma)*rho, the
distribution function D, and the integrals of rho and rho^2) interpolate
that table.  Built tables are immutable and safe to share across threads.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Euler-Mascheroni constant, 30 significant digits (double rounds it).
EULER_GAMMA = 0.577215664901532860606512090082


class DickmanRangeError(ValueError):
    """Raised for queries outside the tabulated range.

    Out-of-table queries are errors, never extrapolations: a silently
    extrapolated rho would corrupt every bound audit downstream.
    """


def _cubic_weights(s: np.ndarray):
    """Lagrange cubic weights at fractional offset s from a 4-node stencil."""
    w0 = -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
    w1 = s * (s - 2.0) * (s - 3.0) / 2.0
    w2 = -s * (s - 1.0) * (s - 3.0) / 2.0
    w3 = s * (s - 1.0) * (s - 2.0) / 6.0
    return w0, w1, w2, w3


def _interp(vals: np.ndarray, nodes_per_unit: int, pos: np.ndarray) -> np.ndarray:
    """Cubic interpolation of node values at fractional node positions.

    Stencils are clipped so they never straddle an integer abscissa:
    rho loses smoothness there and a straddling stencil would cost
    several digits near the kinks at 1 and 2.
    """
    pos = np.asarray(pos, dtype=float)
    last = len(vals) - 1
    unit = np.floor(pos / nodes_per_unit).astype(np.int64)
    lo = np.floor(pos).astype(np.int64) - 1
    lo = np.maximum(lo, unit * nodes_per_unit)
    hi = np.minimum((unit + 1) * nodes_per_unit, last) - 3
    lo = np.minimum(lo, hi)
    lo = np.clip(lo, 0, last - 3)
    w0, w1, w2, w3 = _cubic_weights(pos - lo)
    return w0 * vals[lo] + w1 * vals[lo + 1] + w2 * vals[lo + 2] + w3 * vals[lo + 3]


class RhoTable(NamedTuple):
    """Dense grid of Dickman rho values with the cumulative integrals of rho and rho^2."""

    x_max: float
    step: float
    values: np.ndarray
    cum_rho: np.ndarray
    cum_rho_sq: np.ndarray
    cdf_gap: np.ndarray  # cdf_gap[j]: the largest |1 - dickman_cdf| over nodes j, j+1, ..

    @property
    def nodes_per_unit(self) -> int:
        return round(1.0 / self.step)

    def _check_range(self, x, what: str = "x") -> None:
        """Raise unless x (a float or an array of them) lies in [0, x_max]."""
        x = np.asarray(x, dtype=float)
        bad = ~np.isfinite(x) | (x < 0.0) | (x > self.x_max * (1.0 + 1e-12))
        if bad.any():
            raise DickmanRangeError(
                f"{what}={float(x[bad].flat[0])!r} outside tabulated range [0, {self.x_max}]"
            )


def _cumulative(g: np.ndarray, g_mid: np.ndarray, h: float) -> np.ndarray:
    """Running per-step Simpson integral of node values g (g_mid at the midpoints)."""
    incr = (h / 6.0) * (g[:-1] + 4.0 * g_mid + g[1:])
    cum = np.empty(len(g))
    cum[0] = 0.0
    np.cumsum(incr, out=cum[1:])
    return cum


def build_rho_table(x_max: float = 30.0, step: float = 1e-3) -> RhoTable:
    """Tabulate rho on [0, x_max] by marching the delay equation.

    On each unit interval (k, k+1] the defining relation

        rho(x) = rho(k) - integral_k^x rho(t-1)/t dt

    is advanced node by node with per-step Simpson; the integrand at step
    midpoints reads rho one unit back through cubic interpolation of
    already-built nodes.  Closed forms seed [0, 2]: rho = 1 on [0, 1] and
    rho = 1 - log(x) on (1, 2].
    """
    if not np.isfinite(step) or step <= 0.0:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    if step > 1e-2:
        raise ValueError(f"step must be <= 1e-2, got {step!r}")
    if not np.isfinite(x_max) or x_max < 2.0:
        raise ValueError(f"x_max must be >= 2, got {x_max!r}")
    K = round(1.0 / step)
    if abs(K * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 (got {step!r})")
    h = 1.0 / K
    M = int(math.floor(x_max / h + 1e-9))
    x_max = M * h

    vals = np.empty(M + 1)
    top = min(K, M)
    vals[: top + 1] = 1.0
    if M > K:
        j = np.arange(K + 1, min(2 * K, M) + 1)
        vals[j] = 1.0 - np.log(j * h)

    # March in blocks short enough that every lagged value is final.
    j0 = 2 * K + 1
    block = K - 1
    while j0 <= M:
        j = np.arange(j0, min(j0 + block, M + 1))
        xj = j * h
        f_prev = vals[j - 1 - K] / (xj - h)
        f_cur = vals[j - K] / xj
        rho_mid = _interp(vals, K, j - K - 0.5)
        f_mid = rho_mid / (xj - 0.5 * h)
        incr = (h / 6.0) * (f_prev + 4.0 * f_mid + f_cur)
        vals[j] = vals[j0 - 1] - np.cumsum(incr)
        j0 = j[-1] + 1

    mid = _interp(vals, K, np.arange(1, M + 1, dtype=float) - 0.5)
    cum_rho = _cumulative(vals, mid, h)
    gap = np.abs(1.0 - math.exp(-EULER_GAMMA) * cum_rho)
    return RhoTable(x_max=x_max, step=h, values=vals, cum_rho=cum_rho,
                    cum_rho_sq=_cumulative(vals**2, mid**2, h),
                    cdf_gap=np.maximum.accumulate(gap[::-1])[::-1])


def _lookup(table: RhoTable, vals: np.ndarray, x):
    """vals at x (float or array): a node's value within 1e-9 of a node, else interpolated."""
    pos = np.asarray(x, dtype=float) / table.step
    j = np.rint(pos)
    snap = np.abs(pos - j) < 1e-9 * np.maximum(1.0, pos)
    out = np.where(snap, vals[np.minimum(j, len(vals) - 1).astype(np.int64)],
                   _interp(vals, table.nodes_per_unit, pos))
    return float(out) if out.ndim == 0 else out


def rho(table: RhoTable, x: float) -> float:
    """Dickman rho(x), interpolated from the table; exactly 1 for x <= 1."""
    table._check_range(x)
    if x <= 1.0:
        return 1.0
    if x <= 2.0:
        return 1.0 - math.log(x)
    return _lookup(table, table.values, x)


def dickman_density(table: RhoTable, x: float) -> float:
    """Dickman probability density exp(-gamma) * rho(x)."""
    return math.exp(-EULER_GAMMA) * rho(table, x)


def dickman_cdf(table: RhoTable, x):
    """Dickman distribution function D(x) = exp(-gamma) * integral_0^x rho, x a float or array."""
    table._check_range(x)
    return math.exp(-EULER_GAMMA) * _lookup(table, table.cum_rho, x)


def rho_integral(table: RhoTable, upto: float) -> float:
    """integral_0^upto rho(t) dt by cumulative Simpson on the table."""
    table._check_range(upto, "upto")
    if upto <= 0.0:
        raise DickmanRangeError(f"upto must be positive, got {upto!r}")
    return _lookup(table, table.cum_rho, upto)


def rho_sq_integral(table: RhoTable, upto: float) -> float:
    """integral_0^upto rho(t)^2 dt by cumulative Simpson on the table."""
    table._check_range(upto, "upto")
    if upto <= 0.0:
        raise DickmanRangeError(f"upto must be positive, got {upto!r}")
    return _lookup(table, table.cum_rho_sq, upto)
