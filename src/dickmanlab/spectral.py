"""Characteristic functions, the error kernel and the L2 integrals.

Covers the characteristic functions of T_m^n and the Dickman law,
the error kernel gamma_{m,n}, and the L2 quantities tied to the
Parseval identity for integer-supported laws.
"""
from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .cumulants import alpha_j
from .dickman import EULER_GAMMA, RhoTable, rho_sq_integral
from .exact_dist import Pmf, _kernel_rows, power_sum

# _PHI_T_MAX keeps phi_dickman's panels < 2^12.
_PHI_T_MAX = 1e4


@functools.cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """phi_dickman's 20-node Gauss-Legendre rule mapped to [0, 1]: (nodes, weights).

    Built on first use, so importing this module does not load numpy.polynomial.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    return (x + 1.0) / 2.0, w / 2.0


def phi_T(m: int, n: int, t) -> complex | np.ndarray:
    """Characteristic function of T_m^n: product over k of 1 + (e^{itk} - 1)/k.

    Accepts a scalar t or an array of t values.
    """
    if not (0 <= m < n):
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    t_arr = np.asarray(t, dtype=float)
    ks = np.arange(m + 1, n + 1)
    # factors[j, i] is the characteristic function of Z_{ks[j]} at t_i * ks[j]
    tk = np.multiply.outer(ks.astype(float), t_arr)
    factors = 1.0 + (np.exp(1j * tk) - 1.0) / ks.reshape((-1,) + (1,) * t_arr.ndim)
    out = np.prod(factors, axis=0)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(out)
    return out


def phi_dickman(t: float) -> complex:
    """Dickman characteristic function exp{ integral_0^1 (e^{itu}-1)/u du }.

    The exponent -Cin(|t|) + i Si(t) is integrated by Gauss-Legendre, one
    20-node panel per ~3 units of |t|, with the real integrand written as
    -2 sin^2(tu/2)/u.  Within 1e-14 relative for |t| <= 1e4; past it raises.
    """
    if not abs(t) <= _PHI_T_MAX:
        raise ValueError(f"need finite |t| <= {_PHI_T_MAX:g}, got {t!r}")
    a = abs(t)
    gl_u, gl_w = _gl_rule()
    panels = max(1, math.ceil(a / 3.0))
    k = np.arange(panels)[:, None]
    half = 0.5 * a / panels
    # tu/2 = (k + x)*half at node x of panel k.  half_hi has 20 fractional
    # bits, so k*half_hi is exact; rounding k*half costs up to 3e-14 at 1e4.
    half_hi = round(half * 2**20) / 2**20
    z = np.exp(1j * half_hi * k) * np.exp(1j * ((half - half_hi) * k + half * gl_u))
    # du/u = dx/(k + x) on panel k
    re = -2.0 * float(np.sum(gl_w * z.imag**2 / (k + gl_u)))
    im = float(np.sum(gl_w * (z * z).imag / (k + gl_u)))
    v = cmath.exp(complex(re, im))
    return v if t >= 0 else v.conjugate()


def gamma_mn(m: int, n: int, u) -> complex | np.ndarray:
    """Error kernel (1/(n-m)) sum_{k=m+1}^n e^{iuk}(1-e^{iuk})/(k-1+e^{iuk}).

    Accepts a scalar u or an array of u values.
    """
    if not (2 <= m < n):
        raise ValueError(f"need 2 <= m < n, got m={m}, n={n}")
    ks = np.arange(m + 1, n + 1, dtype=float)
    e = np.exp(1j * np.multiply.outer(u, ks))
    terms = e * (1.0 - e) / (ks - 1.0 + e)
    out = terms.sum(axis=-1) / (n - m)
    return complex(out) if np.ndim(u) == 0 else out


def gamma_grids(pairs, u_points: int):
    """gamma_mn(m, n, u_j) on u_j = pi j/(P-1), j < P = u_points, for each (m, n) of pairs.

    With M = 2(P-1), e^{i u_j k} = w^{jk} for the M-th root of unity w.  For
    k >= 3 and |z| = 1 the term is a geometric series in z,

        z(1-z)/(k-1+z) = sum_{q>=1} b_{k,q} z^q,  b_{k,1} = 1/(k-1),
        b_{k,q} = (-1)^{q-1} k/(k-1)^q  (q >= 2),

    so (n-m) gamma(u_j) = sum_r A_r w^{jr} with A_r the sum of b_{k,q} over
    m < k <= n, kq = r (mod M): a real FFT of A.  Each k's series stops
    at its 2^-60/(k-1) tail (``exact_dist._kernel_rows``), so the
    truncation moves (n-m) gamma by at most 2^-60 (1 + log(n/m)).  The
    phase kq mod M is exact integer arithmetic, unlike u*k rounded inside
    a direct e^{iuk}.

    The rows q of b_{k,q} are built once for all pairs, for k from the
    least m + 1 to the largest n.  A term's value and its stop depend on k
    alone, and the k still kept at each q are a prefix, so each pair folds
    its own k-range (m, n] of every row, in the same order as a build for
    that pair alone: its grid is that one bit for bit.  Grids are yielded
    one at a time, in the order of pairs, one FFT each.
    """
    pairs = list(pairs)
    if not pairs or not all(2 <= m < n for m, n in pairs):
        raise ValueError(f"need 2 <= m < n in every pair, got {pairs}")
    if u_points < 2:
        raise ValueError(f"need u_points >= 2, got {u_points}")
    M = 2 * (u_points - 1)
    k0 = min(m for m, _ in pairs) + 1
    idx, coef = [], []
    for q, ks, b in _kernel_rows(k0, max(n for _, n in pairs)):
        idx.append(ks * q % M)
        coef.append(b)
    for m, n in pairs:
        # Entry i of a row is k = k0 + i, so the pair's k in (m, n] are one slice.
        own = slice(m + 1 - k0, n + 1 - k0)
        A = np.bincount(np.concatenate([i[own] for i in idx]),
                        np.concatenate([c[own] for c in coef]), minlength=M)
        # sum_r A_r w^{jr} = conj(rfft(A)[j]) for real A, and rfft returns j = 0..M/2.
        yield np.conj(np.fft.rfft(A)) / (n - m)


def gamma_series(m: int, n: int, t: float, J: int) -> complex:
    """J-term cumulant series sum_{j=1}^J (it)^{j-1}/(j-1)! * alpha_j.

    Raises if the partial sum leaves the finite range, which is how
    divergence of the series outside its radius shows up.
    """
    if J < 1:
        raise ValueError(f"need J >= 1, got {J}")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j  # (it)^{j-1}/(j-1)! at j=1
    it = 1j * t
    for j in range(1, J + 1):
        total += term * alpha_j(m, n, j)
        term *= it / j
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise OverflowError(f"series diverged at j={j} for t={t}")
    return total


def l2_cf_parseval(n: int, power: float) -> float:
    """integral_{-pi n}^{pi n} |phi_{T_n/n}(u)|^2 du = 2 pi n sum_v P(T_n=v)^2.

    power is sum_v P(T_n=v)^2.  Exact by the Parseval identity for
    integer-supported laws, with the change of variables u = n t folding
    in the scaling by n.
    """
    return 2.0 * math.pi * n * power


def l2_cf_integral(dist: Pmf) -> float:
    """The L2 characteristic-function integral of T_n from its full law."""
    if dist.m != 0:
        raise ValueError(f"expected a pmf of T_n = T_0^n, got m={dist.m}")
    return l2_cf_parseval(dist.n, float(power_sum(dist)))


def l2_cf_limit(table: RhoTable) -> float:
    """Limit target 2 pi e^{-2 gamma} integral rho^2 (Parseval for the density)."""
    return (
        2.0
        * math.pi
        * math.exp(-2.0 * EULER_GAMMA)
        * rho_sq_integral(table, table.x_max)
    )


def l2_cf_integral_quad(n: int, nodes_per_period: int = 64) -> float:
    """Direct Simpson quadrature of integral_{-pi n}^{pi n} |phi_{T_n/n}(u)|^2 du.

    Brute-force cross-check of the Parseval route, only sensible at small
    n: the integrand oscillates on the scale 2 pi / S with S ~ n^2/2, so
    the node count grows fast.
    """
    if not (1 <= n <= 16):
        raise ValueError(f"direct quadrature kept for n <= 16, got {n}")
    S = n * (n + 1) // 2
    half = math.pi * n
    # resolve the fastest oscillation e^{iuS/n} with nodes_per_period nodes
    n_steps = int(math.ceil(2 * half * (S / n) / (2 * math.pi) * nodes_per_period))
    n_steps += n_steps % 2  # Simpson needs an even count
    u = np.linspace(-half, half, n_steps + 1)
    vals = np.abs(phi_T(0, n, u / n)) ** 2
    h = (2 * half) / n_steps
    return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum()))


def invert_cf(dist: Pmf, v: int, n_steps: int = 4096) -> float:
    """(1/2pi) integral_{-pi}^{pi} e^{-itv} phi_{T_m^n}(t) dt by Simpson.

    Recovers the point probability P(T_m^n = v) from the characteristic
    function; a consistency check against the DP, not a production path.
    """
    n_steps += n_steps % 2
    t = np.linspace(-math.pi, math.pi, n_steps + 1)
    vals = np.exp(-1j * t * v) * phi_T(dist.m, dist.n, t)
    h = 2 * math.pi / n_steps
    integral = h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
    return float(integral.real) / (2 * math.pi)
