"""Exact law of the weighted Bernoulli sum T = sum_{k=m+1}^n k * Z_k.

Z_k are independent indicators with P(Z_k = 1) = 1/k.  The distribution
is built by dynamic-programming convolution over the integer support
0..S, S = sum of the weights.  One in-place DP kernel, ``_steps``, serves
every float law.  It advances several blocks T_m^k with different starts
m side by side, so ``_laws`` answers a batch of (m, n, cap) requests from
one sweep, each bit for bit the law of a one-block DP; the covariance
and stimabase audits build all the laws of a grid that way.  ``pmf``
returns the whole law; the scans and audits cap the support at the
largest value they read, which is exact because entry v depends only on
entries <= v.  Readers of a few low atoms (``point_prob_scan``,
``cov_Y``, the stimabase audit) stop at those atoms,
``kolmogorov_distance`` at x_max (n - m), and power sums at a Chernoff
cap whose dropped tail is below 2^-60 of the sum.
Default arithmetic is double precision; an exact-rational mode (capped at
n <= 64) exists purely as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .dickman import RhoTable, dickman_cdf

EXACT_MODE_CAP = 64


@dataclass(frozen=True)
class KappaSeq:
    """Integer target sequence kappa_n tracking a slope x: kappa_n / n -> x.

    The slope is pinned to a rational at construction so kappa_n is pure
    integer arithmetic, with no floating drift along a run.
    """

    x: Fraction
    mode: str = "floor"  # floor | round | exact-multiple

    def __init__(self, x, mode: str = "floor"):
        if isinstance(x, float):
            x = Fraction(str(x))
        else:
            x = Fraction(x)
        if x <= 0:
            raise ValueError(f"target slope must be positive, got {x}")
        if mode not in ("floor", "round", "exact-multiple"):
            raise ValueError(f"unknown kappa mode {mode!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mode", mode)

    def __call__(self, n):
        """kappa_n, for an int n or an object array of ints alike."""
        p, q = self.x.numerator, self.x.denominator
        if self.mode == "round":
            return (2 * p * n + q) // (2 * q)
        if self.mode == "exact-multiple" and np.any((p * n) % q != 0):
            raise ValueError("x*n is not an integer for exact-multiple mode")
        return (p * n) // q

    def values(self, ns: Iterable[int]) -> np.ndarray:
        """Vectorized kappa over many indices, formed in exact Python ints."""
        return self(np.array([int(n) for n in ns], dtype=object)).astype(np.int64)

    def first(self, T: int) -> int:
        """The smallest n >= 1 with kappa_n >= T, for T >= 1.

        kappa is nondecreasing, so {n : kappa_n = T} = [first(T), first(T + 1)).
        """
        p, q = self.x.numerator, self.x.denominator
        if self.mode == "round":  # 2pn + q >= 2qT
            return -((q - 2 * q * T) // (2 * p))
        if self.mode == "exact-multiple" and q != 1:
            raise ValueError("x*n is not an integer for exact-multiple mode")
        return -((-q * T) // p)  # pn >= qT

    @property
    def x_float(self) -> float:
        return float(self.x)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function of T_m^n on its full support 0..S.

    kolmogorov_distance alone also accepts a float law capped at the
    largest value it reads (``_law(m, n, cap)``).
    """

    m: int
    n: int
    probs: np.ndarray | tuple
    mode: str  # "float" | "exact"

    @property
    def span(self) -> int:
        return self.n - self.m


def _steps(starts: Sequence[int], n: int, cap: int | None = None):
    """Float DP over k = starts[0]+1 .. n, in place, for sorted block starts.

    Yields (k, laws): column i of laws is the law of T_{starts[i]}^k on
    0..top.  Update per weight k:  new[v] = old[v]*(1 - 1/k) + old[v-k]*(1/k),
    on the columns with starts[i] < k only; the others stay a delta at 0.
    The support top is S_k = sum_{j=starts[0]+1}^k j, or cap if smaller:
    entry v depends only on entries <= v, so truncation leaves every kept
    entry exact.  Each column gets the float operations of its one-block
    DP (past its own support it adds zeros), so it is that law bit for
    bit.  Laws run down the columns so that, once every column is live,
    each slice over v is one contiguous block.  The yielded view is
    overwritten by the next step.
    """
    m = starts[0]
    size = (n * (n + 1) - m * (m + 1)) // 2
    if cap is not None:
        size = min(size, cap)
    laws = np.zeros((size + 1, len(starts)))
    laws[0] = 1.0
    top = started = 0
    for k in range(m + 1, n + 1):
        while started < len(starts) and starts[started] < k:  # its first weight is k
            started += 1
            live = laws if started == len(starts) else laws[:, :started]
        p = 1.0 / k
        new_top = min(top + k, size)
        moved = live[: max(new_top - k + 1, 0)] * p
        live[: top + 1] *= 1.0 - p
        live[k : new_top + 1] += moved
        top = new_top
        yield k, laws[: top + 1]


def _laws(requests: Sequence[tuple[int, int, int | None]]) -> list[np.ndarray]:
    """Float laws of T_m^n on 0..min(S, cap), one per (m, n, cap), from one sweep.

    Each is the prefix of the full law, bit for bit.  Laws taken before
    the last step are copies; at the last step a one-block sweep's law is
    returned as a view, without a copy.
    """
    if not requests:
        return []
    if not all(0 <= m < n for m, n, _ in requests):
        raise ValueError(f"need 0 <= m < n in every request, got {list(requests)}")
    starts = sorted({m for m, _, _ in requests})
    n_max = max(n for _, n, _ in requests)
    tops = [(n * (n + 1) - m * (m + 1)) // 2 for m, n, _ in requests]
    tops = [t if cap is None else min(t, cap) for t, (_, _, cap) in zip(tops, requests)]
    due: dict[int, list[int]] = {}
    for j, (_, n, _) in enumerate(requests):
        due.setdefault(n, []).append(j)
    out: list = [None] * len(requests)
    for k, laws in _steps(starts, n_max, cap=max(tops)):
        for j in due.get(k, ()):
            law = laws[: tops[j] + 1, starts.index(requests[j][0])]
            out[j] = np.ascontiguousarray(law) if k == n_max else law.copy()
    return out


def _law(m: int, n: int, cap: int | None = None) -> np.ndarray:
    """Float law of T_m^n on 0..min(S, cap); the prefix of the full law, bit for bit."""
    return _laws([(m, n, cap)])[0]


def pmf(m: int, n: int, mode: str = "float") -> Pmf:
    """Exact law of T_m^n by DP convolution over k = m+1 .. n."""
    if not (0 <= m < n):
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    if mode == "float":
        return Pmf(m=m, n=n, probs=_law(m, n), mode="float")
    if mode == "exact":
        if n > EXACT_MODE_CAP:
            raise ValueError(f"exact mode capped at n <= {EXACT_MODE_CAP}, got n={n}")
        probs = [Fraction(1)]
        for k in range(m + 1, n + 1):
            p = Fraction(1, k)
            q = 1 - p
            new = [x * q for x in probs] + [Fraction(0)] * k
            for v, x in enumerate(probs):
                new[v + k] += x * p
            probs = new
        return Pmf(m=m, n=n, probs=tuple(probs), mode="exact")
    raise ValueError(f"unknown mode {mode!r}")


def prob_at(dist: Pmf, v: int) -> float:
    """P(T_m^n = v); zero off-support."""
    if 0 <= v < len(dist.probs):
        return float(dist.probs[v])
    return 0.0


def scaled_cdf(dist: Pmf, x: float) -> float:
    """P(T_m^n / (n - m) <= x)."""
    thr = x * dist.span
    idx = int(math.floor(thr + 1e-9))
    if idx < 0:
        return 0.0
    idx = min(idx, len(dist.probs) - 1)
    return float(np.sum(np.asarray(dist.probs, dtype=float)[: idx + 1]))


def _kolmogorov_cap(table: RhoTable, span: int) -> int:
    """Largest value kolmogorov_distance reads: floor(x_max * span)."""
    return math.floor(table.x_max * span)


def kolmogorov_distance(dist: Pmf, table: RhoTable) -> float:
    """sup_x | P(T_m^n/(n-m) <= x) - D(x) |, taken over the atom jump points.

    The reference CDF is evaluated on both sides of each atom.  Only atoms
    up to cap = floor(x_max (n-m)) are read, and a law capped there (a
    prefix of the full law) will do: every atom past the cap is within
    1 - F(cap) of D = 1 on both sides, valid because the Dickman tail
    beyond x_max >= 15 is far below the distances measured here.
    """
    span = dist.span
    top = (dist.n * (dist.n + 1) - dist.m * (dist.m + 1)) // 2
    if table.x_max < min(15.0, top / span):
        raise ValueError(
            f"table x_max={table.x_max} too short for scaled support up to {top / span:.3g}"
        )
    cap = min(top, _kolmogorov_cap(table, span))
    if len(dist.probs) <= cap:
        raise ValueError(f"law stops at {len(dist.probs) - 1}, below the cap {cap}")
    probs = np.asarray(dist.probs[: cap + 1], dtype=float)
    cdf = np.cumsum(probs)
    atoms = np.flatnonzero(probs)
    right = cdf[atoms]
    d = dickman_cdf(table, atoms / span)
    out = max(np.abs(right - d).max(), np.abs((right - probs[atoms]) - d).max())
    if cap < top:
        out = max(out, abs(1.0 - cdf[-1]))
    return float(out)


def power_sum(dist: Pmf):
    """sum_v P(T_m^n = v)^2 (exact in rational mode)."""
    if dist.mode == "exact":
        return sum(p * p for p in dist.probs)
    probs = np.asarray(dist.probs, dtype=float)
    return float(np.dot(probs, probs))


def mean(dist: Pmf) -> float:
    probs = np.asarray(dist.probs, dtype=float)
    return float(np.dot(probs, np.arange(len(probs))))


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Law of the sum of the two independent blocks (a.n must equal b.m)."""
    if a.n != b.m:
        raise ValueError(f"blocks do not abut: a.n={a.n}, b.m={b.m}")
    probs = np.convolve(np.asarray(a.probs, float), np.asarray(b.probs, float))
    return Pmf(m=a.m, n=b.n, probs=probs, mode="float")


def point_prob_scan(kappa: KappaSeq, n_max: int) -> np.ndarray:
    """P(T_n = kappa_n) for n = 1..n_max in a single truncated DP sweep.

    DP entries at index v depend only on indices <= v, so capping the
    support at max(kappa_n) keeps every recorded probability exact while
    the sweep stays O(n_max * cap) instead of O(n_max^3).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    targets = kappa.values(range(1, n_max + 1)).tolist()
    out = np.empty(n_max)
    for k, laws in _steps((0,), n_max, cap=max(targets)):
        t = targets[k - 1]
        out[k - 1] = laws[t, 0] if t < len(laws) else 0.0
    return out


def _power_sum_cap(n: int) -> int:
    """Least y with min_s B_s(y) <= 2^-30/n, at most n(n+1)/2 (see power_sum_scan)."""
    k = np.arange(1, n + 1, dtype=float)
    budget = 30 * math.log(2) + math.log(n)
    cap = n * (n + 1) // 2
    for s in np.arange(1, 33) / (4 * n):  # s*n = 0.25, 0.5, .., 8
        log_mgf = float(np.sum(np.log1p(np.expm1(s * k) / k)))
        cap = min(cap, math.ceil((log_mgf + budget) / s))
    return cap


def power_sum_scan(n_list: Sequence[int]) -> dict[int, float]:
    """Power sums sum_v P(T_n = v)^2 at several n from one capped DP.

    Each sum stops at v = cap(n), the least y with min_s B_s(y) <= 2^-30/n
    over s*n in 0.25, 0.5, .., 8, capped at n(n+1)/2.  By Chernoff,
    P(T_n > y) <= B_s(y) = exp(-s y + sum_{k<=n} log(1 + (e^{sk} - 1)/k)),
    and for each s the least such y is ceil((log-sum + 30 log 2 + log n)/s).
    The dropped part is at most P(T_n > cap)^2 <= 2^-60/n^2, and the sum
    is at least P(T_n = 1)^2 = 1/n^2, so the cap moves the sum by at most
    2^-60 of itself.  cap(n) is about 11n, so the scan is O(n_max cap).
    One DP capped at the largest cap serves every n, and its prefix up to
    cap(n) is exact, so each value depends on n alone.  The last bit can
    depend on the BLAS thread count: a threaded dot over a long vector
    sums in another order.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        raise ValueError("need at least one n")
    if n_list[0] < 1:
        raise ValueError("all n must be >= 1")
    caps = {n: _power_sum_cap(n) for n in n_list}
    out = {}
    for k, laws in _steps((0,), n_list[-1], cap=max(caps.values())):
        if k in caps:
            head = laws[: caps[k] + 1, 0]
            out[k] = float(np.dot(head, head))
    return out


def cov_Y(x_seq: KappaSeq, m: int, n: int) -> float:
    """Exact covariance of Y_m = m*1{T_m = kappa_m} and Y_n = n*1{T_n = kappa_n}.

    For m < n the independence of the blocks T_m and T_m^n gives the split

        Cov = { m P(T_m = kappa_m) } * { n P(T_m^n = kappa_n - kappa_m)
                                         - n P(T_n = kappa_n) }.
    """
    return _covariances(x_seq, [(m, n)])[0]


def _covariances(x_seq: KappaSeq, pairs) -> list[float]:
    """cov_Y at every (m, n) pair, all atoms read from one DP sweep."""
    atoms = []  # (m, n, v): the atom P(T_m^n = v), read from the law capped at v
    for m, n in pairs:
        if not (2 <= m <= n):
            raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
        km, kn = x_seq(m), x_seq(n)
        if kn - km < 0:
            raise ValueError(f"kappa_n - kappa_m = {kn - km} < 0 at m={m}, n={n}")
        atoms += [(0, m, km)] if m == n else [(0, m, km), (m, n, kn - km), (0, n, kn)]
    laws = _laws(atoms)
    p = iter([float(law[v]) if v < len(law) else 0.0 for law, (_, _, v) in zip(laws, atoms)])
    out = []
    for m, n in pairs:
        pm = next(p)
        if m == n:
            out.append(m * m * (pm - pm * pm))
        else:
            p_inc, p_n = next(p), next(p)
            out.append((m * pm) * (n * p_inc - n * p_n))
    return out
