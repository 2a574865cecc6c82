"""Exact law of the weighted Bernoulli sum T = sum_{k=m+1}^n k * Z_k.

Z_k are independent indicators with P(Z_k = 1) = 1/k.  The distribution
is built by dynamic-programming convolution over the integer support
0..S, S = sum of the weights.  One in-place DP kernel, ``_steps``, serves
every float law.  It advances several blocks T_m^k with different starts
m side by side, so ``_laws``, the one batched law API, answers any
iterable of (m, n, cap) requests from one sweep with the book
{(m, n, cap): law}, each law bit for bit that of a one-block DP.
Readers plan, then read: they state every law they read as a request
and read their rows from the book (``pmf``, ``power_sum_scan``, the
audits), and the calibration builds one book for all its grids.
``pmf`` returns the whole law; the scans and audits cap the support at
the largest value they read, which is exact because entry v depends only
on entries <= v.  Readers of a few low atoms (``cov_Y``, the stimabase
audit) stop at those atoms, and power sums at a Chernoff cap whose
dropped tail is below 2^-60 of the sum.  The top of a sweep also falls to
``keep[k]``, the largest entry any read after step k needs: for a batch,
the largest cap still pending, so a wide law read early does not widen
the rest of the sweep.  ``_point_probs``, the one reader of P(T_n =
kappa_n), keeps u_k only up to R - k - 1, R its top target, or to the
last target within G = 256 of the one below, and carries each target
above as a float chain of the DP's own operations: a step costs less
than R + 1 + 2G kept entries, whatever the rows.
Each step also skips the exactly-zero tail of its laws: entries above
nz + k, nz the highest entry that can be nonzero, come out 0*q + 0*p = 0
exactly, and past n of about 177 the top entry 1/n! underflows to 0.0.
``kolmogorov_distance`` reads up to x_max (n - m), or accepts a shorter
law when its dropped tail plus the Dickman tail is certified below the
distance found; the w2 audit builds its law only to such a cap, 4 to 5.4
(n - m) on its pairs.  Default arithmetic is double precision; an
exact-rational mode (capped at n <= 64) exists purely as an oracle.
"""
from __future__ import annotations

import itertools
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

    kolmogorov_distance alone also accepts a float prefix of the law (a
    ``_laws`` book entry), such as one capped at ``_kolmogorov_cap``.
    """

    m: int
    n: int
    probs: np.ndarray | tuple
    mode: str  # "float" | "exact"

    @property
    def span(self) -> int:
        return self.n - self.m


def _steps(starts: Sequence[int], n: int, keep: Sequence[int] | None = None):
    """Float DP over k = starts[0]+1 .. n, in place, for sorted block starts.

    Yields (k, laws): column i of laws is the law of T_{starts[i]}^k on
    0..top.  Update per weight k:  new[v] = old[v]*(1 - 1/k) + old[v-k]*(1/k),
    on the columns with starts[i] < k only; the others stay a delta at 0.
    The support top is S_k = sum_{j=starts[0]+1}^k j.  With ``keep``,
    nonincreasing, where keep[k] is the largest entry that any read after
    step k needs, the top falls to keep[k] if smaller (but not below 0):
    entry v depends only on entries <= v, so truncation leaves every kept
    entry exact.  Once it falls it stays down, so every entry a later step
    reads was kept at each step before, and stale entries above the top go
    unread; the table holds the largest top.  ``_laws`` passes the largest
    cap still pending.
    ``_point_probs`` passes max(R - k - 1, N_k), R its largest pending
    target and N_k its last one within G of the one below: entry v of u_k
    reaches u_j(t), j > k, only through entries t - (sum of weights in
    k+1..j), so an entry above R - k - 1 matters only as a later read's own
    target t, which that reader keeps up to N_k and carries above it.
    Zero tail: every entry above nz is exactly 0.0, so a step scales and
    adds only up to hi = min(nz + k, top); each entry above it would be
    0*(1 - p) + 0*p = 0 exactly, the value it already holds.  While hi =
    nz + k grows with the support, a step whose entry hi came out 0.0
    (the top 1/k! of T_0^k does from k = 178 on) lowers nz to the last
    nonzero entry it wrote; only then is a row checked, so capped sweeps
    pay nothing.  Subnormal entries stay as they are.  Each column gets the float
    operations of its one-block DP on its nonzero entries (past its own
    support it adds zeros), so it is that law bit for bit.  Laws run down
    the columns so that, once every column is live, each slice over v is
    one contiguous block.  The yielded view is overwritten by the next
    step.
    """
    m = starts[0]
    # top_k = min(top_{k-1} + k, c_k), c_k = max(keep[k], 0), is min(S_k, c_k)
    # since c_k is nonincreasing.
    tops = np.arange(m + 1, n + 1).cumsum()
    if keep is not None:
        np.minimum(tops, np.maximum(keep[m + 1 : n + 1], 0), out=tops)
    laws = np.zeros((int(tops.max()) + 1, len(starts)))
    laws[0] = 1.0
    goes_live = {s + 1: laws[:, : i + 1] for i, s in enumerate(starts)}  # first weight s + 1
    live = None
    nz = 0  # every entry above nz is 0.0
    for k, top in zip(range(m + 1, n + 1), tops.tolist()):
        live = goes_live.get(k, live)
        p = 1.0 / k
        hi = nz + k  # the highest entry that can come out nonzero
        grows = hi <= top
        if not grows:
            hi = top
            if nz > top:  # the top fell; the entries above it go unread
                nz = top
        low = live[: nz + 1]
        if hi >= k:
            moved = live[: hi - k + 1] * p
            low *= 1.0 - p
            high = live[k : hi + 1]
            high += moved
            del moved  # free it before the next step allocates its own
        else:
            low *= 1.0 - p
        if grows and not any(laws[hi].tolist()):  # the new top underflowed to 0.0
            rows = np.flatnonzero(laws[nz + 1 : hi]) // len(starts)
            hi = nz + 1 + int(rows[-1]) if len(rows) else nz
        nz = hi
        yield k, laws[: top + 1]


def _laws(requests: Iterable[tuple[int, int, int | None]]) -> dict[tuple, np.ndarray]:
    """The book {(m, n, cap): law of T_m^n on 0..min(S, cap)} of distinct requests.

    One sweep builds it, each law the prefix of the full law bit for bit.
    The sweep keeps after step k only the largest top still to be read at
    some n >= k (``keep`` in ``_steps``), so a wide law read early does not
    widen the columns read late.  Laws taken before the last step are
    copies; at the last step a one-block sweep's law is a view, not a copy.
    """
    requests = list(dict.fromkeys(requests))
    if not requests:
        return {}
    if not all(0 <= m < n for m, n, _ in requests):
        raise ValueError(f"need 0 <= m < n in every request, got {requests}")
    starts = sorted({m for m, _, _ in requests})
    n_max = max(n for _, n, _ in requests)
    tops = [(n * (n + 1) - m * (m + 1)) // 2 for m, n, _ in requests]
    tops = [t if cap is None else min(t, cap) for t, (_, _, cap) in zip(tops, requests)]
    due: dict[int, list[int]] = {}
    keep = np.zeros(n_max + 1, dtype=np.int64)
    for j, (_, n, _) in enumerate(requests):
        due.setdefault(n, []).append(j)
        keep[n] = max(keep[n], tops[j])
    keep = np.maximum.accumulate(keep[::-1])[::-1]
    book = {}
    for k, laws in _steps(starts, n_max, keep):
        for j in due.get(k, ()):
            law = laws[: tops[j] + 1, starts.index(requests[j][0])]
            book[requests[j]] = np.ascontiguousarray(law) if k == n_max else law.copy()
    return book


def pmf(m: int, n: int, mode: str = "float") -> Pmf:
    """Exact law of T_m^n by DP convolution over k = m+1 .. n."""
    if not (0 <= m < n):
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    if mode == "float":
        return Pmf(m=m, n=n, probs=_laws([(m, n, None)])[m, n, None], mode="float")
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


def _dickman_tail(table: RhoTable, x: float) -> float:
    """A bound on sup_{x' >= x} |1 - D(x')|, D = dickman_cdf on this table.

    D(x') is a node value or a cubic stencil over nodes at or above
    floor(x / step) - 3; the stencil's weights sum to 1 and their absolute
    values to at most 1.64.  So twice the largest |1 - D| over those nodes
    bounds it, and 2^-40 covers the rounding (below 1e-14).
    """
    return 2.0 * float(table.cdf_gap[max(math.floor(x / table.step) - 3, 0)]) + 2.0**-40


def _kolmogorov_cap(table: RhoTable, m: int, n: int) -> int:
    """Largest value kolmogorov_distance needs of the law of T_m^n.

    That is floor(x_max (n-m)) for m = 0.  For m >= 1 it is the least y,
    up to that, with both P(T_m^n > y) <= m/(4n) by Chernoff and
    _dickman_tail(y/(n-m)) <= m/(4n): then the distance, at least the jump
    m/n at 0, passes the tail check in kolmogorov_distance.
    """
    span = n - m
    full = math.floor(table.x_max * span)
    if m == 0:
        return full
    bound = m / (4 * n)
    lo, hi = min(_chernoff_cap(m, n, -math.log(bound)), full), full
    while lo < hi:  # the least y in [lo, full] with a Dickman tail <= bound
        mid = (lo + hi) // 2
        if _dickman_tail(table, mid / span) <= bound:
            hi = mid
        else:
            lo = mid + 1
    return hi


def kolmogorov_distance(dist: Pmf, table: RhoTable) -> float:
    """sup_x | P(T_m^n/(n-m) <= x) - D(x) |, taken over the atom jump points.

    The reference CDF is evaluated on both sides of each atom.  Only atoms
    up to cap = floor(x_max (n-m)) are read: every atom past it is within
    1 - F(cap) of D = 1 on both sides, valid because the Dickman tail
    beyond x_max >= 15 is far below the distances measured here.

    A law that stops at y < cap (a prefix of the full law) is accepted
    only if  tail = (1 - F(y)) + _dickman_tail(y/(n-m)) + (n + cap) 2^-50
    is below the distance d found on 0..y; otherwise it raises ValueError.
    Each dropped atom's two terms are then at most the tail: its cdf lies
    between F(y) and the law's computed mass, and D within _dickman_tail
    of 1.  The margin (n + cap) 2^-50 is over twice the float drift of a
    computed cdf above 1, at most 2n 2^-53 from the DP's mass and cap 2^-53
    from the cumulative sum.  The cdf prefix and the D values are the same
    floats as for the full law, so d is its distance bit for bit.
    """
    span = dist.span
    top = (dist.n * (dist.n + 1) - dist.m * (dist.m + 1)) // 2
    if table.x_max < min(15.0, top / span):
        raise ValueError(
            f"table x_max={table.x_max} too short for scaled support up to {top / span:.3g}"
        )
    cap = min(top, math.floor(table.x_max * span))
    probs = np.asarray(dist.probs[: cap + 1], dtype=float)
    cdf = np.cumsum(probs)
    atoms = np.flatnonzero(probs)
    right = cdf[atoms]
    d = dickman_cdf(table, atoms / span)
    out = max(np.abs(right - d).max(), np.abs((right - probs[atoms]) - d).max())
    y = len(probs) - 1
    if y < cap:
        tail = (1.0 - cdf[-1]) + _dickman_tail(table, y / span) + (dist.n + cap) * 2.0**-50
        if not tail < out:
            raise ValueError(f"law stops at {y}, and its tail bound {tail:.3g} is not "
                             f"below the distance {out:.3g}")
    elif cap < top:
        out = max(out, abs(1.0 - cdf[-1]))
    return float(out)


def power_sum(dist: Pmf):
    """sum_v P(T_m^n = v)^2 (exact in rational mode)."""
    if dist.mode == "exact":
        return sum(p * p for p in dist.probs)
    probs = np.asarray(dist.probs, dtype=float)
    return float(np.dot(probs, probs))


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Law of the sum of the two independent blocks (a.n must equal b.m)."""
    if a.n != b.m:
        raise ValueError(f"blocks do not abut: a.n={a.n}, b.m={b.m}")
    probs = np.convolve(np.asarray(a.probs, float), np.asarray(b.probs, float))
    return Pmf(m=a.m, n=b.n, probs=probs, mode="float")


def point_prob_scan(kappa: KappaSeq, n_max: int) -> np.ndarray:
    """P(T_n = kappa_n), n = 1..n_max: ``_point_probs``, O(n_max (kappa_{n_max} + G))."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return np.array(_point_probs(kappa, range(1, n_max + 1)))


_CHAIN_GAP = 256
"""G: a target is chained only if more than G above the next-lower pending
one.  A chain update costs about G kept DP entries (0.5 to 0.85 us against
1.4 to 2.6 ns on 2 CPUs), so chains cost no more than the entries they drop."""


def _point_probs(kappa: KappaSeq, ns: Sequence[int]) -> list[float]:
    """P(T_n = kappa_n) at each n of the sorted distinct ns >= 1, from one sweep.

    The one point-probability reader; each value is the one-block DP entry
    u_n(kappa_n) bit for bit.  After step k the sweep keeps u_k up to
    keep[k] = max(R - k - 1, N_k) (see ``_steps``), R the largest pending
    target and N_k the largest one within G = _CHAIN_GAP of the next-lower
    pending target.  A pending target t above keep is carried as the chain
    c <- c*(1 - 1/(k+1)) + u_k(t - k - 1)*(1/(k+1)), the DP's own two
    products and one sum at entry t, from u_k(t) (zero past the support)
    at the last step k that keeps t (u_0 the delta at 0) to t's last read.
    Cost: the chains are the largest pending targets, each but the lowest
    two more than G above the one below, so c chains span over (c - 2) G entries
    above keep: a step costs less than R + 1 + 2G kept entries, any rows.
    """
    targets = kappa.values(ns).tolist()
    n_max = ns[-1]
    keep = targets[-1] - np.arange(1, n_max + 2)  # R - k - 1: R is the last target
    i = len(ns) - 1  # the last row within G of the row before it, if any
    while i > 0 and targets[i] - targets[i - 1] > _CHAIN_GAP:
        i -= 1
    if i > 0:  # N_k = targets[i] while row i - 1 is pending
        np.maximum(keep[: ns[i - 1]], targets[i], out=keep[: ns[i - 1]])
    j = len(ns)  # rows j.. read chains: t - keep[n] is nondecreasing along the rows
    while j > 0 and targets[j - 1] > keep[ns[j - 1]]:
        j -= 1
    last = dict(zip(targets[j:], ns[j:]))  # each chained target's last row
    firsts = np.searchsorted(-keep[1:], -np.array(list(last)), side="right")  # keep[k + 1] < t
    begin: dict[int, list[int]] = {}  # k -> targets whose chains start from u_k
    for k, t in zip(firsts.tolist(), last):
        begin.setdefault(k, []).append(t)
    reads = [None] * (n_max + 1)  # reads[n] = kappa_n at each row n
    for n, t in zip(ns, targets):
        reads[n] = t
    out = []
    chains: dict[int, float] = {}  # t -> u_k(t), for targets above the kept top
    sweep = _steps((0,), n_max, keep)
    for k, laws in itertools.chain([(0, np.ones((1, 1)))], sweep):
        t = reads[k]
        if t is not None:
            out.append((chains.pop(t) if last[t] == k else chains[t]) if t in chains
                       else laws.item(t, 0) if t < len(laws) else 0.0)
        if k in begin:
            for t in begin[k]:
                chains[t] = laws.item(t, 0) if t < len(laws) else 0.0
        if chains:
            p = 1.0 / (k + 1)
            q = 1.0 - p
            for t, c in chains.items():
                v = t - k - 1
                chains[t] = c * q + (laws.item(v, 0) if 0 <= v < len(laws) else 0.0) * p
    return out


def _chernoff_cap(m: int, n: int, budget: float) -> int:
    """Least y with min_s B_s(y) <= e^-budget over s n in 0.25, 0.5, .., 8, at most S.

    By Chernoff, P(T_m^n > y) <= B_s(y)
    = exp(-s y + sum_{m<k<=n} log(1 + (e^{sk} - 1)/k)), and for each s the
    least such y is ceil((log-sum + budget)/s).
    """
    k = np.arange(m + 1, n + 1, dtype=float)
    cap = (n * (n + 1) - m * (m + 1)) // 2
    for s in np.arange(1, 33) / (4 * n):
        log_mgf = float(np.sum(np.log1p(np.expm1(s * k) / k)))
        cap = min(cap, math.ceil((log_mgf + budget) / s))
    return cap


def _power_sum_cap(n: int) -> int:
    """Least y with min_s B_s(y) <= 2^-30/n, at most n(n+1)/2 (see power_sum_scan)."""
    return _chernoff_cap(0, n, 30 * math.log(2) + math.log(n))


def power_sum_scan(n_list: Sequence[int]) -> dict[int, float]:
    """Power sums sum_v P(T_n = v)^2 at several n from one capped DP.

    Each sum stops at v = cap(n), the least y with min_s B_s(y) <= 2^-30/n
    over s*n in 0.25, 0.5, .., 8, capped at n(n+1)/2.  By Chernoff,
    P(T_n > y) <= B_s(y) = exp(-s y + sum_{k<=n} log(1 + (e^{sk} - 1)/k)),
    and for each s the least such y is ceil((log-sum + 30 log 2 + log n)/s).
    The dropped part is at most P(T_n > cap)^2 <= 2^-60/n^2, and the sum
    is at least P(T_n = 1)^2 = 1/n^2, so the cap moves the sum by at most
    2^-60 of itself.  cap(n) is about 11n, so the scan is O(n_max cap).
    One book of the laws capped at cap(n) serves every n from one sweep,
    and each law is the exact prefix, so each value depends on n alone.
    The last bit can depend on the BLAS thread count: a threaded dot over a
    long vector sums in another order.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list:
        raise ValueError("need at least one n")
    if n_list[0] < 1:
        raise ValueError("all n must be >= 1")
    book = _laws((0, n, _power_sum_cap(n)) for n in n_list)
    return {n: float(np.dot(law, law)) for (_, n, _), law in book.items()}


def cov_Y(x_seq: KappaSeq, m: int, n: int) -> float:
    """Exact covariance of Y_m = m*1{T_m = kappa_m} and Y_n = n*1{T_n = kappa_n}.

    For m < n the independence of the blocks T_m and T_m^n gives the split

        Cov = { m P(T_m = kappa_m) } * { n P(T_m^n = kappa_n - kappa_m)
                                         - n P(T_n = kappa_n) }.
    """
    return _covariances(x_seq, [(m, n)])[0]


def _cov_atoms(x_seq: KappaSeq, pairs) -> list[tuple[int, int, int]]:
    """The atoms (m, n, v) that cov_Y reads at the pairs, after checking them.

    P(T_m^n = v) is read from the law capped at v, so each atom is also
    the request for its law.
    """
    atoms = []
    for m, n in pairs:
        if not (2 <= m <= n):
            raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
        km, kn = x_seq(m), x_seq(n)
        if kn - km < 0:
            raise ValueError(f"kappa_n - kappa_m = {kn - km} < 0 at m={m}, n={n}")
        atoms += [(0, m, km)] if m == n else [(0, m, km), (m, n, kn - km), (0, n, kn)]
    return atoms


def _covariances(x_seq: KappaSeq, pairs, book: dict | None = None) -> list[float]:
    """cov_Y at every (m, n) pair, its atoms read from ``book``.

    The book holds at least the laws ``_cov_atoms`` requests; by default it
    is built here, all from one DP sweep.
    """
    atoms = _cov_atoms(x_seq, pairs)
    if book is None:
        book = _laws(atoms)
    probs = []
    for m, n, v in atoms:
        law = book[m, n, v]
        probs.append(float(law[v]) if v < len(law) else 0.0)
    p = iter(probs)
    out = []
    for m, n in pairs:
        pm = next(p)
        if m == n:
            out.append(m * m * (pm - pm * pm))
        else:
            p_inc, p_n = next(p), next(p)
            out.append((m * pm) * (n * p_inc - n * p_n))
    return out
