"""Exact law of the weighted Bernoulli sum T = sum_{k=m+1}^n k * Z_k.

Z_k are independent indicators with P(Z_k = 1) = 1/k.  The distribution
is built by dynamic-programming convolution over the integer support
0..S, S = sum of the weights.  One in-place DP kernel, ``_steps``, serves
every float law, advancing several blocks T_m^k with different starts m
side by side.  ``_laws``, the one caller of it, answers any iterable of
(m, n, lo, hi) requests, entries lo..hi of the law of T_m^n, with the
book {(m, n, lo, hi): value}: a float for an atom (lo == hi), an array
for a window, each bit for bit that of a one-block DP.  Readers plan,
then read: they state every entry they read as a request and read their
rows from the book (``pmf``, the scans, ``cov_Y``, the audits), and the
calibration builds one book for all its grids.  Entry v depends only on
entries <= v, so a sweep keeps no more than its reads need (``keep``),
and an atom far above the rest rides a float chain of the DP's own
operations: a step costs fewer than R + 1 + 2G kept entries per column,
R the largest pending hi and G = 256, whatever the requests.  Every law
ends at its last possibly-nonzero entry (the zero tail in ``_steps``),
and every reader reads past a law's end as 0.0.  ``kolmogorov_distance``
reads up to x_max (n - m), or accepts a shorter law when its dropped
tail plus the Dickman tail is certified below the distance found.
``_laws`` reads an atom (0, n, v, v) with v <= n and n >= SERIES_N0 from
``_head_series`` instead, one positive recurrence for every such atom.
Default arithmetic is double precision; an exact-rational mode (capped
at n <= 64) exists purely as an oracle.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

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
        if isinstance(x, (float, np.floating)):
            x = Fraction(str(x))
        else:
            x = Fraction(x)
        if x <= 0:
            raise ValueError(f"target slope must be positive, got {x}")
        if mode not in ("floor", "round", "exact-multiple"):
            raise ValueError(f"unknown kappa mode {mode!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mode", mode)
        # kappa_n = (a n + b) // c, read on every call: floor(xn) is (p, 0, q) for
        # x = p/q, and floor(xn + 1/2) = floor((2pn + q) / 2q) is (2p, q, 2q).
        p, q = x.as_integer_ratio()
        object.__setattr__(self, "_abc", (2 * p, q, 2 * q) if mode == "round" else (p, 0, q))

    def __call__(self, n) -> int:
        """kappa_n, in exact Python ints for any integer n, numpy ones included."""
        n = operator.index(n)
        a, b, c = self._abc
        if self.mode == "exact-multiple" and (a * n) % c:
            raise ValueError("x*n is not an integer for exact-multiple mode")
        return (a * n + b) // c

    def values(self, ns: Iterable[int]) -> np.ndarray:
        """kappa over many indices as int64; OverflowError past int64, never a wrap."""
        return np.array([self(n) for n in ns], dtype=np.int64)

    def first(self, T) -> int:
        """The smallest n >= 1 with kappa_n >= T, for an integer T >= 1.

        kappa is nondecreasing, so {n : kappa_n = T} = [first(T), first(T + 1)).
        """
        T = operator.index(T)
        a, b, c = self._abc
        if self.mode == "exact-multiple" and c != 1:
            raise ValueError("x*n is not an integer for exact-multiple mode")
        return -((b - c * T) // a)  # the least n with a n + b >= c T

    @property
    def x_float(self) -> float:
        return float(self.x)


class Pmf(NamedTuple):
    """Probability mass function of T_m^n on 0..S, up to its last nonzero atom.

    In float mode the law stops where the top of the support underflows to
    0.0 (past n of about 177); every entry past its end is 0.0.
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
    0..nz, nz <= top the highest entry that can be nonzero (Zero tail,
    below); every entry past it is 0.0.  Update per weight k:
    new[v] = old[v]*(1 - 1/k) + old[v-k]*(1/k), on the columns with
    starts[i] < k only; the others stay a delta at 0.  The support top is
    S_k = sum_{j=starts[0]+1}^k j.  With ``keep``, nonincreasing, where
    keep[k] is the largest entry that any read after step k needs, the top
    falls to keep[k] if smaller (but not below 0): entry v depends only on
    entries <= v, so truncation leaves every kept entry exact.  Once it
    falls it stays down, so every entry a later step reads was kept at each
    step before, and stale entries above the top go unread; the table holds
    the largest top.  ``_laws``, the one caller, derives keep from its reads.
    Zero tail: every entry above nz is exactly 0.0, so a step scales and
    adds only up to hi = min(nz + k, top); each entry above it would be
    0*(1 - p) + 0*p = 0 exactly, the value it already holds.  While hi =
    nz + k grows with the support, a step whose entry hi came out 0.0
    (the top 1/k! of T_0^k does from k = 178 on) lowers nz to the last
    nonzero entry it wrote; only then is a row checked, so capped sweeps
    pay nothing.  Subnormal entries stay as they are.  Each column gets the
    float operations of its one-block DP on its nonzero entries (past its
    own support it adds zeros), so it is that law bit for bit.  Laws run
    down the columns, so once every column is live each slice over v is
    one contiguous block; the yielded view is overwritten by the next step.
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
    nz = 0  # every entry above nz is 0.0
    low_nz = view_nz = -1  # low and view are cut anew only when nz moves (or live, for low)
    ps = 1.0 / np.arange(m + 1, n + 1)  # p = 1/k, as Python's 1.0 / k
    # p and q = 1 - p come as 0-d arrays, which a ufunc takes faster than floats.
    for k, top, p, q in zip(range(m + 1, n + 1), tops.tolist(), np.nditer(ps), np.nditer(1.0 - ps)):
        if k in goes_live:
            live, low_nz = goes_live[k], -1
        hi = nz + k  # the highest entry that can come out nonzero
        grows = hi <= top
        if not grows:
            hi = top
            if nz > top:  # the top fell; the entries above it go unread
                nz = top
        if nz != low_nz:
            low, low_nz = live[: nz + 1], nz
        if hi >= k:
            moved = live[: hi - k + 1] * p
            low *= q
            high = live[k : hi + 1]
            high += moved
            del moved  # free it before the next step allocates its own
        else:
            low *= q
        if grows and not any(laws[hi].tolist()):  # the new top underflowed to 0.0
            rows = np.flatnonzero(laws[nz + 1 : hi]) // len(starts)
            hi = nz + 1 + int(rows[-1]) if len(rows) else nz
        if hi != view_nz:
            view, view_nz = laws[: hi + 1], hi
        nz = hi
        yield k, view


_CHAIN_GAP = 256
"""G: an atom is chained only if more than G above the next-lower read.  A chain update
costs about G kept DP entries (0.5 to 0.85 us against 1.4 to 2.6 ns on 2 CPUs)."""

SERIES_N0 = 2001
"""N0: ``_laws`` reads an atom (0, n, v, v) with v <= n and n >= N0 from ``_head_series``.
The series beats the DP on a whole x = 1 row from n of about 500 (1.2 against 1.9 ms,
3.1 against 8.9 ms at 2000, 2 CPUs), so N0 sits at its floor: the CLI defaults, the
golden grids and ``simulate._HEAD`` read n <= 2000 and stay on the DP bit for bit."""

_SERIES_BLOCK = 192
"""B: ``_head_series`` sums h_s e_{r-s} directly for s < B, and by FFT blocks above."""


def _kernel_rows(k0: int, k1: int):
    """Rows q = 1, 2, .. of b_{k,q} for k0 <= k <= k1, k0 >= 3: (q, ks, b) per row.

    b_{k,1} = 1/(k-1) and b_{k,q} = (-1)^{q-1} k/(k-1)^q for q >= 2, the
    coefficients of z(1-z)/(k-1+z) = sum_q b_{k,q} z^q.  Each k's series
    stops at the first Q whose tail bound k(k-1)^{-(Q+1)}/(1 - 1/(k-1)) is
    at most 2^-60/(k-1); that falls with k, so the ks of each row are a
    prefix of the last.  A term's value and its stop depend on k alone.
    """
    ks = np.arange(k0, k1 + 1)
    a = 1.0 / (ks - 1)
    c = ks * a  # k a^q at q = 1
    yield 1, ks, a
    q = 1
    while True:
        # Term q+1 is kept while the tail past q, k a^{q+1}/(1-a), exceeds 2^-60 a.
        live = np.count_nonzero(c > 2.0**-60 * (1.0 - a))
        if not live:
            return
        ks, a = ks[:live], a[:live]
        c = c[:live] * a
        q += 1
        yield q, ks, (c if q % 2 else -c)


def _head_kernel(size: int) -> np.ndarray:
    """h_0..h_{size-1}, h_s = sum over kq = s, k >= 3 of (-1)^{q-1} k/(k-1)^q.

    That is z E'(z)/E(z) for E = prod_{k>=3} (1 + z^k/(k-1)): the b_{k,q}
    rows of ``_kernel_rows`` plus 1 at q = 1, cut at the same 2^-60 tail,
    so each h_s moves by at most 2^-60 (1 + log s).  Each h_s sums its terms
    in the order q = 1, 2, .., so its value depends on s alone.
    """
    h = np.zeros(size)
    h[3:] = 1.0
    for q, ks, b in _kernel_rows(3, size - 1):
        cut = max((size - 1) // q - 2, 0)  # k = 3 .. (size-1)//q, whose kq < size
        if not cut:
            break
        h[ks[:cut] * q] += b[:cut]
    return h


def _head_series(V: int) -> np.ndarray:
    """e_0..e_{V-1}, the coefficients of E(z) = prod_{k>=3} (1 + z^k/(k-1)).

    For v <= n, P(T_n = v) = (e_{v-1} + e_{v-3})/n (e_{-1} = e_{-2} = e_{-3} = 0):
    the law of T_n has generating function z(1 + z^2)/n * prod_{k=3}^n (1 +
    z^k/(k-1)), and no factor k > v reaches z^v.  Since z E'/E = sum h_s z^s,

        r e_r = sum_{s=3}^r h_s e_{r-s},  e_0 = 1, e_1 = e_2 = 0,

    with h from ``_head_kernel``; it raises ValueError unless every h_s >= 0.
    Semi-relaxed: e is computed three entries at a time (h_1 = h_2 = 0, so
    e_r..e_{r+2} read only e_{<r}), the terms s < B = _SERIES_BLOCK by one
    3 x (B-1) product per three entries.  The terms s >= B come from blocks
    h[w:2w), w = B, 2B, 4B, ..: when e[i:i+w] completes with i a multiple
    of w, its rfft product with h[w:2w) adds to entries i+w .. i+3w-2 of an
    accumulator, which e_r reads only once every block with entries r - s,
    s >= B, has completed (Brent and Kung, J. ACM 25, 1978; van der Hoeven,
    J. Symb. Comput. 34, 2002).  O(V log^2 V) work in O(V) memory; every
    e_r takes the same operations for any V > r, so it depends on r alone.

    Bound.  For 3 <= r < V <= 10^6, with u = 2^-53,

        |e_r computed - e_r| <= (1 + ln r) (2^-43 + 2^-42 sqrt(r) log2(2V)) e_r.

    Each r e_r sums nonnegative terms: the product's B - 3 (gamma_B
    relative) and at most two FFT blocks per level w <= r.  A block's error
    is normwise, at most (3 log2 2w + 2) 7u sqrt(2w) |x|_2 |g|_2 for e-block
    x and h-block g.  With e_r in [0.2, 0.5] for r >= 3 (e_0 = 1) and h_s
    in [0.45, 1.5] for 3 <= s < 2V (measured to V = 10^6), the blocks add
    at most 33 sqrt(r) (3 log2 2V + 2) 7u relative to r e_r.  So each step has
    relative error eta <= the bracket / 2.6, and as every term is
    nonnegative the computed e lies between the coefficients of E^{1-eta}
    and E^{1+eta}.  Those differ from e_r by at most
    2.5 eta (1 + sum_{j<=r} h_j/j) e_r, and sum_{j<=r} h_j/j <= ln r.
    Against exact rationals (r < 400) and the naive recurrence (r < 3e4)
    the gap is below 1.2e-15 relative.
    """
    B = _SERIES_BLOCK
    L = -(-max(V, 3) // B) * B  # entries computed: a multiple of B, hence of 3
    levels = [B << i for i in range((L - 1).bit_length()) if B << i < L]
    h = _head_kernel(2 * levels[-1] if levels else B)
    if (h < 0.0).any():
        s = int(np.flatnonzero(h < 0.0)[0])
        raise ValueError(f"h_{s} = {h.item(s)!r} < 0: the recurrence has lost its positive terms")
    blocks = {w: np.fft.rfft(h[w : 2 * w], 2 * w) for w in levels}
    near = np.zeros((3, B - 1))  # row t: h_s at e_{r-B+1+c}, s = t + B - 1 - c in [3, B)
    for t in range(3):
        near[t, t : t + B - 3] = h[B - 1 : 2 : -1]
    o = B - 1  # e_j sits at o + j, with zeros below j = 0
    e, acc, rs = np.zeros(o + L), np.zeros(L), np.arange(L, dtype=float)
    e[o] = 1.0
    for r in range(3, L, 3):
        e[o + r : o + r + 3] = (acc[r : r + 3] + np.dot(near, e[r : o + r])) / rs[r : r + 3]
        t = r + 3
        for w in levels:
            if t % w or t >= L:
                break
            out = min(2 * w - 1, L - t)
            acc[t : t + out] += np.fft.irfft(np.fft.rfft(e[o + t - w : o + t], 2 * w) * blocks[w],
                                             2 * w)[:out]
    return e[o : o + V]


def _laws(requests: Iterable[tuple[int, int, int, int | None]]) -> dict[tuple, float | np.ndarray]:
    """The book {(m, n, lo, hi): entries lo..hi of the law of T_m^n}, from one sweep.

    An atom (0, n, v, v) with v <= n and n >= SERIES_N0 is
    (e_{v-1} + e_{v-3})/n from one ``_head_series`` up to the largest such
    v, within that series' relative bound; it takes no part in the sweep.
    Every other value is the one-block DP's bit for bit: a float for an atom
    (lo == hi), 0.0 past the law's end; for a window (hi None: up to S) an
    array of its own from entry lo, cut after the sweep's last
    possibly-nonzero entry.  Either way an atom's value depends on the
    atom alone, not on the other requests.  After step k the table keeps
    up to keep[k], the largest of: hi - k - 1 over the reads at n >= k (entry v of T_m^k
    reaches entry hi of T_m^n only as v = hi or from v <= hi - k - 1); hi of
    the windows read at n >= k; and hi of each read within G = _CHAIN_GAP
    above the next-lower one, while it and a lower one pend.  An atom above
    keep[n] rides a chain keyed by (column, v), the DP's own two products
    and one sum c <- c*(1 - 1/(k+1)) + u_k(v - k - 1)*(1/(k+1)), from u_s(v),
    s the last step >= m that keeps v (before step m + 1 the column is the
    delta at 0).  Cost: the atoms chained at a step pend above keep, more
    than G apart, up to R, the largest pending hi, so c chains cost about
    cG <= R - keep + G entries: a step costs fewer than R + 1 + 2G kept
    entries per live column, whatever the requests.
    """
    book, read, tops, windows, heads = {}, [], [], [], []
    for r in sorted(dict.fromkeys(requests), key=operator.itemgetter(1)):  # in read order
        m, n, lo, hi = r
        if not (0 <= m < n and 0 <= lo and (hi is None or lo <= hi)):
            raise ValueError(f"need 0 <= m < n and 0 <= lo <= hi in a request, got {r}")
        if m == 0 and lo == hi <= n and n >= SERIES_N0:
            heads.append(r)
            continue
        top = (n * (n + 1) - m * (m + 1)) // 2  # S, then the largest entry read
        if lo == hi:
            if lo > top:
                book[r] = 0.0  # an atom past the support
                continue
            top = lo
        else:
            top = top if hi is None else min(top, hi)
            windows.append((n, top))
        read.append(r)
        tops.append(top)
    if heads:
        e = np.concatenate([np.zeros(3), _head_series(max(r[2] for r in heads))])
        for r in heads:  # e_j sits at j + 3
            book[r] = (e.item(r[2] + 2) + e.item(r[2])) / r[1]
    if not read:
        return book
    starts = sorted({r[0] for r in read})
    column = {s: i for i, s in enumerate(starts)}
    width, n_max, when = len(starts), read[-1][1], [r[1] for r in read] + [-1]  # -1 ends them
    n, top = np.array(when[:-1], dtype=np.int64), np.array(tops, dtype=np.int64)
    reach, held = np.full((2, n_max + 1), -1)
    np.maximum.at(reach, n, top)
    if windows:
        np.maximum.at(held, *np.array(windows).T)
    # Hold each read within G above the next-lower one while a lower read pends too.
    order = np.argsort(top, kind="stable")
    a, v = n[order], top[order]
    near = np.diff(v) <= _CHAIN_GAP
    np.maximum.at(held, np.minimum(a[1:], np.maximum.accumulate(a)[:-1])[near] - 1, v[1:][near])
    keep = np.maximum.accumulate(reach[::-1])[::-1] - np.arange(1, n_max + 2)
    np.maximum(keep, np.maximum.accumulate(held[::-1])[::-1], out=keep)
    # A chain's key v * width + column is the flat index of its entry in the table.
    begin, last = {}, {}  # k -> the chains that start from u_k; each chain's last read
    chained = np.flatnonzero(top > keep[n])  # atoms only: keep holds every window
    froms = np.searchsorted(-keep, -top[chained], side="right") - 1  # the last k keeping v
    for j, k in zip(chained.tolist(), froms.tolist()):
        m, n_j, v_j, _ = read[j]
        key = v_j * width + column[m]
        if key not in last:
            begin.setdefault(max(k, m), []).append(key)  # before m + 1: the delta at 0
        last[key] = n_j  # the reads run in step order
    chains: dict[int, float] = {}  # key -> u_k(v), v above the kept top
    j, sweep = 0, _steps(starts, n_max, keep)
    for k, laws in itertools.chain([(starts[0], np.ones((1, width)))], sweep):
        while when[j] == k:
            m, _, lo, hi = r = read[j]
            if lo != hi:
                book[r] = np.array(laws[lo : tops[j] + 1, column[m]])
            elif (key := lo * width + column[m]) in chains:
                book[r] = chains.pop(key) if last[key] == k else chains[key]
            else:
                book[r] = laws.item(key) if lo < len(laws) else 0.0
            j += 1
        if k in begin:
            for key in begin[k]:
                chains[key] = laws.item(key) if key < laws.size else 0.0
        if chains:
            p, shift, size = 1.0 / (k + 1), (k + 1) * width, laws.size
            q = 1.0 - p
            for key, x in chains.items():
                u = key - shift  # entry v - k - 1 of the chain's column
                chains[key] = x * q + (laws.item(u) if 0 <= u < size else 0.0) * p
    return book


def pmf(m: int, n: int, mode: str = "float") -> Pmf:
    """Exact law of T_m^n by DP convolution over k = m+1 .. n."""
    if not (0 <= m < n):
        raise ValueError(f"need 0 <= m < n, got m={m}, n={n}")
    if mode == "float":
        return Pmf(m=m, n=n, probs=_laws([(m, n, 0, None)])[m, n, 0, None], mode="float")
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
    """P(T_n = kappa_n), n = 1..n_max, from one ``_laws`` book.

    The DP rows cost O(n (kappa_n + G)); rows with n >= SERIES_N0 and
    kappa_n <= n come from one head series, O(V log^2 V) to V = kappa_{n_max}.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    atoms = [(0, n, t, t) for n, t in enumerate(map(kappa, range(1, n_max + 1)), 1)]
    book = _laws(atoms)
    return np.array([book[r] for r in atoms])


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
    book = _laws((0, n, 0, _power_sum_cap(n)) for n in n_list)
    return {n: float(np.dot(law, law)) for (_, n, _, _), law in book.items()}


def cov_Y(x_seq: KappaSeq, m: int, n: int) -> float:
    """Exact covariance of Y_m = m*1{T_m = kappa_m} and Y_n = n*1{T_n = kappa_n}.

    For m < n the independence of the blocks T_m and T_m^n gives the split

        Cov = { m P(T_m = kappa_m) } * { n P(T_m^n = kappa_n - kappa_m)
                                         - n P(T_n = kappa_n) }.
    """
    atoms, read = _covariances(x_seq, [(m, n)])
    return read(_laws(atoms))[0]


def _covariances(x_seq: KappaSeq, pairs):
    """cov_Y at every (m, n) pair as a plan: (atoms, read), the atom requests
    (m, n, v, v) after checking the pairs, and the reader of the covariances
    from a book holding them.

    At n >= SERIES_N0 with kappa_n <= n (x <= 1) the two routes mix: the
    book takes (0, n, kappa_n) from the head series and (m, n, d, d) from
    the DP.  The difference n (a - p_n) then carries the series' relative
    bound times cond = max(a, p_n)/|a - p_n|, which grows like n^2/m at
    x = 1 (about 2e7 at (10, 20000)).
    """
    pairs, atoms = list(pairs), []
    for m, n in pairs:
        if not (2 <= m <= n):
            raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
        km, kn = x_seq(m), x_seq(n)
        d = kn - km  # >= 0: x > 0 makes kappa nondecreasing in every mode
        atoms += [(0, m, km, km)] if m == n else [(0, m, km, km), (m, n, d, d), (0, n, kn, kn)]

    def read(book) -> list[float]:
        p = map(book.__getitem__, atoms)
        out = []
        for m, n in pairs:
            pm = next(p)
            if m == n:
                out.append(m * m * (pm - pm * pm))
            else:
                p_inc, p_n = next(p), next(p)
                out.append((m * pm) * (n * p_inc - n * p_n))
        return out

    return atoms, read
