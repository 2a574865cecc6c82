"""Monte Carlo reproduction of the almost-sure local limit behaviour.

Each path tracks the running sum T_n = sum k Z_k, counting the hits
{T_n = kappa_n}.  The log-average hits / log N converges path-wise to
exp(-gamma) rho(x).  The Z_k are the record indicators of an iid
sequence, so each path jumps from one index with Z = 1 to the next in an
exact integer draw: O(log N) work per path, with no limit on N.

Streams are counter-based (Philox) and keyed by (seed, path index), so
any path can be reproduced in isolation and paths never share draws.
``_streams`` holds that rule, and every multi-path estimator reads its
(seed, stream) pairs from it, with one generator per call that each path
rekeys to its stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dickman import EULER_GAMMA
from .exact_dist import KappaSeq

_HEAD = 4.8605100796397975  # sum of P(T_n = n) over n <= 2000, by the DP


@dataclass(frozen=True)
class PathEstimate:
    """Result of one simulated path: hit counts and the log-average."""

    seed: int
    N: int
    hits: int
    log_avg: float


def _rng(seed: int, stream: int) -> np.random.Philox:
    return np.random.Philox(key=[seed, stream])


def _rekey(bits: np.random.Philox, seed: int, stream: int) -> np.random.Philox:
    """``bits`` in the state of _rng(seed, stream), without the SeedSequence from OS
    entropy that the constructor draws and drops; the key converts as it does there."""
    zero = np.zeros(4, dtype=np.uint64)
    bits.state = {"bit_generator": "Philox", "buffer": zero, "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0,
                  "state": {"counter": zero, "key": np.asarray([seed, stream]).astype(np.uint64)}}
    return bits


def _walk(kappas, marks, bits: np.random.Philox) -> list[list[int]]:
    """hits[i][j] = #{n <= marks[j] : T_n = kappas[i](n)} on one path.

    After an index k with Z_k = 1 the next one, j, has P(j > i) = k/i, so
    j = floor(k/U) + 1.  U is read 64 bits at a time: with its first b bits
    equal to a, U lies in [a/2^b, (a+1)/2^b), and j is settled once
    k 2^b // (a+1) == k 2^b // a.  On the stretch [k, j) T is constant and,
    kappa being nondecreasing, hits [kappa.first(T), kappa.first(T + 1)).
    The words come from ``bits``, the path's generator: _rng(seed, stream)
    or one _rekey-ed to it.
    """
    draw = bits.random_raw
    firsts = [kappa.first for kappa in kappas]
    hits = [[0] * len(marks) for _ in kappas]
    top = max(marks)
    k = T = 1  # Z_1 = 1 always
    while k <= top:
        a, kb = draw(), k << 64  # kb = k 2^b
        while not a or kb // a != kb // (a + 1):
            a, kb = (a << 64) | draw(), kb << 64
        j = kb // a + 1
        for row, first in zip(hits, firsts):
            lo = first(T)
            if lo < j:  # else kappa reaches T only past the stretch
                hi = first(T + 1)
                lo, hi = (lo if lo > k else k), (hi if hi < j else j)
                if lo < hi:
                    for m, mark in enumerate(marks):
                        if mark >= lo:
                            row[m] += (hi if hi <= mark else mark + 1) - lo
        k, T = j, T + j
    return hits


def _streams(horizons, seeds) -> list[tuple[np.random.Philox, int, int]]:
    """[(bits, seed, i), ...], path i reading stream i of its seed through ``bits``, one
    generator that each path's ``_rekey`` moves to its stream; needs every N >= 2 and a seed."""
    seeds = [int(s) for s in seeds]
    if min(horizons, default=0) < 2 or not seeds:
        raise ValueError(f"need horizons N >= 2 and a seed, got N={list(horizons)} "
                         f"and {len(seeds)} seeds")
    bits = _rng(seeds[0], 0)
    return [(bits, s, i) for i, s in enumerate(seeds)]


def simulate_path(kappa: KappaSeq, N: int, seed: int, stream: int = 0) -> PathEstimate:
    """Simulate one path of length N and return its hit count and log-average."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    hits = _walk([kappa], [N], _rng(seed, stream))[0][0]
    return PathEstimate(seed=seed, N=N, hits=hits, log_avg=hits / math.log(N))


def simulate_paths(kappa: KappaSeq, N: int, seeds) -> list[PathEstimate]:
    """One path per seed, path i on stream i of its seed."""
    paths = _streams([N], seeds)
    hits = [_walk([kappa], [N], _rekey(*path))[0][0] for path in paths]
    return [PathEstimate(seed=s, N=N, hits=h, log_avg=h / math.log(N))
            for (_, s, _), h in zip(paths, hits)]


def estimate_gamma(N: int, seeds) -> tuple[float, float]:
    """Estimate Euler's constant from the x = 1 log-averages.

    Returns (gamma estimate, raw mean of the per-path log-averages); the
    estimate is -ln(mean) since the mean approaches exp(-gamma).  Every
    path hits at n = 1, so the mean is positive.
    """
    kappa = KappaSeq(1, mode="exact-multiple")
    mean = float(np.mean([p.log_avg for p in simulate_paths(kappa, N, seeds)]))
    return -math.log(mean), mean


def estimate_rho(x: float, N: int, seeds) -> float:
    """Estimate rho(x) as the pooled hit ratio for kappa = floor(xn) vs kappa = n.

    Numerator and denominator hits are counted on the same paths (common
    random numbers), which cancels most of the path-level noise.
    """
    if x < 1.0:
        raise ValueError(f"ratio estimator needs x >= 1, got {x}")
    kappas = [KappaSeq(x), KappaSeq(1, mode="exact-multiple")]
    hits = [_walk(kappas, [N], _rekey(*path)) for path in _streams([N], seeds)]
    return sum(h[0][0] for h in hits) / sum(h[1][0] for h in hits)


def dispersion_diagnostic(x: float, N_list, seeds) -> list[tuple[int, float]]:
    """Across-path standard deviation of the log-average at each horizon."""
    N_list = sorted(set(int(N) for N in N_list))
    kappa = KappaSeq(x)
    hits = [_walk([kappa], N_list, _rekey(*path))[0] for path in _streams(N_list, seeds)]
    return [(N, float(np.std([h[m] / math.log(N) for h in hits])))
            for m, N in enumerate(N_list)]


def hybrid_oracle_mean(N: int) -> float:
    """Reference value for the x = 1 log-average at horizon N.

    The exact head, the sum of P(T_n = n) up to n_cut = 2000, is the committed
    float ``_HEAD`` (test_simulate.py::test_head_is_the_dp_sum recomputes it),
    so a call makes no DP sweep.  The limiting exp(-gamma)/n tail is the digamma
    closed form of the harmonic increment; the sum is normalized by log N.
    """
    n_cut = 2000
    if N <= n_cut:
        raise ValueError(f"need N > n_cut={n_cut}, got N={N}")
    tail = math.exp(-EULER_GAMMA) * (_digamma(N + 1) - _digamma(n_cut + 1))
    return (_HEAD + tail) / math.log(N)


def _digamma(x: float) -> float:
    """Digamma for x >= 1, within 6e-15 absolute up to x = 1e18.

    psi(x) = psi(x + 1) - 1/x carries x to 20 or more, where the asymptotic
    series cut after x^-10 leaves a remainder below 1e-17.
    """
    shift = 0.0
    while x < 20.0:
        shift += 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    series = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (1 / 240 - x2 / 132))))
    return math.log(x) - 0.5 / x - series - shift


def sample_sum_counts(n: int, draws: int, seed: int) -> np.ndarray:
    """Empirical counts of T_n over independent draws, for MC/DP comparison.

    Returns an array c with c[v] = #{draws with T_n = v}, one weight at a
    time so memory stays at O(draws).  Needs n >= 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    rng = np.random.Generator(_rng(seed, 0))
    T = np.full(draws, 1, dtype=np.int64)  # Z_1 is deterministic
    for k in range(2, n + 1):
        z = rng.integers(0, k, size=draws) == 0
        T += k * z
    return np.bincount(T, minlength=n * (n + 1) // 2 + 1)
