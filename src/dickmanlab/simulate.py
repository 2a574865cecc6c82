"""Monte Carlo reproduction of the almost-sure local limit behaviour.

Each path simulates Z_1, Z_2, ... once and tracks the running sum
T_n = sum k Z_k, counting the hits {T_n = kappa_n}.  The log-average
hits / log N converges path-wise to exp(-gamma) rho(x).

Streams are counter-based (Philox) and keyed by (seed, path index), so
any path can be reproduced in isolation and paths never share draws.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dickman import EULER_GAMMA
from .exact_dist import KappaSeq, point_prob_scan

_CHUNK = 1 << 20


@dataclass(frozen=True)
class PathEstimate:
    """Result of one simulated path: hit counts and the log-average."""

    seed: int
    N: int
    hits: int
    log_avg: float


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _sweep(kappa: KappaSeq, N: int, seed: int, stream: int,
           ref_kappa: KappaSeq | None = None,
           checkpoints: tuple[int, ...] | None = None):
    """One pass over n = 1..N in chunks; returns hit counts.

    Z_n is drawn as {uniform integer in [0, n) equals 0}, which makes
    P(Z_n = 1) exactly 1/n (the generator rejects to remove modulo bias).
    """
    if N >= 2**32:
        raise ValueError(f"need N < 2**32 so that T_N fits in int64, got N={N}")
    rng = _rng(seed, stream)
    hits = 0
    aux = 0
    marks = sorted(checkpoints) if checkpoints else []
    at_marks: dict[int, int] = {}
    T = 0
    start = 1
    while start <= N:
        stop = min(start + _CHUNK - 1, N)
        ns = np.arange(start, stop + 1, dtype=np.int64)
        z = rng.integers(0, ns) == 0
        T_run = T + np.cumsum(ns * z)
        T = int(T_run[-1])
        hit_mask = T_run == kappa.values(ns)
        hits += int(hit_mask.sum())
        if ref_kappa is not None:
            aux += int((T_run == ref_kappa.values(ns)).sum())
        for mark in marks:
            if start <= mark <= stop:
                at_marks[mark] = hits - int(hit_mask[mark - start + 1 :].sum())
        start = stop + 1
    return hits, aux, at_marks


def simulate_path(kappa: KappaSeq, N: int, seed: int, stream: int = 0) -> PathEstimate:
    """Simulate one path of length N and return its hit count and log-average."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if kappa.x_float < 1.0:
        warnings.warn(
            "x < 1: kappa_n = floor(x n) need not be strictly increasing, "
            "no convergence guarantee applies",
            stacklevel=2,
        )
    hits, _, _ = _sweep(kappa, N, seed, stream)
    return PathEstimate(seed=seed, N=N, hits=hits, log_avg=hits / math.log(N))


def estimate_gamma(N: int, seeds) -> tuple[float, float]:
    """Estimate Euler's constant from the x = 1 log-averages.

    Returns (gamma estimate, raw mean of the per-path log-averages); the
    estimate is -ln(mean) since the mean approaches exp(-gamma).
    """
    kappa = KappaSeq(1, mode="exact-multiple")
    paths = [simulate_path(kappa, N, int(s), stream=i) for i, s in enumerate(seeds)]
    if sum(p.hits for p in paths) == 0:
        raise RuntimeError("no hits on any path; N too small to estimate")
    mean = float(np.mean([p.log_avg for p in paths]))
    return -math.log(mean), mean


def estimate_rho(x: float, N: int, seeds) -> float:
    """Estimate rho(x) as the pooled hit ratio for kappa = floor(xn) vs kappa = n.

    Numerator and denominator hits are counted on the same paths (common
    random numbers), which cancels most of the path-level noise.
    """
    if x < 1.0:
        raise ValueError(f"ratio estimator needs x >= 1, got {x}")
    kappa = KappaSeq(x)
    ref = KappaSeq(1, mode="exact-multiple")
    num = den = 0
    for i, s in enumerate(seeds):
        hits, aux, _ = _sweep(kappa, N, int(s), i, ref_kappa=ref)
        num += hits
        den += aux
    if den == 0:
        raise RuntimeError("no reference hits on any path; N too small")
    return num / den


def dispersion_diagnostic(x: float, N_list, seeds) -> list[tuple[int, float]]:
    """Across-path standard deviation of the log-average at each horizon."""
    N_list = sorted(set(int(N) for N in N_list))
    kappa = KappaSeq(x)
    top = N_list[-1]
    log_avgs = {N: [] for N in N_list}
    for i, s in enumerate(seeds):
        _, _, at_marks = _sweep(kappa, top, int(s), i, checkpoints=tuple(N_list))
        for N in N_list:
            log_avgs[N].append(at_marks[N] / math.log(N))
    return [(N, float(np.std(log_avgs[N]))) for N in N_list]


def hybrid_oracle_mean(N: int, n_cut: int = 2000) -> float:
    """Reference value for the x = 1 log-average at horizon N.

    Exact DP point probabilities up to n_cut, then the limiting
    exp(-gamma)/n tail, summed and normalized by log N.  The tail uses
    the digamma closed form for the harmonic increment.
    """
    if N <= n_cut:
        raise ValueError(f"need N > n_cut={n_cut}, got N={N}")
    kappa = KappaSeq(1, mode="exact-multiple")
    head = float(point_prob_scan(kappa, n_cut).sum())
    tail = math.exp(-EULER_GAMMA) * (_digamma(N + 1) - _digamma(n_cut + 1))
    return (head + tail) / math.log(N)


def _digamma(x: float) -> float:
    """Digamma for x >= 1, within 6e-15 absolute up to x = 1e15.

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
    time so memory stays at O(draws).
    """
    rng = _rng(seed, 0)
    T = np.full(draws, 1, dtype=np.int64)  # Z_1 is deterministic
    for k in range(2, n + 1):
        z = rng.integers(0, k, size=draws) == 0
        T += k * z
    return np.bincount(T, minlength=n * (n + 1) // 2 + 1)
