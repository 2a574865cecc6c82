import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickmanlab import exact_dist
from dickmanlab.dickman import EULER_GAMMA
from dickmanlab.exact_dist import KappaSeq, pmf, point_prob_scan, prob_at
from dickmanlab import simulate as sim

KAPPA1 = KappaSeq(1, mode="exact-multiple")
SEEDS = [1000 + i for i in range(16)]


def test_first_step_always_hits():
    # Z_1 is deterministic, so T_1 = 1 = kappa_1 on every path
    est = sim.simulate_path(KAPPA1, 2, seed=5)
    assert est.hits >= 1
    assert sim._walk([KAPPA1], [1], 5, 0) == [[1]]  # a mark counts n <= mark


def test_determinism():
    a = sim.simulate_path(KAPPA1, 200_000, seed=42)
    b = sim.simulate_path(KAPPA1, 200_000, seed=42)
    assert a == b
    c = sim.simulate_path(KAPPA1, 200_000, seed=43)
    assert c != a or c.hits == a.hits  # different stream, same contract


def test_streams_are_independent():
    a = sim.simulate_path(KAPPA1, 200_000, seed=42, stream=0)
    b = sim.simulate_path(KAPPA1, 200_000, seed=42, stream=1)
    assert (a.hits, a.log_avg) != (b.hits, b.log_avg) or a.hits == b.hits


def test_path_invariants():
    est = sim.simulate_path(KAPPA1, 50_000, seed=7)
    assert 0 <= est.hits <= est.N
    assert est.log_avg == pytest.approx(est.hits / math.log(est.N), abs=1e-15)
    with pytest.raises(ValueError):
        sim.simulate_path(KAPPA1, 1, seed=7)


def test_simulate_paths_reads_stream_i_of_seed_i():
    seeds = [3, 3, 8]
    assert sim.simulate_paths(KAPPA1, 5000, seeds) == [
        sim.simulate_path(KAPPA1, 5000, s, i) for i, s in enumerate(seeds)]
    with pytest.raises(ValueError):
        sim.simulate_paths(KAPPA1, 5000, [])


def test_walk_marks_are_prefix_counts():
    marks = sim._walk([KAPPA1], [10_000, 300_000], 11, 0)[0]
    assert marks[0] == sim._walk([KAPPA1], [10_000], 11, 0)[0][0]
    assert marks[1] == sim._walk([KAPPA1], [300_000], 11, 0)[0][0]


def test_walk_mean_hits_match_exact_dp():
    # E #{n <= N : T_n = kappa_n} = sum_n P(T_n = kappa_n), by the DP.
    N, paths = 20_000, 2000
    kappas = [KAPPA1, KappaSeq(2), KappaSeq(Fraction(3, 2)), KappaSeq(Fraction(2, 3)),
              KappaSeq(Fraction(5, 4), mode="round")]
    hits = np.array([[row[0] for row in sim._walk(kappas, [N], 99, i)]
                     for i in range(paths)])
    for kappa, col in zip(kappas, hits.T):
        want = float(point_prob_scan(kappa, N).sum())
        se = col.std(ddof=1) / math.sqrt(paths)
        assert abs(col.mean() - want) < 5 * se, kappa


class ScriptedBits:
    """Feeds the given 64-bit words, then all-ones words; counts the draws."""

    def __init__(self, words):
        self.words = list(words)
        self.drawn = 0

    def random_raw(self):
        self.drawn += 1
        return self.words.pop(0) if self.words else 2**64 - 1


@pytest.mark.parametrize("words", [
    [0, 2**128 // 3000 - 1],  # U < 2^-64: the first word settles nothing
    [2**53, 1],  # 2^64 / 2^53 = 2048 is a floor boundary
])
def test_walk_draws_another_word_until_the_gap_is_settled(monkeypatch, words):
    bits = ScriptedBits(words)
    monkeypatch.setattr(sim, "_rng", lambda seed, stream: bits)
    a = (words[0] << 64) | words[1]
    j = (1 << 128) // a + 1
    assert j == (1 << 128) // (a + 1) + 1
    # kappa_n = floor(n / 2000) is 1 exactly on [2000, 4000), so the hits
    # of T = 1 on its stretch [1, j) read off j.  Both words go to that
    # gap; one all-ones word then steps past the mark j, with T > 2000.
    assert 2000 <= j < 4000
    assert sim._walk([KappaSeq(Fraction(1, 2000))], [j], 0, 0) == [[j - 2000]]
    assert bits.drawn == 3


def _reference_walk(kappas, marks, seed, stream):
    """The jump walk as first written, one kappa.first pair per stretch and kappa."""
    bits = sim._rng(seed, stream)
    hits = [[0] * len(marks) for _ in kappas]
    k = T = 1
    while k <= max(marks):
        a = b = 0
        while not (a and (k << b) // a == (k << b) // (a + 1)):
            a, b = (a << 64) | bits.random_raw(), b + 64
        j = (k << b) // a + 1
        for row, kappa in zip(hits, kappas):
            lo, hi = max(k, kappa.first(T)), min(j, kappa.first(T + 1))
            for m, mark in enumerate(marks):
                row[m] += max(0, min(hi, mark + 1) - lo)
        k, T = j, T + j
    return hits


class CountedBits:
    """A stream's words, counted as ScriptedBits counts them."""

    def __init__(self, bits):
        self.bits = bits
        self.drawn = 0

    def random_raw(self):
        self.drawn += 1
        return self.bits.random_raw()


def _counted(walk, kappas, marks, seed, stream):
    """(hits, words drawn) of one walk, its stream read through sim._rng."""
    streams = []
    rng = sim._rng

    def counting_rng(seed, stream):
        streams.append(CountedBits(rng(seed, stream)))
        return streams[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_rng", counting_rng)
        hits = walk(kappas, marks, seed, stream)
    return hits, sum(b.drawn for b in streams)


_SLOPES = st.one_of(st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)),
                    st.sampled_from([1.775, 1.2345678901234567]))
_KAPPAS = st.one_of(st.builds(KappaSeq, _SLOPES, st.sampled_from(["floor", "round"])),
                    st.builds(KappaSeq, st.integers(1, 50), st.just("exact-multiple")))


@settings(max_examples=100, deadline=None)
@given(kappas=st.lists(_KAPPAS, min_size=1, max_size=3),
       marks=st.lists(st.integers(1, 10**7), min_size=1, max_size=4).map(sorted),
       seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 2**16))
def test_walk_is_the_reference_walk_word_for_word(kappas, marks, seed, stream):
    assert (_counted(sim._walk, kappas, marks, seed, stream)
            == _counted(_reference_walk, kappas, marks, seed, stream))


def test_walk_rejects_a_non_integer_exact_multiple():
    kappa = KappaSeq(Fraction(3, 2), mode="exact-multiple")
    for walk in (sim._walk, _reference_walk):
        with pytest.raises(ValueError):
            walk([KAPPA1, kappa], [1000], 1, 0)


def test_estimate_gamma_near_truth():
    gamma_est, mean = sim.estimate_gamma(10**6, SEEDS)
    oracle = sim.hybrid_oracle_mean(10**6)
    assert abs(mean - oracle) < 0.1
    assert abs(gamma_est - 0.5772156649) < 0.25  # log-speed convergence


def test_estimate_rho_ratio():
    assert sim.estimate_rho(1.0, 50_000, SEEDS[:4]) == 1.0
    with pytest.raises(ValueError):
        sim.estimate_rho(0.5, 1000, SEEDS[:2])


# H_N - H_{n_cut} by mpmath.harmonic at 30 digits.
HARMONIC_TAILS = [
    (1, 2, 0.5),
    (1, 10, 1.92896825396825396825396825397),
    (1, 10**4, 8.78760603604438226417847790485),
    (1, 10**6, 13.3927267228657236313811274932),
    (1, 10**9, 20.3004815023479440166851018489),
    (100, 200, 0.690653430481824215252268721472),
    (100, 10**4, 4.60022851840476200337336022919),
    (100, 10**9, 16.1131039847083237558799841733),
    (2000, 4000, 0.693022196184944821136043156599),
    (2000, 10**4, 1.60923793243409985460082133321),
    (2000, 10**6, 6.21435861925544122180347092155),
    (2000, 10**9, 13.1221133987376616071074452773),
    (1, 10**15, 34.1159920598122186208763839103),
    (1, 10**18, 41.0237473387943551734303582744),
    (2000, 10**15, 26.9376239562019362112987273387),
    (2000, 10**18, 33.8453792351840727638527017028),
]


@pytest.mark.parametrize("n_cut,N,want", HARMONIC_TAILS)
def test_harmonic_tail_matches_mpmath(n_cut, N, want):
    tail = sim._digamma(N + 1) - sim._digamma(n_cut + 1)
    assert abs(tail - want) <= 1e-14 * want


def test_head_is_the_dp_sum():
    assert sim._HEAD == float(point_prob_scan(KAPPA1, 2000).sum())


@pytest.mark.parametrize("N", [2001, 10**6, 10**18])
def test_hybrid_oracle_mean_is_the_head_sweep_formula(N):
    # hybrid_oracle_mean with its head swept by the DP on each call.
    head = float(point_prob_scan(KAPPA1, 2000).sum())
    tail = math.exp(-EULER_GAMMA) * (sim._digamma(N + 1) - sim._digamma(2000 + 1))
    assert sim.hybrid_oracle_mean(N) == (head + tail) / math.log(N)


def test_monte_carlo_layer_makes_no_dp_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a Monte Carlo call swept the DP")

    monkeypatch.setattr(exact_dist, "_steps", no_sweep)
    with pytest.raises(AssertionError):  # the guard is live
        point_prob_scan(KAPPA1, 10)
    sim.hybrid_oracle_mean(10**6)
    sim.estimate_gamma(10**5, SEEDS[:2])
    sim.estimate_rho(1.7, 10**5, SEEDS[:2])
    sim.dispersion_diagnostic(1.7, [10**3, 10**5], SEEDS[:2])


def test_hybrid_oracle_shape():
    v = sim.hybrid_oracle_mean(10**6)
    assert 0.5 < v < 0.7
    with pytest.raises(ValueError):
        sim.hybrid_oracle_mean(1000)


def test_dispersion_diagnostic():
    rows = sim.dispersion_diagnostic(1.0, [10**3, 10**5], SEEDS)
    assert [N for N, _ in rows] == [10**3, 10**5]
    assert all(s >= 0.0 for _, s in rows)
    single = sim.dispersion_diagnostic(1.0, [10**3], SEEDS[:1])
    assert single[0][1] == 0.0


def test_mc_matches_dp_at_fixed_n():
    draws = 200_000
    counts = sim.sample_sum_counts(20, draws, seed=3)
    d = pmf(0, 20)
    probs = np.asarray(d.probs)
    heavy = np.argsort(probs)[::-1][:10]
    for v in heavy:
        p = probs[v]
        sd = math.sqrt(draws * p * (1 - p))
        assert abs(counts[v] - draws * p) < 4 * sd


def test_sample_sum_counts_needs_a_nonempty_sum():
    assert sim.sample_sum_counts(1, 5, 1).tolist() == [0, 5]  # T_1 = 1
    for n in (0, -3):
        with pytest.raises(ValueError):
            sim.sample_sum_counts(n, 5, 1)


def test_empirical_hit_frequency_matches_prob():
    n, draws = 30, 200_000
    counts = sim.sample_sum_counts(n, draws, seed=9)
    p = prob_at(pmf(0, n), 30)
    sd = math.sqrt(draws * p * (1 - p))
    assert abs(counts[30] - draws * p) < 4 * sd
