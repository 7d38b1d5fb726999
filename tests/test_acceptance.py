"""Acceptance criteria.

One test per criterion, each at its stated tolerance; exact identities run
in rational arithmetic with zero tolerance.  Run with ``pytest -s`` to see
the per-criterion pass lines.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import chi2_critical, chi2_statistic, two_sample_chi2
from wordchain.bridges import harmonic_h, simulate_forward
from wordchain.kernels import multi_step_prob, one_step_prob
from wordchain.measures import (
    CanonicalPair,
    StepMeasure,
    empirical_pair,
    fixture_pairs,
    pattern_distribution,
    pattern_prob_exact,
    pattern_prob_mc,
    weak_distance,
)
from wordchain.orders import LabeledLetter, OrderSampler, moment_estimate
from wordchain.plackett_luce import RatePair, pl_sample, pl_word_prob
from wordchain.verify import (
    check_bridge_conditionals,
    check_convolution_identity,
    check_empirical_identity,
    check_kernel_ratio_law,
    check_matrix_exponential,
)
from wordchain.words import enumerate_balanced, successors

F = Fraction


def passline(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_convolution_identity():
    start = time.monotonic()
    result = check_convolution_identity()
    elapsed = time.monotonic() - start
    assert result.ok, result.failures
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    passline(1, f"convolution identity exact on {result.checked} (u, w) pairs "
                f"in {elapsed:.1f}s")


def test_criterion_2_matrix_exponential():
    start = time.monotonic()
    result = check_matrix_exponential()
    elapsed = time.monotonic() - start
    assert result.ok, result.failures
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    passline(2, f"exp(H) = P entrywise on {result.checked} entries "
                f"(words of length <= 5) in {elapsed:.1f}s")


def test_criterion_3_dm_kernel_ratio():
    result = check_kernel_ratio_law()
    assert result.ok, result.failures
    passline(3, f"Doob-Martin closed form equals the probability ratio on "
                f"{result.checked} pairs, exactly")


def test_criterion_4_bridge_backward_law():
    result = check_bridge_conditionals()
    assert result.ok, result.failures
    passline(4, f"bridge conditionals equal subword_count(v,u)/(m+1)^2 on "
                f"{result.checked} conditionals, exactly")


def test_criterion_5_base_chain_uniformity():
    # exact marginal first: every word of size 3 has probability 1/20
    for w in enumerate_balanced(3):
        assert multi_step_prob("", w) == F(1, 20)
    rng = random.Random(20)
    runs = 200_000
    counts = Counter(simulate_forward(3, rng)[-1] for _ in range(runs))
    expected = {w: F(1, 20) for w in enumerate_balanced(3)}
    stat = chi2_statistic(counts, expected, runs)
    crit = chi2_critical(20)
    assert stat < crit, f"chi-square {stat:.1f} >= {crit:.1f}"
    passline(5, f"U_3 uniform over W_3: chi-square {stat:.1f} < {crit:.1f} "
                f"(1% level, {runs} samples); exact marginal 1/20 verified")


def test_criterion_6_pattern_normalization():
    pairs = fixture_pairs()
    assert len(pairs) == 5
    for name, pair in pairs.items():
        for m in range(1, 4):
            total = sum(pattern_distribution(pair, m).values())
            assert total == 1, (name, m)
    # Monte Carlo cross-check at 10^5 trials per pair
    for i, (name, pair) in enumerate(pairs.items()):
        w = "abab"
        exact = float(pattern_prob_exact(pair, w))
        est = pattern_prob_mc(pair, w, 100_000, random.Random(600 + i))
        assert abs(est.value - exact) <= 3 * est.stderr + 1e-12, name
    passline(6, "pattern probabilities sum to 1 exactly (5 pairs, m <= 3); "
                "MC estimates within 3 standard errors at 1e5 trials")


def test_criterion_7_harmonicity():
    pairs = fixture_pairs()
    checked = 0
    for name, pair in pairs.items():
        for n in range(4):
            for u in enumerate_balanced(n):
                h_u = harmonic_h(pair, u)
                if name == "lebesgue":
                    assert h_u == 1
                total = sum(one_step_prob(u, v) * harmonic_h(pair, v) for v in successors(u))
                assert total == h_u, (name, u)
                checked += 1
    for rates in (RatePair(F(2), F(1)), RatePair(F(3), F(5)), RatePair(F(1), F(1))):
        for n in range(4):
            for u in enumerate_balanced(n):
                total = sum(
                    one_step_prob(u, v) * harmonic_h(rates, v) for v in successors(u)
                )
                assert total == harmonic_h(rates, u), (rates, u)
                checked += 1
    passline(7, f"harmonicity exact at {checked} states for 5 measure pairs and "
                f"3 rate pairs; h = 1 identically under the Lebesgue pair")


def test_criterion_8_empirical_identity():
    result = check_empirical_identity()
    assert result.ok, result.failures
    passline(8, f"(N^m)^2 * empirical pattern = (m!)^2 * subword count on "
                f"{result.checked} (y, w) pairs, exactly")


def test_criterion_9_plackett_luce():
    for n in range(5):
        rates = RatePair(F(7, 2), F(7, 2))
        for u in enumerate_balanced(n):
            assert pl_word_prob(rates, u) == F(1, math.comb(2 * n, n))
    rates = RatePair(F(2), F(1))
    rng = random.Random(901)
    runs = 60_000
    counts = Counter(pl_sample(rates, 2, rng) for _ in range(runs))
    for w in enumerate_balanced(2):
        p = float(pl_word_prob(rates, w))
        sigma = math.sqrt(p * (1 - p) / runs)
        assert abs(counts[w] / runs - p) <= 3 * sigma, w
    sort_counts = Counter(pl_sample(rates, 2, rng, method="sort") for _ in range(runs))
    stat, cells = two_sample_chi2(counts, sort_counts)
    crit = chi2_critical(cells)
    assert stat < crit, f"sampler variants disagree: {stat:.1f} >= {crit:.1f}"
    passline(9, f"equal rates give 1/C(2n,n) exactly (n <= 4); sampler matches pmf "
                f"within 3 sigma at {runs} draws; variants agree "
                f"(chi-square {stat:.1f} < {crit:.1f})")


def test_criterion_10_order_statistics():
    sampler = OrderSampler.from_pair(CanonicalPair.lebesgue(), random.Random(1000))
    mu1, nu1 = moment_estimate(sampler, 1, 100_000)
    assert abs(mu1.value - 0.5) <= 3 * mu1.stderr
    assert abs(nu1.value - 0.5) <= 3 * nu1.stderr
    mu2, nu2 = moment_estimate(sampler, 2, 100_000)
    assert abs(mu2.value - 1 / 3) <= 3 * mu2.stderr
    assert abs(nu2.value - 1 / 3) <= 3 * nu2.stderr
    letters = [LabeledLetter("a", 1), LabeledLetter("b", 1), LabeledLetter("a", 2)]
    for _ in range(30):
        run = sampler.run(500)
        for x in letters:
            for y in letters:
                if x == y:
                    continue
                gap = abs(run.f_hat(x) - run.f_hat(y))
                assert abs(gap - run.d_hat(x, y)) < 0.05
    passline(10, f"moments ({mu1.value:.4f}, {nu1.value:.4f}) ~ 1/2 and "
                 f"({mu2.value:.4f}, {nu2.value:.4f}) ~ 1/3 within 3 sigma at 1e5 "
                 f"trials; |f(x)-f(y)| matches d(x,y) within 0.05 per run at depth 500")


def test_criterion_11_boundary_distances():
    lebesgue = StepMeasure.lebesgue()
    runs = 100
    good = 0
    worst = 0.0
    for i in range(runs):
        rng = random.Random(1100 + i)
        y = simulate_forward(200, rng)[-1]
        pair = empirical_pair(y)
        dist = max(weak_distance(pair.mu, lebesgue), weak_distance(pair.nu, lebesgue))
        worst = max(worst, dist)
        good += dist < 0.15
    assert good >= 95, f"only {good}/100 runs below 0.15"
    passline(11, f"empirical measures of size-200 uniform words within Kolmogorov "
                 f"distance 0.15 of Lebesgue in {good}/100 seeded runs "
                 f"(worst {worst:.3f})")
