"""Exponential-rates bridge: closed forms, samplers, and cross-checks."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ScriptedRandom, chi2_critical, chi2_statistic, two_sample_chi2
from wordchain.bridges import InfiniteBridge, harmonic_h, htransform_row, htransform_step_prob
from wordchain.errors import SizeMismatchError
from wordchain.kernels import one_step_prob
from wordchain.measures import (
    Exponential,
    RatePair,
    _scaled_rates,
    _suffix_product,
    interleave_pattern,
    pattern_prob_exact,
    pl_word_prob,
    suffix_counts,
)
from wordchain.orders import OrderSampler
from wordchain.plackett_luce import pl_sample, pl_transition
from wordchain.words import enumerate_balanced, subword_count, successors

F = Fraction
TWO_ONE = RatePair(F(2), F(1))


class TestSuffixCounts:
    def test_balanced_endpoints(self):
        for u in ["ab", "abba", "bababa"]:
            counts = suffix_counts(u)
            n = len(u) // 2
            assert counts[0] == (n, n)
            assert sum(counts[-1]) == 1

    def test_values(self):
        assert suffix_counts("abba") == [(2, 2), (1, 2), (1, 1), (1, 0)]


class TestSuffixProduct:
    def test_balanced_tree_matches_left_fold(self):
        seed_rng = random.Random(303)
        digits40 = lambda: seed_rng.randrange(10**39, 10**40)  # noqa: E731
        ps, rq = _scaled_rates(RatePair(F(digits40(), 7**30), F(digits40(), 3**50)))
        for n in (0, 1, 3, 1000, 2000):
            letters = list("ab" * n)
            seed_rng.shuffle(letters)
            u = "".join(letters)
            fold = math.prod(a * ps + b * rq for a, b in suffix_counts(u))
            assert _suffix_product(ps, rq, u) == fold, n


class TestWordProb:
    def test_equal_rates_uniform(self):
        for gamma in (F(1), F(7, 3)):
            rates = RatePair(gamma, gamma)
            for n in range(5):
                for u in enumerate_balanced(n):
                    assert pl_word_prob(rates, u) == F(1, math.comb(2 * n, n))

    def test_two_one_values(self):
        # competing exponentials: P{Exp(2) < Exp(1)} = 2/3
        assert pl_word_prob(TWO_ONE, "ab") == F(2, 3)
        assert pl_word_prob(TWO_ONE, "ba") == F(1, 3)

    def test_competing_exponentials_mc_oracle(self):
        rng = random.Random(301)
        runs = 100_000
        hits = sum(rng.expovariate(2.0) < rng.expovariate(1.0) for _ in range(runs))
        sigma = math.sqrt((2 / 3) * (1 / 3) / runs)
        assert abs(hits / runs - 2 / 3) < 3 * sigma

    def test_normalization(self):
        for rates in (TWO_ONE, RatePair(F(3), F(5)), RatePair(F(1, 3), F(9, 2))):
            for n in range(4):
                assert sum(pl_word_prob(rates, u) for u in enumerate_balanced(n)) == 1

    def test_degenerate_limit_monotone(self):
        probs = [
            pl_word_prob(RatePair(F(ratio), F(1)), "aabb")
            for ratio in (1, 10, 100, 1000)
        ]
        assert all(p2 > p1 for p1, p2 in zip(probs, probs[1:]))
        assert probs[-1] > F(99, 100)


class TestHarmonic:
    def test_equal_rates_constant(self):
        rates = RatePair(F(4), F(4))
        for n in range(4):
            for w in enumerate_balanced(n):
                assert harmonic_h(rates, w) == 1

    def test_two_one_values(self):
        assert harmonic_h(TWO_ONE, "ab") == F(4, 3)
        assert harmonic_h(TWO_ONE, "ba") == F(2, 3)
        # harmonicity at the empty word: (1/2)(4/3) + (1/2)(2/3) = 1
        assert one_step_prob("", "ab") * F(4, 3) + one_step_prob("", "ba") * F(2, 3) == 1

    def test_empty_word(self):
        for rates in (TWO_ONE, RatePair(F(3), F(5))):
            assert harmonic_h(rates, "") == 1

    def test_relation_to_word_prob(self):
        for u in enumerate_balanced(3):
            assert pl_word_prob(TWO_ONE, u) == harmonic_h(TWO_ONE, u) * F(
                1, math.comb(6, 3)
            )


class TestTransition:
    def test_equal_rates_reduce_to_base(self):
        rates = RatePair(F(5), F(5))
        for n in range(3):
            for u in enumerate_balanced(n):
                for v in successors(u):
                    assert pl_transition(rates, u, v) == F(
                        subword_count(v, u), (2 * n + 2) * (2 * n + 1)
                    )

    def test_first_step_matches_word_prob(self):
        assert pl_transition(TWO_ONE, "", "ab") == pl_word_prob(TWO_ONE, "ab")
        assert pl_transition(TWO_ONE, "", "ba") == pl_word_prob(TWO_ONE, "ba")

    def test_rows_sum_to_one_random_rates(self):
        rng = random.Random(302)
        for _ in range(5):
            rates = RatePair(
                F(rng.randrange(1, 40), rng.randrange(1, 8)),
                F(rng.randrange(1, 40), rng.randrange(1, 8)),
            )
            for n in range(4):
                for u in enumerate_balanced(n):
                    assert sum(pl_transition(rates, u, v) for v in successors(u)) == 1

    def test_triangle_identity(self):
        for n in range(4):
            for u in enumerate_balanced(n):
                h_u = harmonic_h(TWO_ONE, u)
                for v in successors(u):
                    assert pl_transition(TWO_ONE, u, v) == one_step_prob(
                        u, v
                    ) * harmonic_h(TWO_ONE, v) / h_u

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pl_transition(TWO_ONE, "ab", "ab")


class TestSamplers:
    def test_equal_rates_uniform(self):
        rng = random.Random(303)
        runs = 60_000
        counts = Counter(pl_sample(RatePair(F(1), F(1)), 2, rng) for _ in range(runs))
        expected = {w: F(1, 6) for w in enumerate_balanced(2)}
        assert chi2_statistic(counts, expected, runs) < chi2_critical(6)

    def test_frequencies_match_pmf(self):
        rng = random.Random(304)
        runs = 60_000
        counts = Counter(pl_sample(TWO_ONE, 2, rng) for _ in range(runs))
        for w in enumerate_balanced(2):
            p = float(pl_word_prob(TWO_ONE, w))
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(counts[w] / runs - p) <= 3 * sigma, w

    def test_extreme_rates(self):
        rng = random.Random(305)
        runs = 20_000
        rates = RatePair(F(1000), F(1))
        counts = Counter(pl_sample(rates, 2, rng) for _ in range(runs))
        p = float(pl_word_prob(rates, "aabb"))
        sigma = math.sqrt(p * (1 - p) / runs)
        assert abs(counts["aabb"] / runs - p) <= 3 * sigma

    def test_sampler_variants_agree(self):
        rng = random.Random(306)
        runs = 60_000
        seq = Counter(pl_sample(TWO_ONE, 2, rng) for _ in range(runs))
        srt = Counter(pl_sample(TWO_ONE, 2, rng, method="sort") for _ in range(runs))
        stat, cells = two_sample_chi2(seq, srt)
        assert stat < chi2_critical(cells)

    def test_negative_size_rejected(self):
        for method in ("sequential", "sort"):
            with pytest.raises(ValueError):
                pl_sample(TWO_ONE, -1, random.Random(0), method=method)

    def test_sort_rates_in_float_range(self):
        # only the sort sampler draws float exponentials; sequential stays exact
        rates = RatePair(F(10**400), F(1))
        with pytest.raises(ValueError):
            pl_sample(rates, 3, random.Random(0), method="sort")
        assert pl_sample(rates, 3, random.Random(0)) == "aaabbb"

    @pytest.mark.parametrize("rates, script, values", [
        # the second a-value repeats the first: only it is drawn again
        (TWO_ONE, [0.5, 0.5, 0.25, 0.75, 0.125], ([0.5, 0.25], [0.75, 0.125])),
        # under equal rates the first b-value repeats the first a-value
        (RatePair(1, 1), [0.5, 0.25, 0.5, 0.75, 0.125], ([0.5, 0.25], [0.75, 0.125])),
    ], ids=["within-a", "across-sides"])
    def test_sort_redraws_only_the_repeated_value(self, rates, script, values):
        rng = ScriptedRandom(7, script)
        word = pl_sample(rates, 2, rng, method="sort")
        us_a, us_b = values
        assert word == interleave_pattern(rates.mu.quantiles(us_a), rates.nu.quantiles(us_b))
        assert word == "baab"
        # the five scripted uniforms and no more: one redraw, not a new word
        assert rng.getstate() == random.Random(7).getstate()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pl_sample(TWO_ONE, 2, random.Random(0), method="magic")


def _boundary_script(rates: RatePair, word: str) -> list[float]:
    """Uniforms on which the sequential sampler reads `word` only if its step floats are exact.

    While both letters remain, p is the step's probability of an a, the
    Fraction n_a*alpha / (n_a*alpha + n_b*beta) rounded once to a float.  The
    uniform p makes a b due (u < p fails); the float just below p makes an
    a due.  A forced step (one letter left) gets 0.5.
    """
    n_a = n_b = len(word) // 2
    script = []
    for letter in word:
        if n_a and n_b:
            p = float(n_a * rates.alpha / (n_a * rates.alpha + n_b * rates.beta))
            script.append(p if letter == "b" else math.nextafter(p, -math.inf))
        else:
            script.append(0.5)
        n_a, n_b = (n_a - 1, n_b) if letter == "a" else (n_a, n_b - 1)
    return script


@pytest.mark.parametrize("seed", range(4))
def test_sequential_step_floats_match_fractions(seed):
    gen = random.Random(seed)
    rates = RatePair(*(F(gen.randrange(10**39, 10**40), gen.randrange(10**39, 10**40))
                       for _ in "ab"))
    n = 12
    base = pl_sample(rates, n, random.Random(seed))
    # every state on the base path is probed from both sides: by the base word,
    # and by a word that shares its prefix and takes the other letter there
    words = [base]
    for k, letter in enumerate(base):
        prefix = base[:k] + ("b" if letter == "a" else "a")
        a_left, b_left = n - prefix.count("a"), n - prefix.count("b")
        if a_left >= 0 and b_left >= 0:
            words.append(prefix + "a" * a_left + "b" * b_left)
    for word in words:
        rng = ScriptedRandom(0, _boundary_script(rates, word))
        assert pl_sample(rates, n, rng) == word
        assert rng.script == []  # one uniform per letter


class TestBridgeBehavior:
    def test_backward_universality(self):
        # couple (U_2, U_3) through shared exponential draws
        rng = random.Random(307)
        runs = 60_000
        joint = Counter()
        for _ in range(runs):
            xs = [rng.expovariate(2.0) for _ in range(3)]
            ys = [rng.expovariate(1.0) for _ in range(3)]
            joint[(interleave_pattern(xs[:2], ys[:2]), interleave_pattern(xs, ys))] += 1
        by_v = Counter()
        for (u, v), c in joint.items():
            by_v[v] += c
        for (u, v), c in joint.items():
            if by_v[v] < 3000:
                continue
            p = float(F(subword_count(v, u), 9))
            sigma = math.sqrt(p * (1 - p) / by_v[v])
            assert abs(c / by_v[v] - p) <= 3 * sigma + 1e-9, (u, v)


class TestSharedPairPath:
    """An exponential pair runs through the pattern law, h, h-transform and bridges."""

    RATES = (TWO_ONE, RatePair(F(3), F(5)), RatePair(F(1, 3), F(9, 2)), RatePair(10**400, 1))

    def test_pattern_law_is_the_product_form(self):
        for rates in self.RATES:
            for n in range(4):
                for u in enumerate_balanced(n):
                    assert pattern_prob_exact(rates, u) == pl_word_prob(rates, u)

    def test_htransform_matches_product_formula(self):
        for rates in self.RATES:
            for n in range(4):
                for u in enumerate_balanced(n):
                    expected = {v: pl_transition(rates, u, v) for v in successors(u)}
                    assert htransform_row(rates, u) == expected
                    for v, p in expected.items():
                        assert htransform_step_prob(rates, u, v) == p

    def test_size_mismatch_names_one_step(self):
        with pytest.raises(SizeMismatchError, match=r"one-step needs sizes \(m, m\+1\)"):
            htransform_step_prob(TWO_ONE, "ab", "ab")

    def test_sources_built_when_read(self):
        assert (TWO_ONE.mu, TWO_ONE.nu) == (Exponential(2), Exponential(1))
        rates = RatePair(10**400, 1)  # the exact formulas take any positive rate
        assert harmonic_h(rates, "ab") == F(2 * 10**400, 10**400 + 1)
        with pytest.raises(ValueError, match="normal float range"):
            rates.mu

    def test_infinite_bridge_word_law(self):
        rng = random.Random(308)
        runs = 20_000
        counts = {2: Counter(), 3: Counter()}
        for _ in range(runs):
            bridge = InfiniteBridge(TWO_ONE, rng)
            bridge.extend_to(3)
            for n, c in counts.items():
                c[bridge.word(n)] += 1
        for n, c in counts.items():
            for w in enumerate_balanced(n):
                p = float(pl_word_prob(TWO_ONE, w))
                sigma = math.sqrt(p * (1 - p) / runs)
                assert abs(c[w] / runs - p) <= 3 * sigma, (n, w)

    def test_order_sampler_from_pair(self):
        for seed in range(5):
            paired = OrderSampler.from_pair(RatePair(F(3, 2), F(1)), random.Random(seed))
            direct = OrderSampler(Exponential(F(3, 2)), Exponential(F(1)), random.Random(seed))
            for depth in (1, 4, 9):
                assert paired.run(depth) == direct.run(depth)
            assert paired.rng.getstate() == direct.rng.getstate()


def test_rate_validation():
    with pytest.raises(ValueError):
        RatePair(F(0), F(1))
    with pytest.raises(ValueError):
        RatePair(F(1), F(-2))
