"""Labeled prefixes, the order metric and embedding, moment estimators."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    ScriptedRandom,
    chi2_critical,
    exp_canonical_moment,
    int_str_digit_limit,
    single_draw,
    two_sample_chi2,
)
from wordchain.bridges import sample_finite_bridge, simulate_forward
from wordchain.errors import WordchainError
from wordchain.measures import CanonicalPair, Exponential, StepMeasure, fixture_pairs
from wordchain.orders import (
    LabeledLetter,
    OrderPrefix,
    OrderRun,
    OrderSampler,
    d_samples,
    estimate_d,
    estimate_f,
    f_samples,
    label_uniformly,
    moment_estimate,
    moment_samples,
)

F = Fraction
A1, A2, B1, B2 = (LabeledLetter(k, i) for k, i in (("a", 1), ("a", 2), ("b", 1), ("b", 2)))


def lebesgue_sampler(seed: int) -> OrderSampler:
    return OrderSampler.from_pair(CanonicalPair.lebesgue(), random.Random(seed))


class TestLabeledWords:
    def test_letter_parse_and_str(self):
        assert str(LabeledLetter.parse("a3")) == "a3"
        for token in ["", "a", "ax", "a-1", "c1", "a\u0661", "a\u00b2"]:
            with pytest.raises(ValueError):
                LabeledLetter.parse(token)
        with pytest.raises(ValueError):
            LabeledLetter("c", 1)
        with pytest.raises(ValueError):
            LabeledLetter("a", 0)

    def test_index_past_the_digit_limit(self):
        token = "a" + "1" * 5000
        with int_str_digit_limit(640):
            letter = LabeledLetter.parse(token)
            assert str(letter) == token
            with pytest.raises(WordchainError, match=r"^depth 5 is below the largest letter index 1{5000}$"):
                f_samples(lebesgue_sampler(0), letter, 5, 1)
        assert letter.index == (10**5000 - 1) // 9

    def test_prefix_roundtrip(self):
        text = "a3 a1 b2 a2 b1 b3"
        prefix = OrderPrefix.from_string(text)
        assert prefix.to_string() == text
        assert prefix.unlabel() == "aababb"

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            OrderPrefix((A1, A1))
        with pytest.raises(ValueError):
            OrderPrefix((A1, B2))


class TestLabelUniformly:
    def test_single_step_path(self, rng):
        prefixes = label_uniformly(["", "ab"], rng)
        assert prefixes[1].to_string() == "a1 b1"

    def test_unlabeling_reproduces_path(self, rng):
        for _ in range(30):
            path = simulate_forward(4, rng)
            prefixes = label_uniformly(path, rng)
            for k, prefix in enumerate(prefixes):
                assert prefix.unlabel() == path[k]

    def test_consistency_across_levels(self, rng):
        for _ in range(30):
            path = simulate_forward(4, rng)
            prefixes = label_uniformly(path, rng)
            for k in range(1, len(prefixes)):
                kept = tuple(x for x in prefixes[k].letters if x.index < k)
                assert kept == prefixes[k - 1].letters

    def test_abba_labelings_uniform(self):
        # over bridges to abba, all four labelings are equally likely
        rng = random.Random(201)
        runs = 100_000
        counts = Counter()
        for _ in range(runs):
            path = sample_finite_bridge("abba", rng)
            counts[label_uniformly(path, rng)[-1].to_string()] += 1
        expected = ["a1 b1 b2 a2", "a2 b1 b2 a1", "a1 b2 b1 a2", "a2 b2 b1 a1"]
        assert set(counts) == set(expected)
        sigma = math.sqrt(0.25 * 0.75 / runs)
        for labeling in expected:
            assert abs(counts[labeling] / runs - 0.25) < 3 * sigma

    def test_rejects_invalid_path(self, rng):
        with pytest.raises(ValueError, match="start at the empty word"):
            label_uniformly(["ab"], rng)
        with pytest.raises(ValueError, match="'ab' is not a subword of its successor 'bbaa'"):
            label_uniformly(["", "ab", "bbaa"], rng)
        with pytest.raises(ValueError, match="path state 2 has size 1, expected 2"):
            label_uniformly(["", "ab", "ab"], rng)


class TestParametricOrders:
    def test_separated_supports_sort_fully(self):
        zeta = StepMeasure.uniform_on(0, 1)
        eta = StepMeasure.uniform_on(2, 3)
        for seed in range(20):
            prefix = OrderSampler(zeta, eta, random.Random(seed)).run(2).prefix()
            assert prefix.unlabel() == "aabb"

    def test_lebesgue_unlabeled_words_uniform(self):
        rng = random.Random(202)
        runs = 60_000
        counts = Counter()
        sampler = OrderSampler(StepMeasure.lebesgue(), StepMeasure.lebesgue(), rng)
        for _ in range(runs):
            counts[sampler.run(2).prefix().unlabel()] += 1
        from conftest import chi2_statistic

        expected = {w: F(1, 6) for w in ["aabb", "abab", "abba", "baab", "baba", "bbaa"]}
        assert chi2_statistic(counts, expected, runs) < chi2_critical(6)

    def test_exchangeability_under_transpositions(self):
        # swapping a1 <-> a2, and independently b1 <-> b2, leaves the
        # prefix law unchanged
        rng = random.Random(203)
        runs = 60_000
        base = Counter()
        a_swapped = Counter()
        ab_swapped = Counter()
        a_swap = {A1: A2, A2: A1}
        ab_swap = {A1: A2, A2: A1, B1: B2, B2: B1}
        for _ in range(runs):
            prefix = OrderSampler(Exponential(F(1)), Exponential(F(2)), rng).run(2).prefix()
            base[prefix.to_string()] += 1
            for swap, counter in ((a_swap, a_swapped), (ab_swap, ab_swapped)):
                relabeled = OrderPrefix(tuple(swap.get(l, l) for l in prefix.letters))
                counter[relabeled.to_string()] += 1
        for counter in (a_swapped, ab_swapped):
            stat, cells = two_sample_chi2(base, counter)
            assert stat < chi2_critical(cells)


class TestMetricEstimates:
    def test_same_letter_is_zero(self):
        sampler = lebesgue_sampler(204)
        est = estimate_d(sampler, A1, A1, depth=10, trials=5)
        assert est.value == 0.0 and est.stderr == 0.0 and est.trials == 5

    def test_same_letter_checks_depth(self):
        a9 = LabeledLetter("a", 9)
        with pytest.raises(WordchainError, match="depth 3 is below the largest letter index 9"):
            d_samples(lebesgue_sampler(204), a9, a9, 3, 5)

    def test_depth_validation(self):
        sampler = lebesgue_sampler(205)
        with pytest.raises(ValueError):
            estimate_d(sampler, A1, LabeledLetter("b", 7), depth=5, trials=2)

    def test_per_run_d_tracks_latent_gap(self):
        sampler = lebesgue_sampler(206)
        for _ in range(25):
            run = sampler.run(500)
            gap = abs(run.values_a[0] - run.values_b[0])
            assert abs(run.d_hat(A1, B1) - gap) < 0.05

    def test_additivity_along_the_order(self):
        sampler = lebesgue_sampler(207)
        letters = [A1, A2, B1]
        for _ in range(25):
            run = sampler.run(500)
            x, y, z = sorted(letters, key=run.value)
            assert abs(run.d_hat(x, z) - (run.d_hat(x, y) + run.d_hat(y, z))) < 0.05

    def test_positive_for_distinct_letters(self):
        sampler = lebesgue_sampler(208)
        zero_runs = sum(sampler.run(500).d_hat(A1, B1) == 0.0 for _ in range(200))
        assert zero_runs <= 2  # d > 0 almost surely; finite depth allows rare zeros

    def test_isometry_surrogate(self):
        sampler = lebesgue_sampler(209)
        pairs = [(A1, B1), (A1, A2), (B1, B2)]
        for _ in range(20):
            run = sampler.run(500)
            for x, y in pairs:
                assert abs(abs(run.f_hat(x) - run.f_hat(y)) - run.d_hat(x, y)) < 0.05

    def test_estimator_mean_converges(self):
        # E d(a1, b1) = E|V - W| = 1/3 under the Lebesgue pair
        sampler = lebesgue_sampler(210)
        est = estimate_d(sampler, A1, B1, depth=400, trials=400)
        assert abs(est.value - 1 / 3) <= 3 * est.stderr + 0.01


class TestRunScoring:
    """f-hat and d-hat of hand-built runs against a direct count of the run's values."""

    @staticmethod
    def _runs():
        gen = random.Random(211)
        yield OrderRun((-0.75, -0.5, 0.25), (-0.25, 0.5, 0.125))
        for depth in (1, 4, 9):
            # a-values on (-1, 0), b-values on (0, 1), then both mixed across 0
            yield OrderRun(tuple(gen.uniform(-1, 0) for _ in range(depth)),
                           tuple(gen.uniform(0, 1) for _ in range(depth)))
            yield OrderRun(tuple(gen.uniform(-1, 1) for _ in range(depth)),
                           tuple(gen.uniform(-1, 1) for _ in range(depth)))

    def test_scores_count_the_values(self):
        for run in self._runs():
            letters = [LabeledLetter(kind, i + 1) for kind in "ab" for i in range(run.depth)]
            values = run.values_a + run.values_b
            below = {x: sum(v < run.value(x) for v in values) for x in letters}
            for x in letters:
                assert run.f_hat(x) == below[x] / (2 * run.depth), (run, x)
                for y in letters:
                    lo, hi = sorted((run.value(x), run.value(y)))
                    between = sum(lo < v < hi for v in values)
                    assert run.d_hat(x, y) == between / (2 * run.depth), (run, x, y)

    def test_negative_values_count_below(self):
        run = OrderRun((-0.75, -0.5, 0.25), (-0.25, 0.5, 0.125))
        assert run.f_hat(LabeledLetter("b", 1)) == 2 / 6  # a1 and a2 lie below -0.25
        assert run.f_hat(LabeledLetter("a", 1)) == 0.0
        assert run.d_hat(LabeledLetter("a", 1), LabeledLetter("b", 2)) == 4 / 6


class TestEmbeddingEstimates:
    def test_per_run_f_tracks_latent_value(self):
        sampler = lebesgue_sampler(211)
        for _ in range(25):
            run = sampler.run(500)
            assert abs(run.f_hat(A1) - run.values_a[0]) < 0.05

    def test_order_preservation_with_margin(self):
        sampler = lebesgue_sampler(212)
        checked = violations = 0
        for _ in range(300):
            run = sampler.run(500)
            vx, vy = run.value(A1), run.value(B1)
            if abs(vx - vy) < 0.05:
                continue
            checked += 1
            if (run.f_hat(A1) < run.f_hat(B1)) != (vx < vy):
                violations += 1
        assert checked > 200
        assert violations / checked < 0.01

    def test_separated_orders_all_runs(self):
        zeta = StepMeasure.uniform_on(0, 1)
        eta = StepMeasure.uniform_on(2, 3)
        sampler = OrderSampler(zeta, eta, random.Random(213))
        est_a = []
        est_b = []
        for _ in range(50):
            run = sampler.run(200)
            est_a.append(run.f_hat(A1))
            est_b.append(run.f_hat(B1))
        assert all(fa < fb for fa, fb in zip(est_a, est_b))

    def test_estimate_f_api(self):
        sampler = lebesgue_sampler(214)
        est = estimate_f(sampler, A1, depth=200, trials=200)
        assert abs(est.value - 0.5) <= 3 * est.stderr + 0.01
        with pytest.raises(ValueError):
            estimate_f(sampler, A1, depth=200, trials=0)


class TestMoments:
    def test_lebesgue_first_and_second(self):
        sampler = lebesgue_sampler(215)
        mu1, nu1 = moment_estimate(sampler, 1, 100_000)
        assert abs(mu1.value - 0.5) <= 3 * mu1.stderr
        assert abs(nu1.value - 0.5) <= 3 * nu1.stderr
        mu2, nu2 = moment_estimate(sampler, 2, 100_000)
        assert abs(mu2.value - 1 / 3) <= 3 * mu2.stderr
        assert abs(nu2.value - 1 / 3) <= 3 * nu2.stderr

    def test_separated_pair_first_moment(self):
        pair = fixture_pairs()["separated"]
        sampler = OrderSampler.from_pair(pair, random.Random(216))
        mu1, nu1 = moment_estimate(sampler, 1, 100_000)
        assert abs(mu1.value - 0.25) <= 3 * mu1.stderr
        assert abs(nu1.value - 0.75) <= 3 * nu1.stderr

    def test_cross_check_exact_step_moments(self):
        from wordchain.bridges import InfiniteBridge

        pair = fixture_pairs()["crossed"]
        bridge = InfiniteBridge(pair, random.Random(217))
        sampler = OrderSampler.from_pair(bridge.pair, bridge.rng)
        mu1, nu1 = moment_estimate(sampler, 1, 60_000)
        assert abs(mu1.value - float(pair.mu.moment(1))) <= 3 * mu1.stderr
        assert abs(nu1.value - float(pair.nu.moment(1))) <= 3 * nu1.stderr

    def test_parametric_source_gives_canonical_moments(self):
        # order events only see the push-forward pair, whose moments are exact
        zeta, eta = Exponential(F(2)), Exponential(F(1))
        sampler = OrderSampler(zeta, eta, random.Random(218))
        mu1, nu1 = moment_estimate(sampler, 1, 60_000)
        assert abs(mu1.value - float(exp_canonical_moment(2, 1, 1))) <= 3 * mu1.stderr
        assert abs(nu1.value - float(exp_canonical_moment(1, 2, 1))) <= 3 * nu1.stderr

    def test_exponential_moment_oracle(self):
        # equal rates give Lebesgue, and (mu + nu) / 2 is Lebesgue for any rates
        assert exp_canonical_moment(2, 1, 1) == F(5, 12)
        assert exp_canonical_moment(1, 2, 1) == F(7, 12)
        for alpha, beta in [(1, 1), (2, 1), (F(1, 3), F(9, 2)), (7, 5)]:
            for n in range(6):
                assert exp_canonical_moment(alpha, alpha, n) == F(1, n + 1)
                both = exp_canonical_moment(alpha, beta, n) + exp_canonical_moment(beta, alpha, n)
                assert both / 2 == F(1, n + 1), (alpha, beta, n)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            moment_estimate(lebesgue_sampler(219), 5, 10)


class TestSamplerSources:
    def test_from_bridge(self):
        from wordchain.bridges import InfiniteBridge

        bridge = InfiniteBridge(fixture_pairs()["crossed"], random.Random(220))
        sampler = OrderSampler.from_pair(bridge.pair, bridge.rng)
        run = sampler.run(50)
        assert run.depth == 50
        assert run.prefix(2).depth == 2

    def test_prefix_steps_are_checked(self):
        run = lebesgue_sampler(225).run(3)
        assert run.prefix(0).depth == 0 and run.prefix(3) == run.prefix()
        for n in (-1, 4):
            with pytest.raises(IndexError, match=rf"^step {n} is outside 0\.\.3$"):
                run.prefix(n)
        with pytest.raises(TypeError):
            run.prefix(1.5)

    def test_runs_have_distinct_values(self):
        sampler = lebesgue_sampler(221)
        run = sampler.run(100)
        values = run.values_a + run.values_b
        assert len(set(values)) == len(values)

    # Lebesgue draws are the generator's random() values themselves, so each
    # script below repeats a value inside the a-block, then an a-value
    # inside the b-block, then a value inside the b-block.
    RUN_SCRIPT = [0.125, 0.25, 0.125, 0.375, 0.25, 0.5, 0.5, 0.625, 0.75]

    def test_repeated_draws_are_redrawn(self):
        rng = ScriptedRandom(222, self.RUN_SCRIPT)
        sampler = OrderSampler.from_pair(CanonicalPair.lebesgue(), rng)
        run = sampler.run(3)
        assert run.values_a == (0.125, 0.25, 0.375)
        assert run.values_b == (0.5, 0.625, 0.75)
        # past the script, the run reads the seeded stream and leaves it where
        # six single draws would
        reference = random.Random(222)
        expected = [reference.random() for _ in range(6)]
        run = sampler.run(3)
        assert run.values_a + run.values_b == tuple(expected)
        assert rng.getstate() == reference.getstate()

    def test_d_samples_on_repeated_draws(self):
        script = self.RUN_SCRIPT + [0.5, 0.5, 0.0625, 0.375, 0.0625, 0.25, 0.75, 0.25, 0.875]
        rng = ScriptedRandom(223, script)
        sampler = OrderSampler.from_pair(CanonicalPair.lebesgue(), rng)
        # run 1: a = (1/8, 1/4, 3/8), b = (1/2, 5/8, 3/4); run 2: a = (1/2,
        # 1/16, 3/8), b = (1/4, 3/4, 7/8)
        assert d_samples(sampler, A1, B1, 3, 2) == [2 / 6, 1 / 6]
        assert rng.script == []
        assert rng.getstate() == random.Random(223).getstate()

    def test_moment_samples_on_repeated_draws(self):
        rng = ScriptedRandom(224, [0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 0.875])
        sampler = OrderSampler.from_pair(CanonicalPair.lebesgue(), rng)
        # a = (1/4, 1/2), b = (3/4, 7/8): one letter below a2, two below b2
        assert moment_samples(sampler, 1, 1) == [(0.5, 1.0)]
        assert rng.script == []
        assert rng.getstate() == random.Random(224).getstate()

    def test_runs_match_single_draws_under_collisions(self):
        # scripts drawn from 12 dyadic values force repeats in every block
        def single_draw_run(sampler, depth):
            seen, out = set(), []
            for source in (sampler.a_source, sampler.b_source):
                values = []
                while len(values) < depth:
                    v = single_draw(source, sampler.rng)
                    if v not in seen:
                        seen.add(v)
                        values.append(v)
                out.append(tuple(values))
            return out

        pool = [i / 16 for i in range(2, 14)]
        for seed in range(60):
            script = random.Random(seed).choices(pool, k=30)
            pairs = [fixture_pairs()["three-cell"], CanonicalPair.lebesgue()]
            batch, single = ScriptedRandom(seed, script), ScriptedRandom(seed, script)
            batch_sampler = OrderSampler.from_pair(pairs[seed % 2], batch)
            single_sampler = OrderSampler.from_pair(pairs[seed % 2], single)
            for depth in (4, 3):
                run = batch_sampler.run(depth)
                assert [run.values_a, run.values_b] == single_draw_run(single_sampler, depth)
            assert batch.getstate() == single.getstate() and batch.script == single.script

    def test_atomic_sources_rejected(self):
        from wordchain.measures import empirical_pair

        with pytest.raises(TypeError):
            OrderSampler.from_pair(empirical_pair("abab"), random.Random(0))
