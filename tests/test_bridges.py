"""Forward chain, finite bridges, infinite bridges, harmonic functions."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    ScriptedRandom,
    check_bridge_path,
    chi2_critical,
    chi2_statistic,
    many_cell_pair,
    random_canonical_pair,
    single_draw,
)
from wordchain import bridges
from wordchain.bridges import (
    InfiniteBridge,
    harmonic_h,
    htransform_row,
    htransform_step_prob,
    sample_finite_bridge,
    simulate_forward,
)
from wordchain.errors import CapExceededError, ZeroMassStateError
from wordchain.kernels import multi_step_prob, one_step_prob
from wordchain.measures import (
    CanonicalPair,
    RatePair,
    fixture_pairs,
    interleave_pattern,
    pattern_prob_exact,
)
from wordchain.words import (
    delete_pair,
    enumerate_balanced,
    letter_positions,
    subword_count,
    successors,
)

F = Fraction


class TestForwardChain:
    def test_zero_steps(self, rng):
        assert simulate_forward(0, rng) == [""]

    def test_paths_are_valid(self, rng):
        for _ in range(50):
            check_bridge_path(simulate_forward(5, rng))

    def test_uniform_marginal_at_two(self):
        rng = random.Random(101)
        runs = 60_000
        counts = Counter(simulate_forward(2, rng)[-1] for _ in range(runs))
        for w in enumerate_balanced(2):
            p = 1 / 6
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(counts[w] / runs - p) < 3 * sigma, w

    def test_transition_frequencies_from_ab(self):
        # one insertion step started at ab, against the exact kernel
        rng = random.Random(102)
        runs = 100_000
        counts = Counter()
        for _ in range(runs):
            letters = list("ab")
            letters.insert(rng.randrange(3), "a")
            letters.insert(rng.randrange(4), "b")
            counts["".join(letters)] += 1
        for w, count in successors("ab").items():
            p = count / 12
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(counts[w] / runs - p) < 3 * sigma, w


class TestFiniteBridge:
    def test_forced_path(self, rng):
        assert sample_finite_bridge("ab", rng) == ["", "ab"]

    def test_draws_match_choice_over_positions(self):
        # reference: rng.choice over the listed positions of each letter
        for seed, w in enumerate(["ab", "ba", "abba", "bbaa", "abababba", "aabbbaab" * 5]):
            rng, cur, reference = random.Random(seed), w, [w]
            while cur:
                a_pos = rng.choice(letter_positions(cur, "a"))
                b_pos = rng.choice(letter_positions(cur, "b"))
                cur = delete_pair(cur, a_pos, b_pos)
                reference.append(cur)
            assert sample_finite_bridge(w, random.Random(seed)) == reference[::-1], w

    def test_paths_end_at_target_and_validate(self, rng):
        for w in ["abab", "bbaa", "abbaba"]:
            for _ in range(20):
                path = sample_finite_bridge(w, rng)
                check_bridge_path(path)
                assert path[-1] == w

    def test_first_step_marginal(self):
        rng = random.Random(103)
        runs = 100_000
        hits = sum(sample_finite_bridge("abab", rng)[1] == "ab" for _ in range(runs))
        sigma = math.sqrt(0.75 * 0.25 / runs)
        assert abs(hits / runs - 0.75) < 3 * sigma

    @pytest.mark.parametrize("w", ["abbaab", "abababba"])
    def test_interior_marginals_match_bridge_law(self, w):
        # P{U_k = u | endpoint w} = P(0->u) P(u->w) / P(0->w)
        rng = random.Random(104)
        runs = 30_000
        counts = Counter(tuple(sample_finite_bridge(w, rng)[1:3]) for _ in range(runs))
        for k, u_candidates in ((1, enumerate_balanced(1)), (2, enumerate_balanced(2))):
            for u in u_candidates:
                p = float(
                    multi_step_prob("", u) * multi_step_prob(u, w) / multi_step_prob("", w)
                )
                observed = sum(c for key, c in counts.items() if key[k - 1] == u)
                sigma = math.sqrt(p * (1 - p) / runs)
                assert abs(observed / runs - p) <= 3 * sigma + 1e-9, (k, u)


class TestInfiniteBridge:
    def test_lebesgue_matches_base_chain(self):
        rng = random.Random(105)
        runs = 60_000
        counts = Counter()
        for _ in range(runs):
            bridge = InfiniteBridge(CanonicalPair.lebesgue(), rng)
            bridge.extend_to(bridge.step + 1)
            counts[bridge.extend_to(bridge.step + 1)] += 1
        expected = {w: F(1, 6) for w in enumerate_balanced(2)}
        stat = chi2_statistic(counts, expected, runs)
        assert stat < chi2_critical(6)

    def test_separated_bridge_is_sorted(self):
        bridge = InfiniteBridge(fixture_pairs()["separated"], random.Random(106))
        for n in range(1, 6):
            assert bridge.extend_to(bridge.step + 1) == "a" * n + "b" * n

    def test_consistency_per_run(self):
        for k, pair in enumerate(fixture_pairs().values()):
            bridge = InfiniteBridge(pair, random.Random(107 + k))
            bridge.extend_to(300)
            for n in range(301):
                rebuilt = interleave_pattern(bridge.x_samples[:n], bridge.y_samples[:n])
                assert rebuilt == bridge.word(n)
            assert bridge.words == [bridge.word(n) for n in range(301)]
            with pytest.raises(IndexError):
                bridge.word(301)

    def test_word_steps_are_checked(self):
        bridge = InfiniteBridge(CanonicalPair.lebesgue(), random.Random(111))
        bridge.extend_to(3)
        assert bridge.word(3) == bridge.word() and bridge.word(0) == ""
        for n in (-1, 4):
            with pytest.raises(IndexError, match=rf"^step {n} is outside 0\.\.3$"):
                bridge.word(n)
        with pytest.raises(TypeError):
            bridge.word(1.5)

    def test_extend_to_refuses_a_non_integer_before_drawing(self):
        rng = random.Random(112)
        bridge = InfiniteBridge(CanonicalPair.lebesgue(), rng)
        state = rng.getstate()
        with pytest.raises(TypeError):
            bridge.extend_to(1.5)
        assert bridge.step == 0 and rng.getstate() == state

    def test_redraws_keep_points_distinct(self):
        # under Lebesgue each draw is the scripted random() value; step 2: x
        # repeats an x, then hits a y; y then hits the x just drawn
        rng = ScriptedRandom(109, [0.5, 0.25, 0.5, 0.25, 0.75, 0.75, 0.125])
        bridge = InfiniteBridge(CanonicalPair.lebesgue(), rng)
        assert bridge.extend_to(bridge.step + 1) == "ba"
        assert bridge.extend_to(bridge.step + 1) == "bbaa"
        assert rng.script == []
        assert bridge.x_samples == [0.5, 0.75]
        assert bridge.y_samples == [0.25, 0.125]
        assert bridge.words == ["", "ba", "bbaa"]

    def test_planted_repeat_of_an_older_point(self):
        # step 3's x repeats step 1's x (0.5), which by then lies inside the sorted points
        rng = ScriptedRandom(110, [0.5, 0.25, 0.75, 0.125, 0.5, 0.375, 0.625])
        bridge = InfiniteBridge(CanonicalPair.lebesgue(), rng)
        assert bridge.extend_to(3) == "bbaaba"
        assert rng.script == []
        assert bridge.x_samples == [0.5, 0.75, 0.375]
        assert bridge.y_samples == [0.25, 0.125, 0.625]
        assert bridge.words == ["", "ba", "bbaa", "bbaaba"]
        assert rng.getstate() == ScriptedRandom(110, []).getstate()

    # "separated", "three-cell" and the cells-* pairs have zero-density cells;
    # cells-90 has more than 64 positive cells a side, so its step map bisects
    # inside the leaves of its tree
    REPLAY_PAIRS = {
        **fixture_pairs(),
        "exp-1-2": RatePair(1, 2),
        "cells-12": many_cell_pair(12),
        "cells-90": many_cell_pair(90),
    }

    @pytest.mark.parametrize("name", list(REPLAY_PAIRS))
    def test_draws_match_single_draw_replay(self, name):
        # x then y each step, one draw at a time, skipping values already seen
        pair = self.REPLAY_PAIRS[name]
        for seed in range(10):
            bridge = InfiniteBridge(pair, random.Random(seed))
            bridge.extend_to(300)
            replay, seen, draws = random.Random(seed), set(), ([], [])
            for _ in range(300):
                for source, out in zip((pair.mu, pair.nu), draws):
                    v = single_draw(source, replay)
                    while v in seen:
                        v = single_draw(source, replay)
                    seen.add(v)
                    out.append(v)
            assert (bridge.x_samples, bridge.y_samples) == draws
            assert bridge.rng.getstate() == replay.getstate()

    def test_backward_frequencies_universal(self):
        # deleting the newest points realizes the deletion dynamics at
        # every level, whatever the driving pair
        pair = fixture_pairs()["crossed"]
        rng = random.Random(108)
        runs = 50_000
        joints = {1: Counter(), 2: Counter()}
        for _ in range(runs):
            bridge = InfiniteBridge(pair, rng)
            bridge.extend_to(3)
            joints[1][(bridge.word(1), bridge.word(2))] += 1
            joints[2][(bridge.word(2), bridge.word(3))] += 1
        for n, joint in joints.items():
            by_v = Counter()
            for (u, v), c in joint.items():
                by_v[v] += c
            for (u, v), c in joint.items():
                if by_v[v] < 2000:
                    continue
                p = float(F(subword_count(v, u), (n + 1) ** 2))
                sigma = math.sqrt(p * (1 - p) / by_v[v])
                assert abs(c / by_v[v] - p) <= 3 * sigma + 1e-9, (n, u, v)

    def test_marginal_matches_pattern_probability(self):
        pair = fixture_pairs()["crossed"]
        rng = random.Random(109)
        runs = 30_000
        counts = {2: Counter(), 3: Counter()}
        for _ in range(runs):
            bridge = InfiniteBridge(pair, rng)
            bridge.extend_to(3)
            counts[2][bridge.word(2)] += 1
            counts[3][bridge.word(3)] += 1
        for n in (2, 3):
            for w in enumerate_balanced(n):
                p = float(pattern_prob_exact(pair, w))
                sigma = math.sqrt(p * (1 - p) / runs)
                assert abs(counts[n][w] / runs - p) <= 3 * sigma + 1e-9, w


class TestHarmonicFunction:
    def test_lebesgue_is_constant_one(self):
        pair = CanonicalPair.lebesgue()
        for n in range(4):
            for w in enumerate_balanced(n):
                assert harmonic_h(pair, w) == 1

    def test_separated_values(self):
        pair = fixture_pairs()["separated"]
        for m in range(4):
            for w in enumerate_balanced(m):
                if w == "a" * m + "b" * m:
                    assert harmonic_h(pair, w) == math.comb(2 * m, m)
                else:
                    assert harmonic_h(pair, w) == 0

    def test_normalized_at_empty_word(self):
        for pair in fixture_pairs().values():
            assert harmonic_h(pair, "") == 1

    def test_harmonicity_exact(self):
        for name, pair in fixture_pairs().items():
            for n in range(3):
                for u in enumerate_balanced(n):
                    total = sum(
                        one_step_prob(u, v) * harmonic_h(pair, v) for v in successors(u)
                    )
                    assert total == harmonic_h(pair, u), (name, u)


class TestHTransform:
    def test_lebesgue_reduces_to_base_kernel(self):
        pair = CanonicalPair.lebesgue()
        for u in enumerate_balanced(1):
            for v in successors(u):
                assert htransform_step_prob(pair, u, v) == one_step_prob(u, v)

    def test_separated_forces_sorted_successor(self):
        pair = fixture_pairs()["separated"]
        assert htransform_step_prob(pair, "ab", "aabb") == 1

    def test_rows_sum_to_one_on_random_pairs(self):
        seed_rng = random.Random(110)
        pairs = [random_canonical_pair(seed_rng) for _ in range(4)]
        for pair in pairs:
            for n in range(4):
                for u in enumerate_balanced(n):
                    if harmonic_h(pair, u) == 0:
                        continue
                    total = sum(
                        htransform_step_prob(pair, u, v) for v in successors(u)
                    )
                    assert total == 1, u

    def test_zero_mass_state_rejected(self):
        pair = fixture_pairs()["separated"]
        with pytest.raises(ZeroMassStateError):
            htransform_step_prob(pair, "ba", "baba")

    def test_atomic_pairs_rejected(self):
        # finite-support pairs would exhaust their atoms and are not harmonic
        from wordchain.measures import empirical_pair

        with pytest.raises(TypeError):
            InfiniteBridge(empirical_pair("abab"), random.Random(0))
        for fn, args in ((harmonic_h, ("ab",)), (htransform_step_prob, ("", "ab")),
                         (htransform_row, ("ab",))):
            with pytest.raises(TypeError):
                fn(empirical_pair("abab"), *args)

    def test_row_matches_step_prob_on_fixtures(self):
        # one pattern_probs call per row gives what one call per transition gives
        for name, pair in fixture_pairs().items():
            for u in (u for m in range(5) for u in enumerate_balanced(m)):
                if harmonic_h(pair, u) == 0:
                    continue
                row = htransform_row(pair, u)
                expected = {
                    v: htransform_step_prob(pair, u, v)
                    for v in successors(u) if harmonic_h(pair, v) > 0
                }
                assert row == expected and list(row) == list(expected), (name, u)
                assert sum(row.values()) == 1, (name, u)

    def test_row_helper(self):
        pair = fixture_pairs()["separated"]
        row = htransform_row(pair, "ab")
        assert row == {"aabb": F(1)}
        assert htransform_row(pair, "ba") == {}  # zero mass: no reachable successor

    def test_row_refuses_the_step_cap_before_building_successors(self, monkeypatch):
        def successors(v):
            raise AssertionError(f"the successors of a size-{len(v) // 2} word were built")

        monkeypatch.setattr(bridges, "successors", successors)
        with pytest.raises(CapExceededError, match="^pattern size 301 exceeds step cap 6$"):
            htransform_row(CanonicalPair.lebesgue(), "ab" * 300)
