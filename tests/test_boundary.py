"""Kernel-ratio diagnostics and weak-convergence reports."""

import math
import random
from fractions import Fraction

import pytest

from conftest import empirical_distance_oracle, kernel_ratio, random_canonical_pair
from wordchain import boundary
from wordchain.boundary import check_word_sequence, convergence_report
from wordchain.bridges import InfiniteBridge, simulate_forward
from wordchain.errors import CapExceededError, SizeMismatchError
from wordchain.measures import (
    AtomicPair,
    CanonicalPair,
    RatePair,
    empirical_distance,
    empirical_pair,
    fixture_pairs,
    pattern_distribution,
    pattern_prob_exact,
)
from wordchain.words import enumerate_balanced, subword_count, subword_counts, word_size

F = Fraction


class TestKernelRatio:
    def test_empty_test_word(self):
        for y in ["ab", "abba", "bbaaba"]:
            assert kernel_ratio(y, "") == 1

    def test_abab(self):
        assert kernel_ratio("abab", "ab") == F(3, 4)

    def test_sorted_words(self):
        for n in range(1, 6):
            assert kernel_ratio("a" * n + "b" * n, "ab") == 1

    def test_rows_form_distribution(self):
        for size in range(1, 5):
            for y in enumerate_balanced(size):
                for m in range(1, size + 1):
                    total = sum(kernel_ratio(y, w) for w in enumerate_balanced(m))
                    assert total == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            kernel_ratio("ab", "abab")

    def test_exact_link_to_empirical_patterns(self):
        # ratio = empirical pattern probability times (N^m / falling power)^2
        for size in range(1, 7):
            for y in enumerate_balanced(size)[:: max(1, size)]:
                pair = empirical_pair(y)
                for m in range(1, min(2, size) + 1):
                    falling = math.prod(range(size - m + 1, size + 1))
                    corr = F(size**m, falling) ** 2
                    dist = pattern_distribution(pair, m)
                    for w in enumerate_balanced(m):
                        assert kernel_ratio(y, w) == dist.get(w, F(0)) * corr


class TestLimitPairEstimate:
    def test_empirical_pair_of_word(self):
        est = empirical_pair("abab")
        assert est == AtomicPair("abab")
        assert est.size == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_pair("")


class TestSequenceValidation:
    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            check_word_sequence([])

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            check_word_sequence(["abab", "ab"])

    def test_returns_the_sizes(self):
        assert check_word_sequence(["ab", "abab", "abab"]) == [1, 2, 2]

    def test_report_sizes_each_word_once(self, monkeypatch):
        calls = []

        def counting_word_size(y):
            calls.append(y)
            return word_size(y)

        monkeypatch.setattr(boundary, "word_size", counting_word_size)
        seq = ["ab", "abab", "aabb", "ababab"]
        report = convergence_report(seq, CanonicalPair.lebesgue(), 1)
        assert report.sizes == [1, 2, 2, 3]
        assert len(calls) == len(seq)

    def test_mmax_bounds(self):
        with pytest.raises(ValueError):
            convergence_report(["ab"], CanonicalPair.lebesgue(), 2)

    def test_refuses_the_step_cap_before_enumerating(self, monkeypatch):
        def enumerate_balanced(n):
            raise AssertionError(f"W_{n} was built before the size was refused")

        monkeypatch.setattr(boundary, "enumerate_balanced", enumerate_balanced)
        with pytest.raises(CapExceededError, match="^pattern size 7 exceeds step cap 6$"):
            convergence_report(["ab" * 7, "ab" * 8], CanonicalPair.lebesgue(), 7)

    @pytest.mark.parametrize("pair", [RatePair(1, 2), AtomicPair("abab")], ids=["rate", "atomic"])
    def test_rejects_other_pair_kinds(self, pair):
        # before any word is read: an empty sequence would raise WordchainError
        with pytest.raises(TypeError, match=f"^need a canonical pair, not {type(pair).__name__}$"):
            convergence_report([], pair, 1)
        with pytest.raises(TypeError, match=f"^need a canonical pair, not {type(pair).__name__}$"):
            convergence_report(["abab", "aabb"], pair, 1)


class TestConvergenceReport:
    def test_base_chain_to_lebesgue(self):
        rng = random.Random(401)
        path = simulate_forward(200, rng)
        seq = [path[k] for k in (25, 50, 100, 150, 200)]
        report = convergence_report(seq, CanonicalPair.lebesgue(), 2)
        assert report.verdict, report.verdict_reason
        assert report.mu_distances[-1] < 0.15
        assert report.nu_distances[-1] < 0.15
        assert all(0 <= float(r) <= 1 for rs in report.ratios.values() for r in rs)

    def test_sorted_words_to_separated_pair(self):
        sep = fixture_pairs()["separated"]
        seq = ["a" * k + "b" * k for k in (5, 10, 20, 40)]
        report = convergence_report(seq, sep, 2)
        assert report.verdict, report.verdict_reason
        assert all(r == 1 for r in report.ratios["aabb"])
        # grid bound: atom spacing plus jump height, each 1/(2k)
        for dist, k in zip(report.mu_distances, (5, 10, 20, 40)):
            assert dist <= 1 / (2 * k) + 1 / (2 * k)

    def test_htransform_sequences_hit_their_pair(self):
        pair = fixture_pairs()["crossed"]
        targets = {
            w: pattern_prob_exact(pair, w)
            for w in enumerate_balanced(1) + enumerate_balanced(2)
        }
        ok = 0
        runs = 40
        for i in range(runs):
            bridge = InfiniteBridge(pair, random.Random(9000 + i))
            y = bridge.extend_to(300)
            counts = subword_counts(y, list(targets))
            err = max(abs(float(F(counts[w], math.comb(300, word_size(w)) ** 2) - t))
                      for w, t in targets.items())
            ok += err < 0.1
        assert ok >= 0.95 * runs

    def test_own_pair_beats_battery(self):
        # the generating pair gives the smallest final empirical distance
        pair = fixture_pairs()["crossed"]
        bridge = InfiniteBridge(pair, random.Random(402))
        y = bridge.extend_to(300)

        def distance(q: CanonicalPair) -> float:
            return max(empirical_distance(y, "a", q.mu), empirical_distance(y, "b", q.nu))

        own = distance(pair)
        for name, other in fixture_pairs().items():
            if name == "crossed":
                continue
            assert own <= distance(other), name

    def test_diverging_sequence_flagged(self):
        sep = fixture_pairs()["separated"]
        seq = ["ba" * k for k in (5, 10, 20, 40)]
        report = convergence_report(seq, sep, 1)
        assert not report.verdict

    def test_report_json_schema(self):
        rng = random.Random(403)
        seq = [simulate_forward(30, rng)[-1] for _ in range(3)]
        seq.sort(key=len)
        report = convergence_report(seq, CanonicalPair.lebesgue(), 1)
        data = report.to_json()
        for key in (
            "sizes",
            "test_words",
            "ratios",
            "targets",
            "mu_distances",
            "nu_distances",
            "ratio_errors",
            "verdict",
            "verdict_reason",
            "config",
        ):
            assert key in data
        assert data["config"] == {"distance_tol": 0.15, "ratio_tol": 0.1}

    def test_custom_config(self):
        # the final distances exceed the fixed distance tolerance 0.15
        report = convergence_report(["ab", "abab"], CanonicalPair.lebesgue(), 1)
        assert (report.mu_distances[-1], report.nu_distances[-1]) == (0.25, 0.5)
        assert not report.verdict
        assert "exceed 0.15" in report.verdict_reason


def _shuffled(size: int, rng: random.Random) -> str:
    letters = list("ab" * size)
    rng.shuffle(letters)
    return "".join(letters)


def assert_report_matches_oracles(seq: list[str], pair: CanonicalPair, m_max: int) -> None:
    """Ratios equal kernel_ratio and distances the Fraction oracle, exactly."""
    report = convergence_report(seq, pair, m_max)
    assert report.test_words == [w for m in range(1, m_max + 1) for w in pattern_distribution(pair, m)]
    for w in report.test_words:
        assert report.ratios[w] == [kernel_ratio(y, w) for y in seq], w
    assert report.mu_distances == [float(empirical_distance_oracle(y, "a", pair.mu)) for y in seq]
    assert report.nu_distances == [float(empirical_distance_oracle(y, "b", pair.nu)) for y in seq]


class TestReportOracles:
    def test_fixture_pairs(self):
        seed_rng = random.Random(404)
        seq = [_shuffled(size, seed_rng) for size in (3, 8, 30, 120)]
        for pair in fixture_pairs().values():
            assert_report_matches_oracles(seq, pair, 3)

    def test_random_step_pairs(self):
        seed_rng = random.Random(405)
        for cells in (1, 2, 4, 9):
            pair = random_canonical_pair(seed_rng, cells=cells)
            seq = sorted((_shuffled(seed_rng.randint(4, 300), seed_rng) for _ in range(4)), key=len)
            assert_report_matches_oracles(seq, pair, 4)

    def test_size_one_words(self):
        for pair in fixture_pairs().values():
            assert_report_matches_oracles(["ab", "ba", "abab"], pair, 1)

    def test_atoms_on_a_breakpoint(self):
        # the N-th letter sits at 1/2, the breakpoint of separated, for every N
        seq = ["ab", "abba", "aabb", "aaabbb", "babaabab"]
        assert_report_matches_oracles(seq, fixture_pairs()["separated"], 1)

    def test_one_word_sequence(self):
        for pair in fixture_pairs().values():
            assert_report_matches_oracles(["aababb"], pair, 2)

    def test_mmax_at_smallest_size(self):
        seq = ["abba", "aabbab", "bbaaabab", "abababbaab"]
        for name in ("skewed", "three-cell"):
            assert_report_matches_oracles(seq, fixture_pairs()[name], 2)


def test_report_reads_each_word_once():
    # no per-(word, test word) subword_count pass
    seq = [_shuffled(size, random.Random(size)) for size in (20, 40, 80)]
    info = subword_count.cache_info()
    report = convergence_report(seq, fixture_pairs()["crossed"], 3)
    after = subword_count.cache_info()
    assert (after.hits, after.misses) == (info.hits, info.misses)
    assert len(report.test_words) == 28
