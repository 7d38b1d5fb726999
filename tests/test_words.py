"""Word representation, subword counting, and the count-matrix calculus."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_balanced_oracle, subword_count_oracle
from wordchain.errors import CapExceededError, WordchainError
from wordchain.measures import fixture_pairs, pattern_distribution
from wordchain.verify import _count_matrices, _matrix_exp_nilpotent
from wordchain.words import (
    _PACKED_LETTERS,
    _WALK_LETTERS,
    _packed_dp,
    _packed_masks,
    check_balanced,
    check_word,
    delete_pair,
    display_word,
    enumerate_balanced,
    enumerate_words,
    letter_positions,
    random_subword,
    subword_count,
    subword_counts,
    successors,
    word_size,
)

words_st = st.text(alphabet="ab", max_size=8)


def brute_force_count(w: str, v: str) -> int:
    """Oracle: enumerate injective order-preserving position maps."""
    return sum(
        1
        for positions in itertools.combinations(range(len(w)), len(v))
        if all(w[p] == c for p, c in zip(positions, v))
    )


class TestSubwordCount:
    def test_worked_example(self):
        assert subword_count("abbaba", "bba") == 4

    def test_empty_subword(self):
        for w in ["", "a", "ab", "bbaa", "ababab"]:
            assert subword_count(w, "") == 1

    def test_derived_examples(self):
        # frozen from the embedding-enumeration oracle
        assert brute_force_count("abab", "ab") == 3
        assert brute_force_count("abab", "ba") == 1
        assert subword_count("abab", "ab") == 3
        assert subword_count("abab", "ba") == 1

    def test_longer_subword_gives_zero(self):
        assert subword_count("ab", "aba") == 0
        assert subword_count("", "a") == 0

    def test_oracle_equivalence_exhaustive(self):
        for p in range(8):
            for w in enumerate_words(p):
                for q in range(min(p, 4) + 1):
                    for v in enumerate_words(q):
                        assert subword_count(w, v) == brute_force_count(w, v)

    @staticmethod
    def assert_selection_counts(w: str, longest: int):
        """Every v of at most `longest` letters, uncached, against counted selections of w."""
        tests = [v for q in range(longest + 1) for v in enumerate_words(q)]
        selections = Counter(
            "".join(w[i] for i in positions)
            for q in range(min(len(w), longest) + 1)
            for positions in itertools.combinations(range(len(w)), q)
        )
        counts = list(map(subword_count.__wrapped__, itertools.repeat(w), tests))
        assert counts == [selections[v] for v in tests], w

    def test_matches_selection_counts_up_to_length_10(self):
        # every pair |w| <= 10, |v| <= max(|w|, 8): the packed regime and past its longest v
        for p in range(11):
            for w in enumerate_words(p):
                self.assert_selection_counts(w, max(p, 8))

    def test_first_length_past_the_packed_regime(self):
        # 11 letters: C(11, 5) = 462 would carry out of a byte field
        seed_rng = random.Random(69)
        for w in ["a" * 11, "ab" * 5 + "a", *seed_rng.sample(enumerate_words(11), 24)]:
            self.assert_selection_counts(w, 11)

    def test_packed_byte_maxima(self):
        # C(10, 5) = 252, the largest count a byte of the packed regime holds
        assert _PACKED_LETTERS == 10
        for k in range(12):
            assert subword_count.__wrapped__("a" * 10, "a" * k) == math.comb(10, k), k
            assert subword_count.__wrapped__("b" * 10, "b" * k) == math.comb(10, k), k

    def test_packed_kernel_one_field_matches_uncached(self):
        # every pair of words of at most 8 letters, and 64 seeded w of 9 and 10 letters
        # against every v of at most 10: v longer than w included, where subword_count
        # returns before the kernel (every pair up to 10 letters would take about 20 s)
        def one_field(w, v):
            return _packed_dp(w, *_packed_masks(b"\0" + v.encode())) >> 8 * len(v)

        seed_rng = random.Random(66)
        short = [v for q in range(9) for v in enumerate_words(q)]
        tests = [v for q in range(11) for v in enumerate_words(q)]
        cases = [(w, short) for w in short] + [
            (w, tests) for p in (9, 10) for w in seed_rng.sample(enumerate_words(p), 32)]
        for w, vs in cases:
            assert (list(map(one_field, itertools.repeat(w), vs))
                    == list(map(subword_count.__wrapped__, itertools.repeat(w), vs))), w

    def test_long_successors_match_insertion_counts(self):
        # M(v, w) = binom(w, v): counting insertion pairs is a second oracle
        seed_rng = random.Random(64)
        for size in (1, 7, 60, 150):
            letters = list("ab" * size)
            seed_rng.shuffle(letters)
            v = "".join(letters)
            inserted = successors(v)
            targets = sorted(inserted)
            for w in targets if len(targets) <= 5000 else seed_rng.sample(targets, 300):
                assert subword_count(w, v) == inserted[w]

    def test_long_words_match_full_dp(self):
        seed_rng = random.Random(65)
        for size, sub in ((400, 40), (400, 3), (300, 270)):
            letters = list("ab" * size)
            seed_rng.shuffle(letters)
            w = "".join(letters)
            v = random_subword(w, sub, seed_rng)
            assert subword_count(w, v) == subword_count_oracle(w, v)
        # the DP counts below _WALK_LETTERS letters of w, the subword_counts walk from there on
        for length in (_WALK_LETTERS - 2, _WALK_LETTERS, _WALK_LETTERS + 2):
            w = "".join(seed_rng.choice("ab") for _ in range(length))
            for k in (0, 1, 2, length // 10, length // 2):
                v = "".join(seed_rng.choice("ab") for _ in range(k))
                assert subword_count(w, v) == subword_count_oracle(w, v), (length, v)
            assert subword_count(w, "ab" * 5) == subword_count_oracle(w, "ab" * 5)
            # a v with a letter that w lacks
            assert subword_count("a" * length, "aba") == 0
            assert subword_count("b" * length, "ab") == 0
            assert subword_count("b" * length, "bbb") == math.comb(length, 3)

    @given(words_st, words_st, st.sampled_from("ab"), st.sampled_from("ab"))
    @settings(max_examples=300)
    def test_recurrence_property(self, w, v, x, y):
        lhs = subword_count(w + y, v + x)
        rhs = subword_count(w, v + x) + (subword_count(w, v) if x == y else 0)
        assert lhs == rhs

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_one_letter_reduction(self, p, q):
        assert subword_count("a" * p, "a" * q) == math.comb(p, q)

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            subword_count("abc", "a")

    @pytest.mark.parametrize("w, v", [
        (5, "ab"), ("ab", None), (b"ab", "ab"), ("ab", b"a"),
        ("abc", "a"), ("ab", "ax"), ("axb", "ayb"), (None, "ax"), ("ax", 5),
    ])
    def test_errors_match_check_word(self, w, v):
        # w's error first, then v's: the type and message check_word gives
        with pytest.raises(Exception) as expected:
            check_word(w)
            check_word(v)
        with pytest.raises(expected.type) as err:
            subword_count(w, v)
        assert str(err.value) == str(expected.value)

    def test_bad_letter_message_names_the_first(self):
        for w, first in (("abcab", "c"), ("dabc", "d"), ("ab ", " "), ("xyz", "x")):
            with pytest.raises(ValueError) as err:
                check_word(w)
            assert str(err.value) == f"invalid letter {first!r} in word {w!r}"
        with pytest.raises(TypeError):
            check_word(["a"])


@pytest.mark.parametrize("w", [5, None, b"abab", "abc", "aaxy", "aabbb", "ba ", "bbaa" * 3 + "a"])
def test_word_size_errors_match_check_balanced(w):
    with pytest.raises(Exception) as expected:
        check_balanced(w)
    with pytest.raises(expected.type) as err:
        word_size(w)
    assert str(err.value) == str(expected.value)


class TestSubwordCounts:
    """One trie walk per word y against the per-word DP subword_count."""

    def test_exhaustive_short_words(self):
        # every y with |y| <= 8 against every w with |w| <= 6, uncached
        short = [w for q in range(7) for w in enumerate_words(q)]
        for p in range(9):
            for y in enumerate_words(p):
                expected = dict(zip(short, map(subword_count.__wrapped__, itertools.repeat(y), short)))
                assert subword_counts(y, short) == expected, y

    def test_long_random_words(self):
        seed_rng = random.Random(66)
        tests = [w for m in range(1, 4) for w in enumerate_balanced(m)]
        tests += ["".join(seed_rng.choice("ab") for _ in range(k)) for k in (1, 5, 9, 12)]
        for _ in range(3):
            letters = list("ab" * 2000)
            seed_rng.shuffle(letters)
            y = "".join(letters)
            counts = subword_counts(y, tests)
            assert counts == {w: subword_count_oracle(y, w) for w in tests}

    def test_letters_missing_or_single(self):
        # a letter that occurs once or never in y gives a 1- or 0-entry index table
        tests = [w for q in range(5) for w in enumerate_words(q)]
        for y in ("", "a", "b", "ab", "ba", "aaab", "bbba", "aaaa", "abbb"):
            assert subword_counts(y, tests) == {w: subword_count(y, w) for w in tests}, y

    def test_only_the_asked_words(self):
        assert subword_counts("abab", ["ab", "abb", "ab"]) == {"ab": 3, "abb": 1}
        assert subword_counts("abab", []) == {}
        assert subword_counts("abab", [""]) == {"": 1}

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            subword_counts("abc", ["ab"])
        with pytest.raises(ValueError):
            subword_counts("ab", ["ax"])


def test_letter_positions():
    seed_rng = random.Random(68)
    words = ["", "aaaa", "bbbb"]
    words += ["".join(seed_rng.choice("ab") for _ in range(k)) for k in (1, 9, 300)]
    for w in words:
        for letter in "ab":
            assert letter_positions(w, letter) == [i for i, ch in enumerate(w) if ch == letter], w
    with pytest.raises(UnicodeEncodeError):  # not silently shifted by a multi-byte letter
        letter_positions("éab", "a")


class TestEnumeration:
    def test_small_cases(self):
        assert enumerate_balanced(0) == [""]
        assert enumerate_balanced(1) == ["ab", "ba"]
        two = enumerate_balanced(2)
        assert len(two) == 6
        assert two[0] == "aabb" and two[-1] == "bbaa"

    def test_counts_and_order(self):
        for n in range(6):
            ws = enumerate_balanced(n)
            assert len(ws) == math.comb(2 * n, n)
            assert ws == sorted(ws)
            assert all(word_size(w) == n for w in ws)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_balanced(13)

    def test_matches_recursive_order(self):
        for n in range(9):
            assert enumerate_balanced(n) == enumerate_balanced_oracle(n), n

    def test_size_must_be_an_integer(self):
        with pytest.raises(TypeError):
            enumerate_balanced(1.5)
        with pytest.raises(TypeError):
            pattern_distribution(fixture_pairs()["lebesgue"], 1.5)
        with pytest.raises(TypeError):
            enumerate_words(1.5)

    def test_size_must_be_nonnegative(self):
        for enumerate_size in (enumerate_balanced, enumerate_words):
            with pytest.raises(WordchainError, match="size must be nonnegative"):
                enumerate_size(-1)


class TestSuccessors:
    def test_empty_word(self):
        assert successors("") == {"ab": 1, "ba": 1}

    def test_ab(self):
        assert successors("ab") == {"aabb": 4, "abab": 3, "abba": 2, "baab": 2, "baba": 1}
        assert "bbaa" not in successors("ab")

    def test_total_insertions(self):
        for n in range(4):
            for v in enumerate_balanced(n):
                assert sum(successors(v).values()) == (2 * n + 2) * (2 * n + 1)

    def test_matches_subword_count(self):
        for n in range(4):
            for v in enumerate_balanced(n):
                succ = successors(v)
                for w in enumerate_balanced(n + 1):
                    assert succ.get(w, 0) == subword_count(w, v)


class TestCountMatrices:
    def test_diagonals_and_triangularity(self):
        index, p, h = _count_matrices(4)
        for i in range(len(index)):
            assert p[i][i] == 1
            assert h[i][i] == 0
            for j in range(i):
                assert p[i][j] == 0
                assert h[i][j] == 0

    def test_exp_of_one_step_matrix(self):
        index, p, h = _count_matrices(4)
        exp_h = _matrix_exp_nilpotent(h)
        for i in range(len(index)):
            for j in range(len(index)):
                assert exp_h[i][j] == Fraction(p[i][j])

    def test_universe_ordering(self):
        index, _, _ = _count_matrices(3)
        assert index[:7] == ["", "a", "b", "aa", "ab", "ba", "bb"]
        assert len(index) == 2**4 - 1


class TestRandomSubword:
    def test_extremes(self, rng):
        assert random_subword("abba", 2, rng) == "abba"
        assert random_subword("abba", 0, rng) == ""

    def test_too_large(self, rng):
        with pytest.raises(ValueError):
            random_subword("ab", 2, rng)

    def test_marginal_distribution(self):
        # P(ab) = subword_count(abab, ab) / C(2,1)^2 = 3/4
        rng = random.Random(401)
        trials = 100_000
        hits = sum(random_subword("abab", 1, rng) == "ab" for _ in range(trials))
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(hits / trials - 0.75) < 3 * sigma


def test_delete_pair_roundtrip():
    w = "abba"
    assert delete_pair(w, 0, 1) == "ba"
    assert delete_pair(w, 3, 2) == "ab"
    assert delete_pair(w, 0, 2) == "ba"
    with pytest.raises(ValueError):
        delete_pair(w, 1, 0)


@pytest.mark.parametrize("w, a_pos, b_pos", [
    ("ba", -1, 0), ("abab", -2, -1), ("ab", 0, -1), ("ab", 2, 1), ("ab", 0, 2),
])
def test_delete_pair_rejects_positions_outside_word(w, a_pos, b_pos):
    with pytest.raises(ValueError, match="outside"):
        delete_pair(w, a_pos, b_pos)


def test_display_word():
    assert display_word("") == "∅"
    assert display_word("ab") == "ab"
