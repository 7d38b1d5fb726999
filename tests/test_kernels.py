"""Exact kernel values, their identities, and the bridge conditionals."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import subword_count_oracle
from wordchain import verify
from wordchain.errors import SizeMismatchError
from wordchain.kernels import (
    backward_prob,
    dm_kernel,
    multi_step_prob,
    one_step_prob,
)
from wordchain.words import enumerate_balanced, random_subword, subword_count, word_size


def insertion_oracle(v: str) -> dict[str, int]:
    """Enumerate all (a-slot, b-slot) insertions into v, independently."""
    out: dict[str, int] = {}
    for i in range(len(v) + 1):
        mid = v[:i] + "a" + v[i:]
        for j in range(len(mid) + 1):
            w = mid[:j] + "b" + mid[j:]
            out[w] = out.get(w, 0) + 1
    return out


def deletion_oracle(v: str) -> dict[str, int]:
    """Enumerate all (a-position, b-position) deletion pairs of v."""
    out: dict[str, int] = {}
    a_pos = [i for i, c in enumerate(v) if c == "a"]
    b_pos = [i for i, c in enumerate(v) if c == "b"]
    for i, j in itertools.product(a_pos, b_pos):
        u = "".join(c for k, c in enumerate(v) if k not in (i, j))
        out[u] = out.get(u, 0) + 1
    return out


def bridge_oracle(v: str) -> dict[str, Fraction]:
    """P{U_m = u | U_{m+1} = v} for each u, from counted insertion paths.

    Every insertion of an a and a b into a word of size k is one of
    (2k+1)(2k+2) equally likely choices, so the conditional is the number
    of paths from "" through u to v over the number of paths to v.
    """
    paths = Counter({"": 1})
    for _ in range(word_size(v) - 1):
        nxt = Counter()
        for u, c in paths.items():
            for w, k in insertion_oracle(u).items():
                nxt[w] += c * k
        paths = nxt
    into_v = {u: c * insertion_oracle(u).get(v, 0) for u, c in paths.items()}
    total = sum(into_v.values())
    return {u: Fraction(c, total) for u, c in into_v.items() if c}


class TestOneStep:
    def test_ab_to_aabb(self):
        # 4 of the 12 insertion pairs into ab produce aabb
        oracle = insertion_oracle("ab")
        assert oracle["aabb"] == 4 and sum(oracle.values()) == 12
        assert one_step_prob("ab", "aabb") == Fraction(1, 3)

    def test_unreachable_is_zero(self):
        assert one_step_prob("ab", "bbaa") == 0

    def test_rows_sum_to_one(self):
        for n in range(5):
            for v in enumerate_balanced(n):
                total = sum(one_step_prob(v, w) for w in enumerate_balanced(n + 1))
                assert total == 1

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            one_step_prob("ab", "ab")


class TestMultiStep:
    def test_uniform_marginal(self):
        for w in enumerate_balanced(3):
            assert multi_step_prob("", w) == Fraction(1, 20)

    def test_uniform_marginal_all_sizes(self):
        import math

        for n in range(6):
            values = {multi_step_prob("", w) for w in enumerate_balanced(n)}
            assert values == {Fraction(1, math.comb(2 * n, n))}

    def test_identity_step(self):
        for w in ["", "ab", "abba", "bababa"]:
            assert multi_step_prob(w, w) == 1

    def test_single_step_agreement(self):
        assert multi_step_prob("ab", "aabb") == one_step_prob("ab", "aabb")

    def test_path_composition_oracle(self):
        # composing one-step kernels over all intermediate words
        for v in enumerate_balanced(1):
            for w in enumerate_balanced(3):
                total = sum(
                    one_step_prob(v, u) * one_step_prob(u, w)
                    for u in enumerate_balanced(2)
                )
                assert total == multi_step_prob(v, w)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            multi_step_prob("abab", "ab")


class TestDMKernel:
    def test_reference_state(self):
        for w in ["", "ab", "abab", "bbaaba"]:
            assert dm_kernel("", w) == 1

    def test_closed_form_example(self):
        # 4 * C(2,1) / C(2,1)^2 = 2, and the probability ratio agrees
        assert dm_kernel("ab", "aabb") == 2
        assert dm_kernel("ab", "aabb") == multi_step_prob("ab", "aabb") / multi_step_prob(
            "", "aabb"
        )

    def test_unreachable(self):
        assert subword_count("bbaa", "ab") == 0
        assert dm_kernel("ab", "bbaa") == 0

    def test_ratio_law_and_bound(self):
        for m in range(3):
            for v in enumerate_balanced(m):
                bound = 1 / multi_step_prob("", v)
                for n in range(m, 4):
                    for w in enumerate_balanced(n):
                        k = dm_kernel(v, w)
                        assert k == multi_step_prob(v, w) / multi_step_prob("", w)
                        assert 0 <= k <= bound


class TestLongKernels:
    def test_size_2000_against_formulas_on_oracle_count(self):
        # a target of 4000 letters: subword_count runs the subword_counts walk
        seed_rng = random.Random(404)
        letters = list("ab" * 2000)
        seed_rng.shuffle(letters)
        w = "".join(letters)
        v = random_subword(w, 200, seed_rng)
        count = subword_count_oracle(w, v)
        m, n = 200, 1800
        assert multi_step_prob(v, w) == Fraction(
            count * math.factorial(n) ** 2, math.prod(range(2 * m + 1, 2 * m + 2 * n + 1))
        )
        assert dm_kernel(v, w) == Fraction(count * math.comb(2 * m, m), math.comb(m + n, m) ** 2)


class TestBackward:
    def test_deletion_example(self):
        oracle = deletion_oracle("abab")
        assert oracle == {"ab": 3, "ba": 1}
        assert backward_prob("ab", "abab") == Fraction(3, 4)
        assert backward_prob("ba", "abab") == Fraction(1, 4)

    def test_forced_step(self):
        assert backward_prob("", "ab") == 1

    def test_normalization(self):
        for size in range(1, 5):
            for v in enumerate_balanced(size):
                total = sum(backward_prob(u, v) for u in enumerate_balanced(size - 1))
                assert total == 1

    def test_matches_deletion_oracle(self):
        for v in enumerate_balanced(3):
            oracle = deletion_oracle(v)
            for u in enumerate_balanced(2):
                assert backward_prob(u, v) == Fraction(oracle.get(u, 0), 9)


class TestBridgeConditionals:
    def test_single_step(self):
        assert bridge_oracle("ab") == {"": 1} and backward_prob("", "ab") == 1

    def test_abab(self):
        oracle = bridge_oracle("abab")
        assert oracle == {"ab": Fraction(3, 4), "ba": Fraction(1, 4)}
        assert oracle == {u: backward_prob(u, "abab") for u in oracle}

    def test_all_size_four(self):
        # the verify family's targets, sizes 1 to 4, and every v they condition on
        report = verify.check_bridge_conditionals()
        assert report.ok and report.checked == 4516
        for size in range(1, 5):
            for v in enumerate_balanced(size):
                oracle = bridge_oracle(v)
                for u in enumerate_balanced(size - 1):
                    assert backward_prob(u, v) == oracle.get(u, 0), (u, v)


class TestTables:
    def test_kernel_table_rows(self):
        # every row of the multi-step kernel from size 1 to size 3 sums to 1
        targets = enumerate_balanced(3)
        for v in enumerate_balanced(1):
            assert sum(multi_step_prob(v, w) for w in targets) == 1
