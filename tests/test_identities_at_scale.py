"""The subword coefficient's own identities at the sizes where its regimes meet.

``subword_count`` picks one of five regimes by size: the packed integer (at
most _PACKED_LETTERS letters of w), the one-step regime (|w| - |v| = 2),
the band DP (|w| - |v| < |v|), the position DP, and from _WALK_LETTERS
letters of w on the subword_counts walk.  These tests check the defining
recurrence

    count(w + y, v + x) = count(w, v + x) + [x == y] * count(w, v)

with v chosen so that its sides are served by different regimes, and the
batch walk ``subword_counts`` against ``subword_count`` on either side of
_WALK_LETTERS.  At |w| - |v| = 3 the sides are band, one-step, band, so two
band counts pin each one-step count; that pins the one-step regime on
adversarial shapes up to 4,000 letters, and the brute-force 2-subset
oracle (conftest.two_deletions_oracle) pins it on every w of 11 and 12
letters and on the same shapes where deleting each 2-subset is cheap.
Then the paper's identities that rest on the coefficient, at sizes
``wordchain verify`` does not reach: the convolution identity for long w,
and the one-step and backward kernel rows summing to 1.  Apart from the
2-subset oracle, a regime that is off by one disagrees with its neighbour
or breaks an identity.  The words are drawn from fixed seeds.
"""

import random

import pytest

from conftest import two_deletions_oracle
from wordchain.kernels import backward_prob, one_step_prob
from wordchain.words import (
    _PACKED_LETTERS,
    _WALK_LETTERS,
    delete_pair,
    enumerate_balanced,
    enumerate_words,
    letter_positions,
    subword_count,
    subword_counts,
    successors,
)


def _regime(w_len: int, v_len: int) -> str:
    """The regime subword_count serves (w, v) in, for 0 < |v| < |w|."""
    if w_len <= _PACKED_LETTERS:
        return "packed"
    if w_len - v_len == 2:
        return "one-step"
    if w_len - v_len < v_len:
        return "band"
    return "walk" if w_len >= _WALK_LETTERS else "position"


def _subsequence(rng: random.Random, w: str, k: int) -> str:
    """k letters of w, kept in order, so that v embeds in w at least once."""
    return "".join(w[i] for i in sorted(rng.sample(range(len(w)), k)))


# (|w|, |v|, the regimes of count(w + y, v + x), count(w, v + x) and count(w, v))
CASES = [
    (10, 5, ("band", "packed", "packed")),
    (10, 8, ("one-step", "packed", "packed")),
    (10, 2, ("position", "packed", "packed")),
    (11, 5, ("position", "band", "position")),
    (11, 8, ("band", "one-step", "band")),
    (11, 9, ("one-step", "band", "one-step")),
    (12, 9, ("band", "one-step", "band")),
    (300, 150, ("band", "band", "position")),
    (300, 149, ("position", "position", "position")),
    (300, 3, ("position", "position", "position")),
    (300, 297, ("band", "one-step", "band")),
    (300, 298, ("one-step", "band", "one-step")),
    (1022, 511, ("band", "band", "position")),
    (1022, 1019, ("band", "one-step", "band")),
    (1023, 3, ("walk", "position", "position")),
    (1023, 200, ("walk", "position", "position")),
    (1023, 511, ("walk", "band", "position")),
    (1023, 1020, ("band", "one-step", "band")),
    (1024, 4, ("walk", "walk", "walk")),
    (1024, 1021, ("band", "one-step", "band")),
    (2000, 5, ("walk", "walk", "walk")),
    (2000, 700, ("walk", "walk", "walk")),
    (2000, 1997, ("band", "one-step", "band")),
]


@pytest.mark.parametrize("w_len, v_len, regimes", CASES, ids=[f"{n}-{k}" for n, k, _ in CASES])
def test_recurrence_across_regimes(w_len, v_len, regimes):
    assert (_regime(w_len + 1, v_len + 1), _regime(w_len, v_len + 1), _regime(w_len, v_len)) == regimes
    rng = random.Random(1000 * w_len + v_len)
    w = "".join(rng.choice("ab") for _ in range(w_len))
    v = _subsequence(rng, w, v_len)
    base = subword_count(w, v)
    assert base >= 1
    for x in "ab":
        kept = subword_count(w, v + x)
        for y in "ab":
            assert subword_count(w + y, v + x) == kept + (base if x == y else 0), (x, y)


def _delete(w: str, lo: int, hi: int) -> str:
    return w[:lo] + w[lo + 1:hi] + w[hi + 1:]


def _one_step_shape(shape: str, length: int) -> tuple[str, str]:
    """(w, v) with |w| = length and |v| = length - 2, of the named shape, from a fixed seed."""
    rng = random.Random(f"{shape}-{length}")
    w = "".join(rng.choice("ab") for _ in range(length))
    if shape == "alternating":  # (ab)^n against (ab)^(n+1): one pair per lo
        w = ("ab" * length)[:length]
        return w, w[:-2]
    if shape == "blocks":  # a^n b^n against a^(n+1) b^(n+1): every a with every b
        half = length // 2
        return "a" * half + "b" * (length - half), "a" * (half - 1) + "b" * (length - half - 1)
    if shape == "front":
        return w, w[2:]
    if shape == "back":
        return w, w[:-2]
    if shape == "adjacent":
        lo = rng.randrange(length - 1)
        return w, _delete(w, lo, lo + 1)
    if shape == "equal-letters":
        same = [i for i, ch in enumerate(w) if ch == w[length // 2]]
        return w, _delete(w, *sorted(rng.sample(same, 2)))
    if shape == "inside-runs":  # runs of 20 to 60 letters, each deletion inside one
        runs = []
        while sum(map(len, runs)) < length:
            runs.append("ab"[len(runs) % 2] * rng.randint(20, 60))
        w = "".join(runs)[:length]
        inside = [i for i in range(1, length - 1) if w[i - 1] == w[i] == w[i + 1]]
        return w, _delete(w, *sorted(rng.sample(inside, 2)))
    if shape == "not-a-subword":  # one more a than w holds
        b_pos = [i for i, ch in enumerate(w) if ch == "b"]
        v = _delete(w, *sorted(rng.sample(b_pos, 2)))
        i = v.index("b")
        return w, v[:i] + "a" + v[i + 1:]
    raise ValueError(shape)


SHAPES = ["alternating", "blocks", "front", "back", "adjacent", "equal-letters", "inside-runs",
          "not-a-subword"]


@pytest.mark.parametrize("length", [11, 12])
def test_one_step_matches_every_2_subset(length):
    rng = random.Random(length)
    for w in enumerate_words(length):
        counts = two_deletions_oracle(w)
        # every v the deletions reach, and two drawn words, which mostly count 0
        drawn = ["".join(rng.choice("ab") for _ in range(length - 2)) for _ in range(2)]
        assert {v: subword_count(w, v) for v in [*counts, *drawn]} == {
            v: counts.get(v, 0) for v in [*counts, *drawn]}, w


@pytest.mark.parametrize("length", [11, 13, 40, 160])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_step_shapes_match_the_2_subsets(shape, length):
    w, v = _one_step_shape(shape, length)
    assert subword_count(w, v) == two_deletions_oracle(w).get(v, 0)


@pytest.mark.parametrize("length", [300, 1023, 1024, 4000])
@pytest.mark.parametrize("shape", SHAPES)
def test_one_step_shapes_between_band_counts(shape, length):
    # count(w + y, v) = count(w, v) + [v ends in y] * count(w, v[:-1]), both others in the band DP
    w, v = _one_step_shape(shape, length)
    assert (_regime(length + 1, length - 2), _regime(length, length - 3)) == ("band", "band")
    count = subword_count(w, v)
    if shape == "not-a-subword":
        assert count == 0
    for y in "ab":
        assert subword_count(w + y, v) == count + (v[-1] == y) * subword_count(w, v[:-1]), y


@pytest.mark.parametrize("length", [_WALK_LETTERS - 1, _WALK_LETTERS])
def test_batch_walk_matches_single_counts(length):
    rng = random.Random(length)
    y = "".join(rng.choice("ab") for _ in range(length))
    # short words share prefixes in the walk's trie; near-full ones take the band DP
    words = {"".join(rng.choice("ab") for _ in range(rng.randint(1, 10))) for _ in range(300)}
    words |= {_subsequence(rng, y, length - rng.randint(1, 3)) for _ in range(5)}
    words |= {"", "a" * 8, "b" * 8, y}
    counts = subword_counts(y, words)
    assert counts.keys() == words
    assert counts == {w: subword_count(y, w) for w in words}


def _balanced(rng: random.Random, n: int) -> str:
    """A balanced word of size n, its letters shuffled by rng."""
    letters = list("ab" * n)
    rng.shuffle(letters)
    return "".join(letters)


# 12 letters: band and position DP; 120 and 1022: position DP; 1024 and 2000: the walk
@pytest.mark.parametrize("n", [6, 60, 511, 512, 1000])
def test_convolution_identity_for_long_w(n):
    # sum over v in W_{m+1} of binom(v, u) binom(w, v) = binom(w, u) (n - m)^2, u in W_m
    w = _balanced(random.Random(n), n)
    for m in range(4):
        mids = enumerate_balanced(m + 1)
        counts = {v: subword_count(w, v) for v in mids}
        for u in enumerate_balanced(m):
            lhs = sum(subword_count(v, u) * counts[v] for v in mids)
            assert lhs == subword_count(w, u) * (n - m) ** 2, (m, u)


# both rows run the band DP: w and v differ by one a and one b
@pytest.mark.parametrize("n", [20, 80])
def test_one_step_row_sums_to_one(n):
    v = _balanced(random.Random(n), n)
    assert sum(one_step_prob(v, w) for w in successors(v)) == 1


@pytest.mark.parametrize("n", [20, 80])
def test_backward_row_sums_to_one(n):
    v = _balanced(random.Random(n + 1), n)
    predecessors = {delete_pair(v, i, j)
                    for i in letter_positions(v, "a") for j in letter_positions(v, "b")}
    assert sum(backward_prob(u, v) for u in predecessors) == 1
