"""The subword coefficient's own identities at the sizes where its regimes meet.

``subword_count`` picks one of four regimes by size: the packed integer (at
most _PACKED_LETTERS letters of w), the band DP (|w| - |v| < |v|), the
position DP, and from _WALK_LETTERS letters of w on the subword_counts walk.
These tests check the defining recurrence

    count(w + y, v + x) = count(w, v + x) + [x == y] * count(w, v)

with v chosen so that its sides are served by different regimes, and the
batch walk ``subword_counts`` against ``subword_count`` on either side of
_WALK_LETTERS.  Neither uses an oracle: a regime that is off by one
disagrees with its neighbour.  The words are drawn from fixed seeds.
"""

import random

import pytest

from wordchain.words import _PACKED_LETTERS, _WALK_LETTERS, subword_count, subword_counts


def _regime(w_len: int, v_len: int) -> str:
    """The regime subword_count serves (w, v) in, for 0 < |v| < |w|."""
    if w_len <= _PACKED_LETTERS:
        return "packed"
    if w_len - v_len < v_len:
        return "band"
    return "walk" if w_len >= _WALK_LETTERS else "position"


def _subsequence(rng: random.Random, w: str, k: int) -> str:
    """k letters of w, kept in order, so that v embeds in w at least once."""
    return "".join(w[i] for i in sorted(rng.sample(range(len(w)), k)))


# (|w|, |v|, the regimes of count(w + y, v + x), count(w, v + x) and count(w, v))
CASES = [
    (10, 5, ("band", "packed", "packed")),
    (10, 8, ("band", "packed", "packed")),
    (10, 2, ("position", "packed", "packed")),
    (11, 5, ("position", "band", "position")),
    (11, 9, ("band", "band", "band")),
    (300, 150, ("band", "band", "position")),
    (300, 149, ("position", "position", "position")),
    (300, 3, ("position", "position", "position")),
    (1022, 511, ("band", "band", "position")),
    (1022, 1019, ("band", "band", "band")),
    (1023, 3, ("walk", "position", "position")),
    (1023, 200, ("walk", "position", "position")),
    (1023, 511, ("walk", "band", "position")),
    (1024, 4, ("walk", "walk", "walk")),
    (1024, 1021, ("band", "band", "band")),
    (2000, 5, ("walk", "walk", "walk")),
    (2000, 700, ("walk", "walk", "walk")),
    (2000, 1997, ("band", "band", "band")),
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
