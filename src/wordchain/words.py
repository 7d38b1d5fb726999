"""Words over the two-letter alphabet {a, b} and the subword coefficient.

A word is an ASCII string of ``'a'``/``'b'`` characters; the empty word is
``""``.  A *balanced* word has the same number of a's and b's, and its size
``n`` is that common count.  ``subword_count(w, v)`` is the generalized
binomial coefficient: the number of ways v embeds in w as a scattered
subword (letters kept in relative order).
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate, product
from operator import itemgetter

from .errors import CapExceededError, SizeMismatchError, WordchainError

ALPHABET = "ab"

BALANCED_ENUM_CAP = 12


def check_word(w: str) -> str:
    """Validate that `w` uses only the letters a and b; returns `w`."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a str, got {type(w).__name__}")
    if w.strip(ALPHABET):  # a letter outside the alphabet stops the strip
        ch = next(ch for ch in w if ch not in ALPHABET)
        raise WordchainError(f"invalid letter {ch!r} in word {w!r}")
    return w


def check_balanced(w: str) -> str:
    """Validate that `w` is a balanced {a,b}-word; returns `w`."""
    check_word(w)
    n_a, n_b = w.count("a"), w.count("b")
    if n_a != n_b:
        raise WordchainError(f"word {w!r} is not balanced: {n_a} a's vs {n_b} b's")
    return w


def word_size(w: str) -> int:
    """The size n of a balanced word (number of a's, equivalently b's)."""
    check_balanced(w)
    return len(w) // 2


def display_word(w: str) -> str:
    """Human-readable form; the empty word prints as a visible symbol."""
    return w if w else "∅"


@lru_cache(maxsize=65536)
def subword_count(w: str, v: str) -> int:
    """Number of embeddings of v in w as a scattered subword.

    Satisfies the defining recurrence
        count(w + y, v + x) = count(w, v + x) + [x == y] * count(w, v)
    with count(w, "") = 1 and count(w, v) = 0 for |w| < |v|.  Computed by
    dynamic programming over the letters of w in exact integers.  With
    d = |w| - |v|, once i letters of w are read only the prefixes v[:j]
    with i - d <= j <= i can still complete.  When d < |v| the DP visits
    that band of d + 1 entries per letter, O(|w| * (d + 1)) steps: O(|w|)
    for a one-step successor.  Otherwise it visits, per letter of w, only
    the positions of v that hold that letter: O(|w| * |v|) steps, about
    half of them for a word with as many a's as b's.
    """
    check_word(w)
    check_word(v)
    k = len(v)
    d = len(w) - k
    if d <= 0:
        return int(w == v)
    # dp[j] = number of embeddings of v[:j] in the scanned prefix of w
    dp = [1] + [0] * k
    if d < k:
        for i, ch in enumerate(w):
            for j in range(i + 1 if i < k else k, i - d if i > d else 0, -1):
                if v[j - 1] == ch:
                    dp[j] += dp[j - 1]
        return dp[k]
    holding = {"a": [], "b": []}  # the positions j with v[j - 1] == letter, descending
    for j in range(k, 0, -1):
        holding[v[j - 1]].append(j)
    for ch in w:
        for j in holding[ch]:
            dp[j] += dp[j - 1]
    return dp[k]


def subword_counts(y: str, words) -> dict[str, int]:
    """{w: subword_count(y, w)} for every w in `words`, in one walk of their prefix trie.

    For a trie node x ending in letter c, g[t] counts the embeddings of x
    in y whose last letter lands on the t-th c of y, and count(x) = sum(g).
    With G the prefix sums of g, a child x + c has g = G[:-1], and a child
    x + d (d != c) has g[t] = G[number of c's before the t-th d of y]; that
    index is pos_d[t] - t, tabulated once per y.  Each node costs O(|y|) at
    C speed.  The walk is depth-first on an explicit stack, so only the
    vectors of the current path and their siblings are alive.
    """
    check_word(y)
    wanted = {check_word(w) for w in words}
    prefixes = {w[:i] for w in wanted for i in range(len(w) + 1)}
    counts = {"": 1} if "" in wanted else {}
    pick = {}
    for d in ALPHABET:
        # the letters other than d ahead of the t-th d of y, for each t
        before = [i - t for t, i in enumerate(letter_positions(y, d))]
        # itemgetter of one index returns the item itself, not a 1-tuple
        pick[d] = (itemgetter(*before) if len(before) > 1
                   else lambda cum, before=before: [cum[i] for i in before])
    stack = [(d, [1] * y.count(d)) for d in ALPHABET if d in prefixes]
    while stack:
        x, g = stack.pop()
        children = [x + d for d in ALPHABET if x + d in prefixes]
        if not children:  # a leaf is a wanted word
            counts[x] = sum(g)
            continue
        cum = list(accumulate(g, initial=0))
        if x in wanted:
            counts[x] = cum[-1]
        stack.extend(
            (child, cum[:-1] if child[-1] == x[-1] else pick[child[-1]](cum))
            for child in children
        )
    return counts


def enumerate_words(length: int) -> list[str]:
    """All {a,b}-words of exactly `length`, in lexicographic order (a < b)."""
    return ["".join(p) for p in product(ALPHABET, repeat=length)]


def enumerate_balanced(n: int) -> list[str]:
    """All C(2n, n) balanced words of size n, lexicographic, a < b."""
    if n < 0:
        raise WordchainError("size must be nonnegative")
    if n > BALANCED_ENUM_CAP:
        raise CapExceededError(f"size {n} exceeds enumeration cap {BALANCED_ENUM_CAP}")

    out: list[str] = []

    def grow(prefix: list[str], rem_a: int, rem_b: int) -> None:
        if rem_a == 0 and rem_b == 0:
            out.append("".join(prefix))
            return
        if rem_a:
            prefix.append("a")
            grow(prefix, rem_a - 1, rem_b)
            prefix.pop()
        if rem_b:
            prefix.append("b")
            grow(prefix, rem_a, rem_b - 1)
            prefix.pop()

    grow([], n, n)
    return out


def successors(v: str) -> dict[str, int]:
    """Insertion counts M(v, w) over all one-step successors w of v.

    Inserting an a into one of the 2n+1 slots of v and then a b into one of
    the 2n+2 slots of the result yields a word of size n+1; the value at w
    is the number of insertion pairs producing w.  Values total
    (2n+2)(2n+1), and M(v, w) = subword_count(w, v) for every w.
    """
    check_balanced(v)
    counts: dict[str, int] = {}
    for i in range(len(v) + 1):
        mid = v[:i] + "a" + v[i:]
        for j in range(len(mid) + 1):
            w = mid[:j] + "b" + mid[j:]
            counts[w] = counts.get(w, 0) + 1
    return counts


def delete_pair(w: str, a_pos: int, b_pos: int) -> str:
    """Word left after removing the a at index `a_pos` and the b at `b_pos`."""
    if not (0 <= a_pos < len(w) and 0 <= b_pos < len(w)):
        raise WordchainError(f"positions ({a_pos}, {b_pos}) lie outside 0..{len(w) - 1} in {w!r}")
    if w[a_pos] != "a" or w[b_pos] != "b":
        raise WordchainError(f"positions ({a_pos}, {b_pos}) are not an (a, b) pair in {w!r}")
    lo, hi = sorted((a_pos, b_pos))
    return w[:lo] + w[lo + 1:hi] + w[hi + 1:]


def letter_positions(w: str, letter: str) -> list[int]:
    return [i for i, ch in enumerate(w) if ch == letter]


def random_subword(w: str, m: int, rng: random.Random) -> str:
    """Uniformly select m a's and m b's of w, keeping their relative order.

    The resulting word v occurs with probability
    subword_count(w, v) / C(n, m)^2 where n is the size of w.
    """
    n = word_size(w)
    if m < 0 or m > n:
        raise SizeMismatchError(f"cannot select {m} of each letter from a word of size {n}")
    keep = sorted(
        rng.sample(letter_positions(w, "a"), m) + rng.sample(letter_positions(w, "b"), m)
    )
    return "".join(w[i] for i in keep)
