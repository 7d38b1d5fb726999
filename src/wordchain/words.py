"""Words over the two-letter alphabet {a, b} and the subword coefficient.

A word is an ASCII string of ``'a'``/``'b'`` characters; the empty word is
``""``.  A *balanced* word has the same number of a's and b's, and its size
``n`` is that common count.  ``subword_count(w, v)`` is the generalized
binomial coefficient: the number of ways v embeds in w as a scattered
subword (letters kept in relative order).
"""

from __future__ import annotations

import decimal
import random
from functools import lru_cache
from itertools import accumulate, combinations, compress, count, product
from operator import index, itemgetter, sub

from .errors import CapExceededError, SizeMismatchError, WordchainError

ALPHABET = "ab"

BALANCED_ENUM_CAP = 12

# From this many letters of w on, subword_count with |w| - |v| >= |v| runs the
# subword_counts walk (a C-speed pass over w per letter of v) instead of the
# Python DP.  With |v| >= |w| / 10 the walk overtakes the DP near 512 letters
# and takes 0.7-0.87 of its time from 1024 on (README has the table).
_WALK_LETTERS = 1024

# Words of at most this many letters get subword_count from one packed
# integer: every count is at most C(10, 5) = 252, so it fits in one byte.
_PACKED_LETTERS = 10

# bytes.translate tables: a letter's code to 255, every other byte to 0
_LETTER_MASKS = {d: bytes(255 * (i == ord(d)) for i in range(256)) for d in ALPHABET}


def check_word(w: str) -> str:
    """Validate that `w` uses only the letters a and b; returns `w`."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a str, got {type(w).__name__}")
    if w.strip(ALPHABET):  # a letter outside the alphabet stops the strip
        ch = next(ch for ch in w if ch not in ALPHABET)
        raise WordchainError(f"invalid letter {ch!r} in word {w!r}")
    return w


def check_count(n, name: str, minimum: int = 0) -> int:
    """`n` as an exact int of at least `minimum`; `name` names it in errors.

    operator.index takes any integer, a bool as 0 or 1 (as range() does),
    and gives TypeError for 1.5, "3" or None.
    """
    n = index(n)
    if n < minimum:
        # Decimal prints an int in full, past the int-to-str digit limit
        rule = "be nonnegative" if minimum == 0 else f"be at least {minimum}"
        raise WordchainError(f"{name} must {rule}, got {decimal.Decimal(n)}")
    return n


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
    with count(w, "") = 1 and count(w, v) = 0 for |w| < |v|, in exact
    integers, in one of four regimes.  Both words go through check_word,
    w first, on a cache miss only.

    dp[j] counts the embeddings of v[:j] in the letters of w read so far.
    For w of at most _PACKED_LETTERS letters, dp[j] is byte j of one
    integer, and a letter ch of w adds dp[j - 1] to every dp[j] with
    v[j - 1] == ch in one shift, one AND with ch's byte mask and one add.
    Otherwise, with d = |w| - |v|, once i letters of w are read only the
    prefixes v[:j] with i - d <= j <= i can still complete.  When d < |v|
    a dynamic program visits that band of d + 1 entries per letter,
    O(|w| * (d + 1)) steps: O(|w|) for a one-step successor.  Otherwise,
    for w shorter than _WALK_LETTERS, the DP visits per letter of w only
    the positions of v that hold that letter: O(|w| * |v|) Python steps,
    about half of them for a word with as many a's as b's.  For longer w
    the count is one subword_counts walk, |v| passes over w at C speed.
    """
    check_word(w)
    check_word(v)
    k = len(v)
    d = len(w) - k
    if d <= 0:
        return int(w == v)
    if len(w) <= _PACKED_LETTERS:
        on_a = int.from_bytes(v.encode().translate(_LETTER_MASKS["a"]), "little") << 8
        on_b = on_a ^ (((1 << 8 * k) - 1) << 8)  # the other bytes 1..k
        packed = 1
        for ch in w:
            packed += (packed << 8) & (on_a if ch == "a" else on_b)
        return packed >> 8 * k
    dp = [1] + [0] * k
    if d < k:
        for i, ch in enumerate(w):
            for j in range(i + 1 if i < k else k, i - d if i > d else 0, -1):
                if v[j - 1] == ch:
                    dp[j] += dp[j - 1]
        return dp[k]
    if len(w) >= _WALK_LETTERS:
        return subword_counts(w, [v])[v]
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
    for c, d in ("ba", "ab"):
        if not any(c + d in w for w in wanted):
            continue  # no node ending in c has a child d
        # the c's ahead of the t-th d of y, for each t
        before = list(map(sub, letter_positions(y, d), count()))
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
    """All {a,b}-words of exactly `length` (a count), in lexicographic order (a < b)."""
    length = check_count(length, "size")
    return ["".join(p) for p in product(ALPHABET, repeat=length)]


def enumerate_balanced(n: int) -> list[str]:
    """All C(2n, n) balanced words of size n (a count), lexicographic, a < b.

    The a-positions run through combinations(range(2n), n), whose
    lexicographic order is the words' order.
    """
    n = check_count(n, "size")
    if n > BALANCED_ENUM_CAP:
        raise CapExceededError(
            f"size {decimal.Decimal(n)} exceeds enumeration cap {BALANCED_ENUM_CAP}"
        )
    blank = ["b"] * (2 * n)
    out = []
    for a_positions in combinations(range(2 * n), n):
        letters = blank.copy()
        for i in a_positions:
            letters[i] = "a"
        out.append("".join(letters))
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
    """The indices i with w[i] == letter, ascending, for a letter of the alphabet.

    One pass of w's ASCII bytes through a 0/255 mask at C speed; a non-ASCII
    w raises UnicodeEncodeError.
    """
    return list(compress(count(), w.encode("ascii").translate(_LETTER_MASKS[letter])))


def random_subword(w: str, m: int, rng: random.Random) -> str:
    """Uniformly select m a's and m b's of w, keeping their relative order.

    The resulting word v occurs with probability
    subword_count(w, v) / C(n, m)^2 where n is the size of w; m is a count
    of at most n.
    """
    n = word_size(w)
    m = check_count(m, "m")
    if m > n:
        raise SizeMismatchError(
            f"cannot select {decimal.Decimal(m)} of each letter from a word of size {n}"
        )
    keep = sorted(
        rng.sample(letter_positions(w, "a"), m) + rng.sample(letter_positions(w, "b"), m)
    )
    return "".join(w[i] for i in keep)
