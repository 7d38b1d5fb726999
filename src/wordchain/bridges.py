"""Forward simulation, finite bridges, and infinite bridges (h-transforms).

A bridge path is a list of balanced words U_0, ..., U_n with U_k of size k,
each a subword of the next.  Finite bridges are sampled backward from the
target by uniform pair deletion, which is exact and needs no kernel
evaluations.  Infinite bridges are driven by a diffuse pair, canonical or
exponential: the word at step n is the interleaving pattern of n draws from
mu and n draws from nu, and the latent points are kept so consistency
between consecutive words can be checked per run.  Step n+1 only inserts
its two new points into the sorted latent points, so growing a bridge to n
steps costs O(n log n) comparisons plus list insertions; the words are
built only when read.  h and the h-transform read the pair only through
one ``pattern_probs`` call each.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from fractions import Fraction
from itertools import compress

from .errors import ZeroMassStateError
from .kernels import one_step_prob
from .measures import DiffusePair, _check_kind, _check_pattern_size, pattern_probs
from .words import check_balanced, check_count, delete_pair, successors, word_size


def simulate_forward(n: int, rng: random.Random) -> list[str]:
    """Run the base chain for n steps, a count; the word at step k is uniform on W_k.

    Each step inserts an a uniformly into one of the 2k+1 slots and then a
    b into one of the 2k+2 slots; each word is built from the last by
    slicing.
    """
    n = check_count(n, "steps")
    randrange = rng.randrange
    word = ""
    path = [word]
    for _ in range(n):
        i = randrange(len(word) + 1)
        word = word[:i] + "a" + word[i:]
        i = randrange(len(word) + 1)
        word = word[:i] + "b" + word[i:]
        path.append(word)
    return path


def _uniform_position(w: str, letter: str, rng: random.Random) -> int:
    """Index of an occurrence of `letter` in w chosen uniformly at random.

    Draws what rng.choice(letter_positions(w, letter)) draws, one randrange
    over the count.  Occurrence k is the first index p with k + 1 of the
    letter in w[:p + 1], found by bisecting on str.count at C level.
    """
    k = rng.randrange(w.count(letter))
    return bisect.bisect_left(range(len(w)), k + 1, key=lambda p: w.count(letter, 0, p + 1))


def sample_finite_bridge(w: str, rng: random.Random) -> list[str]:
    """A path of the base chain conditioned to end at w.

    Sampled backward: starting from w, delete one a and one b uniformly at
    random until the empty word, then reverse.  All bridges share these
    backward dynamics, so the law matches the conditioned chain.
    """
    check_balanced(w)
    reversed_path = [w]
    cur = w
    while cur:
        a_pos = _uniform_position(cur, "a", rng)
        b_pos = _uniform_position(cur, "b", rng)
        cur = delete_pair(cur, a_pos, b_pos)
        reversed_path.append(cur)
    return reversed_path[::-1]


class InfiniteBridge:
    """A growing word driven by i.i.d. draws from a measure pair.

    Stores the latent points, so the word at every step is a deterministic
    function of the draws and deleting the newest pair of points recovers
    the previous word exactly.  The points are kept sorted, each with its
    letter; a step inserts its two points by bisection, which also finds a
    repeat (the point just below is equal), and a word is built only when
    it is read.
    """

    def __init__(self, pair: DiffusePair, rng: random.Random):
        _check_kind(pair, DiffusePair, "a diffuse pair")
        self.pair = pair
        self.rng = rng
        self._draw_x = pair.mu.drawer(rng)
        self._draw_y = pair.nu.drawer(rng)
        self.x_samples: list[float] = []
        self.y_samples: list[float] = []
        self._values: list[float] = []  # every latent point, ascending
        self._letters: list[str] = []  # letter of each sorted point

    @property
    def step(self) -> int:
        return len(self.x_samples)

    def word(self, n: int | None = None) -> str:
        """The word at step n (default: the current step)."""
        n = self.step if n is None else operator.index(n)
        if not 0 <= n <= self.step:
            raise IndexError(f"step {n} is outside 0..{self.step}")
        if n == self.step:
            return "".join(self._letters)
        # the points are distinct, so the word at step n keeps the sorted points
        # that are among the first n draws from mu or from nu
        drawn = {*self.x_samples[:n], *self.y_samples[:n]}
        return "".join(compress(self._letters, map(drawn.__contains__, self._values)))

    @property
    def words(self) -> list[str]:
        """The path U_0, ..., U_step, rebuilt by replaying the insertions."""
        values: list[float] = []
        word = ""
        path = [word]
        for x, y in zip(self.x_samples, self.y_samples):
            for v, letter in ((x, "a"), (y, "b")):
                i = bisect.bisect(values, v)
                values.insert(i, v)
                word = word[:i] + letter + word[i:]
            path.append(word)
        return path

    def _add(self, draw, letter: str) -> float:
        """Draw a point, drawing again while it repeats one kept; insert and return it."""
        values = self._values
        (v,) = draw(1)
        i = bisect.bisect(values, v)
        while i and values[i - 1] == v:
            (v,) = draw(1)
            i = bisect.bisect(values, v)
        values.insert(i, v)
        self._letters.insert(i, letter)
        return v

    def extend_to(self, n: int) -> str:
        """Grow the bridge to step n, a count, if it is not there yet; returns the word at step n.

        n is checked before anything is drawn.
        """
        n = check_count(n, "step")
        add, draw_x, draw_y = self._add, self._draw_x, self._draw_y
        while self.step < n:
            # x is kept before y is drawn, so y also redraws on x's value
            self.x_samples.append(add(draw_x, "a"))
            self.y_samples.append(add(draw_y, "b"))
        return self.word(n)


def _h_table(pair: DiffusePair, words) -> dict[str, Fraction]:
    """h(w) = C(2m, m) * P(w) for each w, from one pattern_probs call."""
    # an atomic pair runs out of distinct atoms and indexes no harmonic function
    _check_kind(pair, DiffusePair, "a diffuse pair")
    return {w: math.comb(len(w), len(w) // 2) * p for w, p in pattern_probs(pair, words).items()}


def harmonic_h(pair: DiffusePair, w: str) -> Fraction:
    """The harmonic function attached to the boundary point (mu, nu).

    h(w) = C(2m, m) * P{pattern of m+m draws is w}, normalized so that
    h of the empty word is 1.  Under the Lebesgue pair (or equal rates) the
    pattern law is uniform on W_m, so h is identically 1.
    """
    return _h_table(pair, [w])[w]


def htransform_step_prob(pair: DiffusePair, u: str, v: str) -> Fraction:
    """One-step law of the infinite bridge driven by (mu, nu).

    Equal to h(u)^{-1} * P(u, v) * h(v) with the base one-step kernel P;
    rows sum to 1 by harmonicity of h.  Conditioning on a state of zero
    mass under h is ill-posed and raises.
    """
    p = one_step_prob(u, v)  # checks the sizes first
    h = _h_table(pair, [u, v])
    if h[u] == 0:
        raise ZeroMassStateError(
            f"state {u!r} has zero mass under the pair; cannot condition on it"
        )
    return p * h[v] / h[u]


def htransform_row(pair: DiffusePair, u: str) -> dict[str, Fraction]:
    """Transition row of the h-chain from u, over reachable successors.

    The numerators P(u, v) are the insertion counts M(u, v) over
    (2m+2)(2m+1).  h is harmonic and nonnegative, so h(v) > 0 for a
    successor implies h(u) > 0; a state of zero mass gets an empty row.
    """
    m = word_size(u) + 1  # u is checked before the pair, as successors(u) did
    _check_kind(pair, DiffusePair, "a diffuse pair")
    _check_pattern_size(pair, m)  # before the successors, cubic in |u|, are built
    counts = successors(u)
    h = _h_table(pair, [u, *counts])
    den = (len(u) + 2) * (len(u) + 1) * h[u]
    return {v: c * h[v] / den for v, c in counts.items() if h[v] > 0}
