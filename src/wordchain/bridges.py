"""Forward simulation, finite bridges, and infinite bridges (h-transforms).

A bridge path is a list of balanced words U_0, ..., U_n with U_k of size k,
each a subword of the next.  Finite bridges are sampled backward from the
target by uniform pair deletion, which is exact and needs no kernel
evaluations.  Infinite bridges are driven by a measure pair: the word at
step n is the interleaving pattern of n draws from mu and n draws from nu,
and the latent points are kept so consistency between consecutive words can
be checked per run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import ZeroMassStateError
from .kernels import one_step_prob
from .measures import (
    CanonicalPair,
    interleave_pattern,
    pattern_prob_exact,
    sample_measure,
)
from .words import (
    check_balanced,
    delete_pair,
    letter_positions,
    subword_count,
    successors,
    word_size,
)


def check_bridge_path(path: list[str]) -> list[str]:
    """Validate the grading and subword-of-successor invariants."""
    if not path or path[0] != "":
        raise ValueError("a bridge path must start at the empty word")
    for k, w in enumerate(path):
        if word_size(w) != k:
            raise ValueError(f"path state {k} has size {word_size(w)}, expected {k}")
    for v, w in zip(path, path[1:]):
        if subword_count(w, v) == 0:
            raise ValueError(f"{v!r} is not a subword of its successor {w!r}")
    return path


def simulate_forward(n: int, rng: random.Random) -> list[str]:
    """Run the base chain for n steps; the word at step k is uniform on W_k.

    Each step inserts an a uniformly into one of the 2k+1 slots and then a
    b into one of the 2k+2 slots.
    """
    letters: list[str] = []
    path = [""]
    for _ in range(n):
        letters.insert(rng.randrange(len(letters) + 1), "a")
        letters.insert(rng.randrange(len(letters) + 1), "b")
        path.append("".join(letters))
    return path


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
        a_pos = rng.choice(letter_positions(cur, "a"))
        b_pos = rng.choice(letter_positions(cur, "b"))
        cur = delete_pair(cur, a_pos, b_pos)
        reversed_path.append(cur)
    return reversed_path[::-1]


class InfiniteBridge:
    """A growing word driven by i.i.d. draws from a measure pair.

    Stores the latent points, so the word at every step is a deterministic
    function of the draws and deleting the newest pair of points recovers
    the previous word exactly.
    """

    def __init__(self, pair: CanonicalPair, rng: random.Random):
        if not isinstance(pair, CanonicalPair):
            raise TypeError("infinite bridges are driven by diffuse canonical pairs")
        self.pair = pair
        self.rng = rng
        self.x_samples: list[float] = []
        self.y_samples: list[float] = []
        self.words: list[str] = [""]

    @property
    def step(self) -> int:
        return len(self.x_samples)

    def word(self, n: int | None = None) -> str:
        return self.words[self.step if n is None else n]

    def _draw_distinct(self, measure) -> float:
        seen = set(self.x_samples) | set(self.y_samples)
        while True:
            x = float(sample_measure(measure, self.rng))
            if x not in seen:
                return x

    def extend(self) -> str:
        """Draw one new point from each measure and rebuild the word."""
        self.x_samples.append(self._draw_distinct(self.pair.mu))
        self.y_samples.append(self._draw_distinct(self.pair.nu))
        word = interleave_pattern(self.x_samples, self.y_samples)
        self.words.append(word)
        return word

    def extend_to(self, n: int) -> str:
        while self.step < n:
            self.extend()
        return self.word(n)


def harmonic_h(pair: CanonicalPair, w: str) -> Fraction:
    """The harmonic function attached to the boundary point (mu, nu).

    h(w) = C(2m, m) * P{pattern of m+m draws is w}, normalized so that
    h of the empty word is 1.  Under the Lebesgue pair the pattern law is
    uniform on W_m, so h is identically 1.
    """
    if not isinstance(pair, CanonicalPair):
        raise TypeError("harmonic functions are indexed by diffuse canonical pairs")
    m = word_size(w)
    return math.comb(2 * m, m) * pattern_prob_exact(pair, w)


def htransform_step_prob(pair: CanonicalPair, u: str, v: str) -> Fraction:
    """One-step law of the infinite bridge driven by (mu, nu).

    Equal to h(u)^{-1} * P(u, v) * h(v) with the base one-step kernel P;
    rows sum to 1 by harmonicity of h.  Conditioning on a state of zero
    mass under h is ill-posed and raises.
    """
    n = word_size(u)
    if word_size(v) != n + 1:
        # one_step_prob raises the size error with the right message
        return one_step_prob(u, v)
    h_u = harmonic_h(pair, u)
    if h_u == 0:
        raise ZeroMassStateError(
            f"state {u!r} has zero mass under the pair; cannot condition on it"
        )
    return one_step_prob(u, v) * harmonic_h(pair, v) / h_u


def htransform_row(pair: CanonicalPair, u: str) -> dict[str, Fraction]:
    """Transition row of the h-chain from u, over reachable successors."""
    return {
        v: htransform_step_prob(pair, u, v)
        for v in successors(u)
        if pattern_prob_exact(pair, v) > 0
    }
