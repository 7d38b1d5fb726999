"""Closed forms for the infinite bridge driven by two exponential laws.

With a-letters carrying Exp(alpha) values and b-letters Exp(beta) values,
the word law, harmonic function, and forward transitions all have product
formulas in the suffix letter counts, by repeated competing-exponentials
arguments (the two-letter Plackett-Luce / vase model).  Rational rates keep
every value exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeMismatchError
from .measures import Exponential, interleave_pattern
from .words import check_balanced, subword_count, word_size


@dataclass(frozen=True)
class RatePair:
    """Positive rational rates (alpha for a-letters, beta for b-letters)."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("rates must be positive")


def suffix_counts(u: str) -> list[tuple[int, int]]:
    """(A_i, B_i) = letters a and b in the suffix u[i-1:], for i = 1..|u|.

    A_1 = B_1 = size(u) for balanced u, and the final entry has A + B = 1.
    """
    check_balanced(u)
    counts = []
    n_a = n_b = 0
    for ch in reversed(u):
        if ch == "a":
            n_a += 1
        else:
            n_b += 1
        counts.append((n_a, n_b))
    return counts[::-1]


def _scaled_rates(rates: RatePair) -> tuple[int, int]:
    """(alpha * qs, beta * qs) = (ps, rq) for alpha = p/q and beta = r/s."""
    p, q = rates.alpha.as_integer_ratio()
    r, s = rates.beta.as_integer_ratio()
    return p * s, r * q


def _suffix_product(ps: int, rq: int, u: str) -> int:
    """prod_i (A_i alpha + B_i beta) * (qs)^|u|, a product of integers A_i ps + B_i rq."""
    return math.prod(a * ps + b * rq for a, b in suffix_counts(u))


def pl_word_prob(rates: RatePair, u: str) -> Fraction:
    """P{word at step n equals u} = (n!)^2 alpha^n beta^n / prod_i (A_i alpha + B_i beta).

    Sums to 1 over W_n; for equal rates every word gets 1 / C(2n, n).
    """
    n = word_size(u)
    ps, rq = _scaled_rates(rates)
    return Fraction(math.factorial(n) ** 2 * (ps * rq) ** n, _suffix_product(ps, rq, u))


def pl_harmonic(rates: RatePair, w: str) -> Fraction:
    """Harmonic function h(w) = (2m)! alpha^m beta^m / prod_i (A_i alpha + B_i beta).

    Normalized so h of the empty word is 1 (empty product); h is constant 1
    when the rates are equal.
    """
    m = word_size(w)
    ps, rq = _scaled_rates(rates)
    return Fraction(math.factorial(2 * m) * (ps * rq) ** m, _suffix_product(ps, rq, w))


def pl_transition(rates: RatePair, u: str, v: str) -> Fraction:
    """One-step law of the exponential-pair bridge from u to v.

    subword_count(v, u) * alpha * beta * prod(u suffixes) / prod(v suffixes);
    identical to h(u)^{-1} P(u, v) h(v) and rows sum to 1.
    """
    n = word_size(u)
    if word_size(v) != n + 1:
        raise SizeMismatchError(f"transition needs sizes (n, n+1), got ({n}, {word_size(v)})")
    ps, rq = _scaled_rates(rates)
    num = subword_count(v, u) * ps * rq * _suffix_product(ps, rq, u)
    return Fraction(num, _suffix_product(ps, rq, v))


def pl_sample(rates: RatePair, n: int, rng: random.Random, method: str = "sequential") -> str:
    """Draw a word of size n from the exponential-pair bridge.

    "sequential": with A a's and B b's left to place, the next letter is a
    with probability A*alpha / (A*alpha + B*beta) — the minimum of the
    remaining competing exponentials.  "sort": draw the n + n exponential
    values outright, through Exponential drawers, and read their
    interleaving; its rates must lie in the normal float range.  The two
    agree in distribution and serve as mutual oracles.
    """
    if n < 0:
        raise ValueError(f"word size must be nonnegative, got {n}")
    if method == "sort":
        draw_x, draw_y = Exponential(rates.alpha).drawer(rng), Exponential(rates.beta).drawer(rng)
        while True:
            try:
                return interleave_pattern(draw_x(n), draw_y(n))
            except ValueError:
                continue  # float tie; redraw
    if method != "sequential":
        raise ValueError(f"unknown sampling method {method!r}")
    out = []
    n_a = n_b = n
    while n_a or n_b:
        p_a = float(
            Fraction(n_a) * rates.alpha / (n_a * rates.alpha + n_b * rates.beta)
        )
        if rng.random() < p_a:
            out.append("a")
            n_a -= 1
        else:
            out.append("b")
            n_b -= 1
    return "".join(out)
