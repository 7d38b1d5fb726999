"""Exact transition kernels of the growing-word chain.

All probabilities are ``fractions.Fraction`` values; nothing in this module
touches floating point.  The chain moves from a balanced word of size m to
one of size m+1 by shuffling in one a (2m+1 slots) and then one b (2m+2
slots) uniformly at random, so every one-step probability has denominator
(2m+2)(2m+1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SizeMismatchError
from .words import subword_count, word_size


def _sizes(v: str, w: str) -> tuple[int, int]:
    return word_size(v), word_size(w)


def one_step_prob(v: str, w: str) -> Fraction:
    """P{next word = w | current word = v} for sizes m and m+1.

    Equals M(v, w) / ((2m+2)(2m+1)) where M(v, w) counts the insertion
    pairs turning v into w; M coincides with the subword coefficient.
    """
    m, k = _sizes(v, w)
    if k != m + 1:
        raise SizeMismatchError(f"one-step needs sizes (m, m+1), got ({m}, {k})")
    return Fraction(subword_count(w, v), (2 * m + 2) * (2 * m + 1))


def multi_step_prob(v: str, w: str) -> Fraction:
    """P{word after n more steps = w | current word = v}.

    For v of size m and w of size m+n this is
        subword_count(w, v) * n! * n! / ((2m+1)(2m+2)...(2m+2n)).
    With v the empty word it reduces to the uniform marginal 1 / C(2n, n).
    """
    m, k = _sizes(v, w)
    if k < m:
        raise SizeMismatchError(f"target size {k} is below source size {m}")
    n = k - m
    denom = math.perm(2 * m + 2 * n, 2 * n)  # (2m+1)(2m+2)...(2m+2n)
    return Fraction(subword_count(w, v) * math.factorial(n) ** 2, denom)


def dm_kernel(v: str, w: str) -> Fraction:
    """Ratio of hitting probabilities from v versus from the empty word.

    Closed form subword_count(w, v) * C(2m, m) / C(m+n, m)^2; identical to
    multi_step_prob(v, w) / multi_step_prob("", w).  May exceed 1.
    """
    m, k = _sizes(v, w)
    if k < m:
        raise SizeMismatchError(f"target size {k} is below source size {m}")
    n = k - m
    return Fraction(
        subword_count(w, v) * math.comb(2 * m, m), math.comb(m + n, m) ** 2
    )


def backward_prob(u: str, v: str) -> Fraction:
    """P{previous word = u | current word = v} under deletion dynamics.

    Every bridge shares these backward probabilities: remove one a and one
    b uniformly at random, so u is reached from v of size m+1 with
    probability subword_count(v, u) / (m+1)^2.
    """
    m, k = _sizes(u, v)
    if k != m + 1:
        raise SizeMismatchError(f"backward step needs sizes (m, m+1), got ({m}, {k})")
    return Fraction(subword_count(v, u), (m + 1) ** 2)
