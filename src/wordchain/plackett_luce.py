"""Closed forms for the infinite bridge driven by two exponential laws.

With a-letters carrying Exp(alpha) values and b-letters Exp(beta) values,
the word law and the forward transitions have product formulas in the
suffix letter counts, by repeated competing-exponentials arguments (the
two-letter Plackett-Luce / vase model).  Rational rates keep every value
exact.  ``RatePair`` and its word law ``pl_word_prob`` live in ``measures``,
which serves the pair to h, the h-transform and the bridges like any
diffuse pair; ``pl_transition`` is the closed-form oracle that the verify
family ``check_plackett_luce`` checks each ``htransform_row`` against.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import compress
from operator import ne

from .errors import SizeMismatchError, WordchainError
from .measures import RatePair, _check_kind, _distinct_run, _product, _scaled_rates, _suffix_factors
from .measures import interleave_pattern
from .measures import pl_word_prob  # noqa: F401  (re-exported beside RatePair)
from .words import check_count, subword_count, word_size


def pl_transition(rates: RatePair, u: str, v: str) -> Fraction:
    """One-step law of the exponential-pair bridge from u to v.

    subword_count(v, u) * alpha * beta * prod(u suffixes) / prod(v suffixes);
    identical to h(u)^{-1} P(u, v) h(v) and rows sum to 1.  Factor i of u
    and factor i of v (measures._suffix_factors) are equal over the suffix
    the words share, and wherever the insertions shift the lattice path of
    suffix letter counts onto a point it visits anyway; each equal pair
    cancels before the two products.  v's last two factors have no
    partner and stay in the denominator.
    """
    n = word_size(u)
    if word_size(v) != n + 1:
        raise SizeMismatchError(f"transition needs sizes (n, n+1), got ({n}, {word_size(v)})")
    ps, rq = _scaled_rates(rates)
    fu, fv = _suffix_factors(ps, rq, u), _suffix_factors(ps, rq, v)
    differ = list(map(ne, fu, fv))
    num = subword_count(v, u) * ps * rq * _product(list(compress(fu, differ)))
    return Fraction(num, _product([*compress(fv, differ), *fv[len(u):]]))


def pl_sample(rates: RatePair, n: int, rng: random.Random, method: str = "sequential") -> str:
    """Draw a word of size n, a count, from the exponential-pair bridge.

    "sequential": with A a's and B b's left to place, the next letter is a
    with probability A*alpha / (A*alpha + B*beta) — the minimum of the
    remaining competing exponentials.  "sort": draw the n + n exponential
    values outright, through Exponential drawers, and read their
    interleaving; a value repeated by a float collision is drawn again
    (`_distinct_run`), and the rates must lie in the normal float range.
    The two agree in distribution and serve as mutual oracles.
    """
    _check_kind(rates, RatePair, "a rate pair")
    n = check_count(n, "word size")
    if method == "sort":
        return interleave_pattern(*_distinct_run(rates.mu.drawer(rng), rates.nu.drawer(rng), n))
    if method != "sequential":
        raise WordchainError(f"unknown sampling method {method!r}")
    ps, rq = _scaled_rates(rates)  # alpha : beta in integers
    out = []
    n_a = n_b = n
    while n_a or n_b:
        # int / int rounds the exact quotient once, as float(Fraction) would
        p_a = n_a * ps / (n_a * ps + n_b * rq)
        if rng.random() < p_a:
            out.append("a")
            n_a -= 1
        else:
            out.append("b")
            n_b -= 1
    return "".join(out)
