"""Convergence diagnostics toward boundary points.

A sequence of growing words converges to the boundary point described by a
canonical pair (mu, nu) exactly when, for every test word w, the probability
that a uniform selection of letters from y_k reads w tends to the pattern
probability of w under the pair, equivalently when the empirical letter-
position measures of y_k converge weakly to (mu, nu).  The report computes
both views: exact kernel ratios per test word and Kolmogorov distances per
sequence element.  Verdicts are heuristic — the theory gives limits, not
rates — so the thresholds are fixed and printed with every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeMismatchError, WordchainError
from .measures import (
    CanonicalPair,
    _check_step_cap,
    empirical_distance,
    format_fraction,
    pattern_probs,
)
from .words import check_count, enumerate_balanced, subword_counts, word_size


def check_word_sequence(seq: list[str]) -> list[str]:
    """Validate nonempty input with nondecreasing word sizes."""
    _checked_sizes(seq)
    return seq


def _checked_sizes(seq: list[str]) -> list[int]:
    """The word sizes of a nonempty sequence of balanced words, checked nondecreasing."""
    if not seq:
        raise WordchainError("a word sequence must be nonempty")
    sizes = [word_size(y) for y in seq]
    if any(s2 < s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise WordchainError("word sizes must be nondecreasing along the sequence")
    return sizes


# Calibrated on seeded base-chain simulations: at size 200 the empirical
# measures of a uniform word sit within Kolmogorov distance 0.15 of Lebesgue
# in well over 95% of runs.  The verdict reads only DISTANCE_TOL; RATIO_TOL
# is printed in each report's config for its readers.
DISTANCE_TOL = 0.15
RATIO_TOL = 0.1


@dataclass
class ConvergenceReport:
    """Kernel ratios, targets, and empirical distances along a sequence."""

    sizes: list[int]
    test_words: list[str]
    ratios: dict[str, list[Fraction]]  # per test word, one ratio per element
    targets: dict[str, Fraction]
    mu_distances: list[float]
    nu_distances: list[float]
    ratio_errors: list[float]  # per element, max over test words of |ratio - target|
    verdict: bool
    verdict_reason: str

    def to_json(self) -> dict:
        return {
            "sizes": self.sizes,
            "test_words": self.test_words,
            "ratios": {w: [format_fraction(r) for r in rs] for w, rs in self.ratios.items()},
            "targets": {w: format_fraction(t) for w, t in self.targets.items()},
            "mu_distances": [float(d) for d in self.mu_distances],
            "nu_distances": [float(d) for d in self.nu_distances],
            "ratio_errors": self.ratio_errors,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
            "config": {"distance_tol": DISTANCE_TOL, "ratio_tol": RATIO_TOL},
        }


def convergence_report(
    seq: list[str],
    pair: CanonicalPair,
    m_max: int,
) -> ConvergenceReport:
    """Assess whether a word sequence is heading to the pair's boundary point.

    For every test word w of size m <= m_max (a count of at least 1, and
    at most the smallest word size), tabulates the exact selection
    ratio of each y_k against the pattern probability of w under the pair,
    and tracks the Kolmogorov distances of the empirical measures of y_k to
    (mu, nu).  The verdict holds when the final distances fall inside
    ``DISTANCE_TOL`` and the worst ratio error does not grow on average
    between the first and second half of the sequence.
    """
    if not isinstance(pair, CanonicalPair):
        raise TypeError(f"need a canonical pair, not {type(pair).__name__}")
    sizes = _checked_sizes(seq)
    m_max = check_count(m_max, "m_max", 1)
    if m_max > sizes[0]:
        raise SizeMismatchError(f"m_max must be between 1 and the smallest word size {sizes[0]}")

    _check_step_cap(m_max)  # before W_1, ..., W_m_max are enumerated
    targets = pattern_probs(pair, [w for m in range(1, m_max + 1) for w in enumerate_balanced(m)])
    test_words = list(targets)
    ratios = {w: [] for w in test_words}
    mu_distances, nu_distances = [], []
    for y, size in zip(seq, sizes):
        # one trie walk counts every test word; the ratio of w is binom(y, w) / C(N, m)^2
        counts = subword_counts(y, test_words)
        selections = [math.comb(size, m) ** 2 for m in range(m_max + 1)]
        for w in test_words:
            ratios[w].append(Fraction(counts[w], selections[len(w) // 2]))
        mu_distances.append(empirical_distance(y, "a", pair.mu))
        nu_distances.append(empirical_distance(y, "b", pair.nu))

    errors = [
        max(abs(float(ratios[w][k] - targets[w])) for w in test_words) for k in range(len(seq))
    ]
    half = len(errors) // 2
    early = sum(errors[:half]) / half if half else errors[0]
    late = sum(errors[half:]) / (len(errors) - half)
    distances = f"final distances ({mu_distances[-1]:.4f}, {nu_distances[-1]:.4f})"
    trend = f"({early:.4f} -> {late:.4f})"
    problems = []
    if mu_distances[-1] > DISTANCE_TOL or nu_distances[-1] > DISTANCE_TOL:
        problems.append(f"{distances} exceed {DISTANCE_TOL}")
    if late > early + 1e-12:
        problems.append(f"mean ratio error grew {trend}")
    if problems:
        reason = "not consistent with convergence: " + "; ".join(problems)
    else:
        reason = (
            f"consistent with convergence: {distances} within {DISTANCE_TOL} "
            f"and mean ratio error not increasing {trend}"
        )
    return ConvergenceReport(
        sizes=sizes,
        test_words=test_words,
        ratios=ratios,
        targets=targets,
        mu_distances=mu_distances,
        nu_distances=nu_distances,
        ratio_errors=errors,
        verdict=not problems,
        verdict_reason=reason,
    )
