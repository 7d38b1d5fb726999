"""Exchangeable total-order prefixes and their limiting statistics.

A labeled word over {a1, b1, ..., an, bn} with every letter appearing once
is a prefix of a total order on the infinite letter set.  Orders are
generated either by uniformly labeling a bridge path or by comparing i.i.d.
draws attached to the letters (a_i carries V_i, b_j carries W_j; letters
sort by value).  The metric d, the embedding f into [0,1], and the moments
of the canonical measure pair all arise as letter-density limits and are
estimated here at finite depth.
"""

from __future__ import annotations

import decimal
import math
import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import SizeMismatchError, WordchainError
from .measures import DiffusePair, Exponential, MCEstimate, StepMeasure, format_fraction
from .measures import _check_kind, _distinct_run, _value_rows
from .words import _deletion_ranges, check_count, word_size

MOMENT_ORDER_CAP = 4


@dataclass(frozen=True, order=True)
class LabeledLetter:
    """One letter a_i or b_j of the infinite alphabet; the index is a count of at least 1."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise WordchainError(f"kind must be 'a' or 'b', got {self.kind!r}")
        object.__setattr__(self, "index", check_count(self.index, "letter index", 1))

    def __str__(self) -> str:
        return self.kind + format_fraction(self.index)

    @classmethod
    def parse(cls, token: str) -> "LabeledLetter":
        """Parse a token such as "a3" or "b12"."""
        digits = token[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise WordchainError(f"expected a labeled letter such as a1, got {token!r}")
        return cls(token[0], int(decimal.Decimal(digits)))  # exact at any size


@dataclass(frozen=True)
class OrderPrefix:
    """A total order on {a1, b1, ..., an, bn}, written as a labeled word."""

    letters: tuple[LabeledLetter, ...]

    def __post_init__(self):
        if len(self.letters) % 2:
            raise WordchainError("an order prefix has even length")
        n = len(self.letters) // 2
        labels = sorted((letter.kind, letter.index) for letter in self.letters)
        if labels != [(k, i) for k in "ab" for i in range(1, n + 1)]:
            raise WordchainError(f"prefix must use each of a1..a{n}, b1..b{n} exactly once")

    @property
    def depth(self) -> int:
        return len(self.letters) // 2

    def unlabel(self) -> str:
        """Forget the indices, leaving a balanced {a,b}-word."""
        return "".join(letter.kind for letter in self.letters)

    def to_string(self) -> str:
        return " ".join(str(letter) for letter in self.letters)

    @classmethod
    def from_string(cls, text: str) -> "OrderPrefix":
        return cls(tuple(LabeledLetter.parse(tok) for tok in text.split()))


def label_uniformly(path: list[str], rng: random.Random) -> list[OrderPrefix]:
    """Subscript the letters of a bridge path by insertion step.

    The pair of letters that step k added is identifiable only up to the
    embeddings of U_{k-1} in U_k, and conditionally on the word path each
    of those insertion pairs is equally likely, so one is chosen uniformly.
    The resulting prefixes unlabel to the path states, and removing a_k and
    b_k from the level-k prefix gives the level-(k-1) prefix exactly.
    """
    if not path or path[0] != "":
        raise WordchainError("a bridge path must start at the empty word")
    for k, w in enumerate(path):
        if word_size(w) != k:
            raise SizeMismatchError(f"path state {k} has size {word_size(w)}, expected {k}")
    prefixes = [OrderPrefix(())]
    tokens: list[LabeledLetter] = []
    for k, (prev, cur) in enumerate(zip(path, path[1:]), start=1):
        # the (a_pos, b_pos) of cur whose deletion leaves prev, sorted
        los, firsts, ends = _deletion_ranges(cur, prev)
        pairs = sorted((lo, hi) if cur[lo] == "a" else (hi, lo)
                       for lo, first, end in zip(los, firsts, ends) for hi in range(first, end))
        if not pairs:
            raise WordchainError(f"{prev!r} is not a subword of its successor {cur!r}")
        a_pos, b_pos = pairs[rng.randrange(len(pairs))]
        for pos in sorted((a_pos, b_pos)):
            tokens.insert(pos, LabeledLetter(cur[pos], k))
        prefixes.append(OrderPrefix(tuple(tokens)))
    return prefixes


@dataclass(frozen=True)
class OrderRun:
    """One realization of latent letter values down to some depth.

    a_i carries values_a[i-1] and b_j carries values_b[j-1]; the induced
    order compares values.  Finite-depth fractions computed from a run are
    the estimators of d and f for that run.
    """

    values_a: tuple[float, ...]
    values_b: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.values_a)

    def value(self, letter: LabeledLetter) -> float:
        return (self.values_a if letter.kind == "a" else self.values_b)[letter.index - 1]

    def prefix(self, n: int | None = None) -> OrderPrefix:
        """The order of a_1..a_n and b_1..b_n (default: the whole run)."""
        n = self.depth if n is None else operator.index(n)
        if not 0 <= n <= self.depth:
            raise IndexError(f"step {n} is outside 0..{self.depth}")
        tagged = [(self.values_a[i], LabeledLetter("a", i + 1)) for i in range(n)]
        tagged += [(self.values_b[j], LabeledLetter("b", j + 1)) for j in range(n)]
        tagged.sort()
        return OrderPrefix(tuple(letter for _, letter in tagged))

    def d_hat(self, x: LabeledLetter, y: LabeledLetter) -> float:
        """Fraction of letters strictly between x and y (symmetrized)."""
        lo, hi = sorted((self.value(x), self.value(y)))
        return self._share_between(lo, hi)

    def f_hat(self, x: LabeledLetter) -> float:
        """Fraction of letters strictly below x."""
        return self._share_between(-math.inf, self.value(x))

    def _share_between(self, lo: float, hi: float) -> float:
        """Fraction of the run's letters whose values lie strictly between lo and hi."""
        inside = len([v for v in self.values_a if lo < v < hi])
        inside += len([v for v in self.values_b if lo < v < hi])
        return inside / (2 * self.depth)


class OrderSampler:
    """Generates independent order runs from a pair of diffuse sources.

    A run draws its a-values, then its b-values, each source in one batch.
    """

    def __init__(self, a_source, b_source, rng: random.Random):
        for source in (a_source, b_source):
            _check_kind(source, (StepMeasure, Exponential), "a step or exponential measure")
        self.a_source = a_source
        self.b_source = b_source
        self.rng = rng
        self._draw_a = a_source.drawer(rng)
        self._draw_b = b_source.drawer(rng)

    @classmethod
    def from_pair(cls, pair: DiffusePair, rng: random.Random) -> "OrderSampler":
        _check_kind(pair, DiffusePair, "a diffuse pair")
        return cls(pair.mu, pair.nu, rng)

    def run(self, depth: int) -> OrderRun:
        """``depth`` a-values, then ``depth`` b-values, all distinct (see `_distinct_run`);
        ``depth`` is a count."""
        depth = check_count(depth, "depth")
        values_a, values_b = _distinct_run(self._draw_a, self._draw_b, depth)
        return OrderRun(tuple(values_a), tuple(values_b))


def _require_depth(depth: int, *letters: LabeledLetter) -> int:
    """``depth`` as a count no smaller than any of the letters' indices."""
    depth = check_count(depth, "depth", 1)
    need = max(letter.index for letter in letters)
    if depth < need:
        raise WordchainError(
            f"depth {format_fraction(depth)} is below the largest letter index {format_fraction(need)}"
        )
    return depth


def d_samples(
    sampler: OrderSampler, x: LabeledLetter, y: LabeledLetter, depth: int, trials: int
) -> list[float]:
    """Per-run values of the order metric d(x, y) at finite depth.

    In each run, d is the fraction of the first `depth` letters of each
    kind lying strictly between x and y.  d(x, x) is 0 in every run and
    needs no sampling, but its depth is checked all the same.  `depth` and
    `trials` are counts.
    """
    depth = _require_depth(depth, x, y)
    trials = check_count(trials, "trials")
    if x == y:
        return [0.0] * trials
    run = sampler.run
    return [run(depth).d_hat(x, y) for _ in range(trials)]


def f_samples(sampler: OrderSampler, x: LabeledLetter, depth: int, trials: int) -> list[float]:
    """Per-run values of the embedding f(x): the fraction of the first
    `depth` letters of each kind lying strictly below x.  `depth` and
    `trials` are counts.
    """
    depth = _require_depth(depth, x)
    trials = check_count(trials, "trials")
    run = sampler.run
    return [run(depth).f_hat(x) for _ in range(trials)]


def moment_samples(sampler: OrderSampler, n: int, trials: int) -> list[tuple[float, float]]:
    """Per-run plug-in values of the n-th moments of the canonical pair (mu, nu).

    The n-th mu-moment is (1/2)^n times the sum over the 2^n choices
    c_k in {a_k, b_k} of P{c_1 < a_{n+1}, ..., c_n < a_{n+1}} in the order;
    the sum of indicator products factorizes per run as
    prod_k (1{a_k < a_{n+1}} + 1{b_k < a_{n+1}}), which is what each run
    evaluates.  The nu-moment replaces the target by b_{n+1}.  Because the
    formula only involves order events, any source pair generating the
    order yields the moments of its canonical pair.  Returns one
    (mu, nu) pair per run.  n and `trials` are counts, n at least 1.
    """
    n = check_count(n, "moment order", 1)
    trials = check_count(trials, "trials")
    if n > MOMENT_ORDER_CAP:
        raise WordchainError(f"moment order must be between 1 and {MOMENT_ORDER_CAP}")
    half_n = 0.5**n
    # Both products lie in 0..2^n, so the runs share (2^n + 1)^2 value pairs;
    # reusing those tuples keeps each sample at one list slot.
    values = [
        [(half_n * mu_prod, half_n * nu_prod) for nu_prod in range(2**n + 1)]
        for mu_prod in range(2**n + 1)
    ]
    rows = _value_rows(
        sampler.a_source.quantiles, sampler.b_source.quantiles, sampler.rng, n + 1, trials,
        distinct=True,
    )
    out = []
    for va, vb in rows:
        target_a, target_b = va[n], vb[n]
        mu_prod = nu_prod = 1
        for k in range(n):
            mu_prod *= (va[k] < target_a) + (vb[k] < target_a)
            nu_prod *= (va[k] < target_b) + (vb[k] < target_b)
        out.append(values[mu_prod][nu_prod])
    return out


def estimate_d(
    sampler: OrderSampler, x: LabeledLetter, y: LabeledLetter, depth: int, trials: int
) -> MCEstimate:
    """Monte Carlo estimate of the order metric d(x, y); d(x, x) is exactly 0."""
    return MCEstimate.from_samples(d_samples(sampler, x, y, depth, trials))


def estimate_f(sampler: OrderSampler, x: LabeledLetter, depth: int, trials: int) -> MCEstimate:
    """Monte Carlo estimate of the embedding value f(x) in [0, 1]."""
    return MCEstimate.from_samples(f_samples(sampler, x, depth, trials))


def moment_estimate(
    sampler: OrderSampler, n: int, trials: int
) -> tuple[MCEstimate, MCEstimate]:
    """Estimates of the n-th moments of (mu, nu); see `moment_samples`."""
    return split_moments(moment_samples(sampler, n, trials))


def split_moments(samples: Sequence[tuple[float, float]]) -> tuple[MCEstimate, MCEstimate]:
    """The mu and nu estimates of per-run (mu, nu) moment samples.

    The samples may come from one sampler or from replicas joined in order.
    """
    mu, nu = (MCEstimate.from_samples([sample[k] for sample in samples]) for k in (0, 1))
    return mu, nu
