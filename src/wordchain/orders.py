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

import random
from dataclasses import dataclass

from .measures import Exponential, MCEstimate, MeasurePair, StepMeasure
from .words import delete_pair, letter_positions

MOMENT_ORDER_CAP = 4


@dataclass(frozen=True, order=True)
class LabeledLetter:
    """One letter a_i or b_j of the infinite alphabet."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise ValueError(f"kind must be 'a' or 'b', got {self.kind!r}")
        if self.index < 1:
            raise ValueError("letter indices start at 1")

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    @classmethod
    def parse(cls, token: str) -> "LabeledLetter":
        """Parse a token such as "a3" or "b12"."""
        digits = token[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"expected a labeled letter such as a1, got {token!r}")
        return cls(token[0], int(digits))


@dataclass(frozen=True)
class OrderPrefix:
    """A total order on {a1, b1, ..., an, bn}, written as a labeled word."""

    letters: tuple[LabeledLetter, ...]

    def __post_init__(self):
        if len(self.letters) % 2:
            raise ValueError("an order prefix has even length")
        n = len(self.letters) // 2
        expected = {LabeledLetter(k, i) for k in "ab" for i in range(1, n + 1)}
        if set(self.letters) != expected:
            raise ValueError(f"prefix must use each of a1..a{n}, b1..b{n} exactly once")

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
    from .bridges import check_bridge_path

    check_bridge_path(path)
    prefixes = [OrderPrefix(())]
    tokens: list[LabeledLetter] = []
    for k, (prev, cur) in enumerate(zip(path, path[1:]), start=1):
        pairs = [
            (i, j)
            for i in letter_positions(cur, "a")
            for j in letter_positions(cur, "b")
            if delete_pair(cur, i, j) == prev
        ]
        a_pos, b_pos = pairs[rng.randrange(len(pairs))]
        old = iter(tokens)
        tokens = [
            LabeledLetter("a", k) if pos == a_pos
            else LabeledLetter("b", k) if pos == b_pos
            else next(old)
            for pos in range(len(cur))
        ]
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
        seq = self.values_a if letter.kind == "a" else self.values_b
        return seq[letter.index - 1]

    def prefix(self, n: int | None = None) -> OrderPrefix:
        n = self.depth if n is None else n
        tagged = [(self.values_a[i], LabeledLetter("a", i + 1)) for i in range(n)]
        tagged += [(self.values_b[j], LabeledLetter("b", j + 1)) for j in range(n)]
        tagged.sort()
        return OrderPrefix(tuple(letter for _, letter in tagged))

    def d_hat(self, x: LabeledLetter, y: LabeledLetter) -> float:
        """Fraction of letters strictly between x and y (symmetrized)."""
        if x == y:
            return 0.0
        lo, hi = sorted((self.value(x), self.value(y)))
        inside_a = sum(1 for v in self.values_a if lo < v < hi)
        inside_b = sum(1 for v in self.values_b if lo < v < hi)
        return (inside_a + inside_b) / (2 * self.depth)

    def f_hat(self, x: LabeledLetter) -> float:
        """Fraction of letters strictly below x."""
        vx = self.value(x)
        below_a = sum(1 for v in self.values_a if v < vx)
        below_b = sum(1 for v in self.values_b if v < vx)
        return (below_a + below_b) / (2 * self.depth)


class OrderSampler:
    """Generates independent order runs from a pair of diffuse sources."""

    def __init__(self, a_source, b_source, rng: random.Random):
        for source in (a_source, b_source):
            if not isinstance(source, (StepMeasure, Exponential)):
                raise TypeError(
                    "order sources must be diffuse (step or exponential) measures"
                )
        self.a_source = a_source
        self.b_source = b_source
        self.rng = rng

    @classmethod
    def from_pair(cls, pair: MeasurePair, rng: random.Random) -> "OrderSampler":
        return cls(pair.mu, pair.nu, rng)

    @classmethod
    def from_bridge(cls, bridge) -> "OrderSampler":
        """Reads the measure pair and generator off an infinite bridge."""
        return cls.from_pair(bridge.pair, bridge.rng)

    def run(self, depth: int) -> OrderRun:
        seen: set[float] = set()
        rng = self.rng

        def draws(sample) -> tuple[float, ...]:
            values: list[float] = []
            while len(values) < depth:
                v = sample(rng)
                if v not in seen:  # ties have probability zero; guard float collisions
                    seen.add(v)
                    values.append(v)
            return tuple(values)

        values_a = draws(self.a_source.sample)
        values_b = draws(self.b_source.sample)
        return OrderRun(values_a, values_b)


def _require_depth(depth: int, *letters: LabeledLetter) -> None:
    need = max(letter.index for letter in letters)
    if depth < need:
        raise ValueError(f"depth {depth} is below the largest letter index {need}")


def d_samples(
    sampler: OrderSampler, x: LabeledLetter, y: LabeledLetter, depth: int, trials: int
) -> list[float]:
    """Per-run values of the order metric d(x, y) at finite depth.

    In each run, d is the fraction of the first `depth` letters of each
    kind lying strictly between x and y.  d(x, x) is 0 in every run and
    needs no sampling.
    """
    if x == y:
        return [0.0] * trials
    _require_depth(depth, x, y)
    return [sampler.run(depth).d_hat(x, y) for _ in range(trials)]


def f_samples(sampler: OrderSampler, x: LabeledLetter, depth: int, trials: int) -> list[float]:
    """Per-run values of the embedding f(x): the fraction of the first
    `depth` letters of each kind lying strictly below x.
    """
    _require_depth(depth, x)
    return [sampler.run(depth).f_hat(x) for _ in range(trials)]


def moment_samples(sampler: OrderSampler, n: int, trials: int) -> list[tuple[float, float]]:
    """Per-run plug-in values of the n-th moments of the canonical pair (mu, nu).

    The n-th mu-moment is (1/2)^n times the sum over the 2^n choices
    c_k in {a_k, b_k} of P{c_1 < a_{n+1}, ..., c_n < a_{n+1}} in the order;
    the sum of indicator products factorizes per run as
    prod_k (1{a_k < a_{n+1}} + 1{b_k < a_{n+1}}), which is what each run
    evaluates.  The nu-moment replaces the target by b_{n+1}.  Because the
    formula only involves order events, any source pair generating the
    order yields the moments of its canonical pair.  Returns one
    (mu, nu) pair per run.
    """
    if not 1 <= n <= MOMENT_ORDER_CAP:
        raise ValueError(f"moment order must be between 1 and {MOMENT_ORDER_CAP}")
    half_n = 0.5**n
    # Both products lie in 0..2^n, so the runs share (2^n + 1)^2 value pairs;
    # reusing those tuples keeps each sample at one list slot.
    values = [
        [(half_n * mu_prod, half_n * nu_prod) for nu_prod in range(2**n + 1)]
        for mu_prod in range(2**n + 1)
    ]
    out = []
    for _ in range(trials):
        run = sampler.run(n + 1)
        va, vb = run.values_a, run.values_b
        mu_prod = nu_prod = 1
        for k in range(n):
            mu_prod *= (va[k] < va[n]) + (vb[k] < va[n])
            nu_prod *= (va[k] < vb[n]) + (vb[k] < vb[n])
        out.append(values[mu_prod][nu_prod])
    return out


def estimate_d(
    sampler: OrderSampler, x: LabeledLetter, y: LabeledLetter, depth: int, trials: int
) -> MCEstimate:
    """Monte Carlo estimate of the order metric d(x, y); d(x, x) is exactly 0."""
    if x == y:
        return MCEstimate(0.0, 0.0, 0)
    return MCEstimate.from_samples(d_samples(sampler, x, y, depth, trials))


def estimate_f(sampler: OrderSampler, x: LabeledLetter, depth: int, trials: int) -> MCEstimate:
    """Monte Carlo estimate of the embedding value f(x) in [0, 1]."""
    return MCEstimate.from_samples(f_samples(sampler, x, depth, trials))


def moment_estimate(
    sampler: OrderSampler, n: int, trials: int
) -> tuple[MCEstimate, MCEstimate]:
    """Estimates of the n-th moments of (mu, nu); see `moment_samples`."""
    samples = moment_samples(sampler, n, trials)
    return (
        MCEstimate.from_samples([mu for mu, _ in samples]),
        MCEstimate.from_samples([nu for _, nu in samples]),
    )
