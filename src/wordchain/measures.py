"""Probability measures on [0,1] and exact interleaving-pattern probabilities.

The diffuse measures are ``StepMeasure`` (piecewise-constant density with
rational breakpoints, closed under canonicalization and amenable to exact
dynamic programming) and ``Exponential``.

A ``CanonicalPair`` (mu, nu) of step measures satisfies the constraint that
the mixture (mu + nu)/2 is Lebesgue measure, i.e. the densities add to 2 on
every cell.  A ``RatePair`` is the pair Exp(alpha)/Exp(beta), and an
``AtomicPair`` the empirical pair of a word, stored as the word itself: its
atoms are the letter positions.  ``pattern_probs`` computes
the probability that m draws from mu and m draws from nu interleave as
each of a list of balanced words, for each kind of pair; the harmonic
function, the h-transform and the boundary report read a pair only
through it.
"""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
import operator
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Sequence, Union

from .errors import CapExceededError, SizeMismatchError, WordchainError
from .words import check_balanced, check_count, enumerate_balanced, subword_count, word_size
from .words import letter_positions

STEP_PATTERN_CAP = 6
EXPONENT_CAP = 100_000  # 1e100000 reads in ms; the cost grows faster than the exponent


def parse_fraction(text: str, field: str = "value") -> Fraction:
    """Parse "p/q" or "p", in Fraction(str)'s grammar, into an exact rational; `field`
    names it in errors.  Decimal reads the digits, so no int-to-str digit limit applies,
    and a nonzero value's decimal exponent may not pass +-EXPONENT_CAP."""
    if not isinstance(text, str):
        raise WordchainError(f'{field} must be a string such as "1/2", got {text!r}')
    # "p/q", or a decimal with an optional exponent, with optional _ between digits
    literal = r"\s*[-+]?(?=\.?\d)(\d+(_\d+)*)?(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?(e[-+]?\d+(_\d+)*)?)\s*"
    if not re.fullmatch(literal, text, re.IGNORECASE):
        raise WordchainError(f"Invalid literal for Fraction: {text!r}")
    num, _, den = text.partition("/")
    try:
        num = decimal.Decimal(num)
    except decimal.InvalidOperation:  # an exponent past Decimal's own range
        num = None
    if num is None or (num and abs(num.as_tuple().exponent) > EXPONENT_CAP):
        raise CapExceededError(f"{field} {text!r}: decimal exponent exceeds cap {EXPONENT_CAP}")
    if den and not decimal.Decimal(den):
        raise WordchainError(f"zero denominator in {text!r}")
    return Fraction(num) / Fraction(decimal.Decimal(den or 1))


def check_rational(x, field: str = "value") -> Fraction:
    """`x` as an exact Fraction; `field` names it in errors.

    A str is read by `parse_fraction`, in the CLI's grammar and under
    EXPONENT_CAP.  A float or Decimal must be finite, and a Decimal is read
    as its string, so its exponent is capped as a string's is.  Anything
    else goes to Fraction(x): an int or a Fraction, and TypeError for a
    non-number.
    """
    if isinstance(x, str):
        return parse_fraction(x, field)
    if isinstance(x, (float, decimal.Decimal)) and not decimal.Decimal(x).is_finite():
        raise WordchainError(f"{field} must be finite, got {x!r}")
    if isinstance(x, decimal.Decimal):
        return parse_fraction(str(x), field)
    return Fraction(x)


def _check_kind(value, kind, name: str) -> None:
    """TypeError "need {name}, not {type}" unless `value` is an instance of `kind`
    (a class, a tuple or a Union of classes)."""
    if not isinstance(value, kind):
        raise TypeError(f"need {name}, not {type(value).__name__}")


def format_fraction(x: Fraction) -> str:
    """str(x) in full at any size: Decimal prints an int exactly, without the
    interpreter's int-to-str digit limit, so no process-wide setting is touched."""
    x = Fraction(x)
    text = str(decimal.Decimal(x.numerator))
    return text if x.denominator == 1 else f"{text}/{decimal.Decimal(x.denominator)}"


def _scaled(xs, den: int) -> list[int]:
    """The rationals xs as integers over den (a multiple of every denominator)."""
    return [x.numerator * (den // x.denominator) for x in xs]


@dataclass(frozen=True)
class StepMeasure:
    """Diffuse probability measure with piecewise-constant density.

    ``breakpoints`` are strictly increasing rationals; ``densities[k]`` is
    the constant density on (breakpoints[k], breakpoints[k+1]).  The cell
    masses must add to exactly 1.  Each value goes through `check_rational`.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(check_rational(b, "breakpoint") for b in self.breakpoints)
        dens = tuple(check_rational(d, "density") for d in self.densities)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)
        if len(bps) < 2 or len(dens) != len(bps) - 1:
            raise WordchainError("need K+1 breakpoints for K densities, K >= 1")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise WordchainError("breakpoints must be strictly increasing")
        if any(d < 0 for d in dens):
            raise WordchainError("densities must be nonnegative")
        den, cum, _ = self._cdf_table
        if cum[-1] != den:
            raise WordchainError(f"total mass is {format_fraction(Fraction(cum[-1], den))}, expected 1")

    @classmethod
    def lebesgue(cls) -> "StepMeasure":
        return cls((Fraction(0), Fraction(1)), (Fraction(1),))

    @classmethod
    def uniform_on(cls, lo, hi) -> "StepMeasure":
        """The uniform law on [lo, hi], for rationals lo < hi."""
        lo, hi = check_rational(lo, "lo"), check_rational(hi, "hi")
        if hi <= lo:
            bounds = f"[{format_fraction(lo)}, {format_fraction(hi)}]"
            raise WordchainError(f"uniform_on needs lo < hi, got {bounds}")
        return cls((lo, hi), (1 / (hi - lo),))

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def cell_masses(self) -> tuple[Fraction, ...]:
        return tuple(
            d * (b2 - b1)
            for d, b1, b2 in zip(self.densities, self.breakpoints, self.breakpoints[1:])
        )

    @cached_property
    def _cdf_table(self) -> tuple[int, list[int], list[int]]:
        """(E, cum, dens): the CDF at breakpoint k is cum[k] / E, density k is dens[k] / E."""
        masses = self.cell_masses()
        den = math.lcm(*(x.denominator for x in masses + self.densities))
        return (
            den,
            list(itertools.accumulate(_scaled(masses, den), initial=0)),
            _scaled(self.densities, den),
        )

    def cdf(self, x) -> Fraction:
        """Exact CDF at a rational point (see `check_rational`)."""
        x = check_rational(x, "x")
        bps = self.breakpoints
        if x <= bps[0]:
            return Fraction(0)
        if x >= bps[-1]:
            return Fraction(1)
        den, cum, dens = self._cdf_table
        k = bisect.bisect_right(bps, x) - 1
        return (cum[k] + dens[k] * (x - bps[k])) / den

    def moment(self, n: int) -> Fraction:
        """Exact n-th moment, for a count n: integral of x^n against the measure."""
        n = check_count(n, "moment order")
        return sum(
            (
                d * (b2 ** (n + 1) - b1 ** (n + 1)) / (n + 1)
                for d, b1, b2 in zip(self.densities, self.breakpoints, self.breakpoints[1:])
            ),
            Fraction(0),
        )

    def refine(self, points) -> "StepMeasure":
        """Same measure re-expressed on a grid holding the rational `points`; points off the
        support are ignored."""
        lo, hi = self.support
        points = (check_rational(p, "point") for p in points)
        grid = sorted(set(self.breakpoints).union(p for p in points if lo < p < hi))
        return StepMeasure(tuple(grid), tuple(_densities_on(self, grid)))

    @property
    def quantiles(self) -> Callable[[Iterable[float]], list[float]]:
        """The inverse-CDF map from uniforms to draws, built on each access.

        A u falls in the last positive-density cell whose float CDF at its
        left end is at most u, and maps linearly into that cell.  The search
        skips the first cell's start, so u = 0 lands in the first cell, and
        a u past the float total mass stays in the last one.  The cell is
        found by a comparison tree up to _TREE_LEAVES cells (see
        `_step_map_factory`) and by one bisection past that.
        """
        den, cum, dens = self._cdf_table
        cells = [k for k, d in enumerate(dens) if d]
        L = [float(self.breakpoints[k]) for k in cells]
        C = [cum[k] / den for k in cells]
        D = [dens[k] / den for k in cells]
        size = len(cells)
        if size <= _TREE_LEAVES:
            return _step_map_factory(size)(*itertools.chain.from_iterable(zip(L, C, D)))
        bisect_right = bisect.bisect_right
        return lambda us: [L[(k := bisect_right(C, u, 1, size) - 1)] + (u - C[k]) / D[k] for u in us]

    def drawer(self, rng: random.Random) -> Callable[[int], list[float]]:
        """draw(k): k draws, one rng.random() each, in one call."""
        return _drawer(self.quantiles, rng.random)

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_fraction(b) for b in self.breakpoints],
            "densities": [format_fraction(d) for d in self.densities],
        }

    @classmethod
    def from_json(cls, data: dict, field: str = "measure") -> "StepMeasure":
        keys = ("breakpoints", "densities")
        if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in keys)):
            raise WordchainError(f"{field} must hold lists of breakpoints and densities")
        return cls(*(
            tuple(parse_fraction(v, f"{field}.{k}[{i}]") for i, v in enumerate(data[k]))
            for k in keys
        ))


def _densities_on(measure: StepMeasure, grid: Sequence[Fraction]) -> list[Fraction]:
    """The density of ``measure`` on each cell of ``grid``, a sorted grid holding every
    breakpoint of it that lies within the grid: one bisection of its breakpoints per
    cell, and zero off its support."""
    bps, dens = measure.breakpoints, measure.densities
    lo, hi = measure.support
    zero, bisect_right = Fraction(0), bisect.bisect_right
    return [dens[bisect_right(bps, b) - 1] if lo <= b < hi else zero for b in grid[:-1]]


@dataclass(frozen=True)
class Exponential:
    """Exponential law on [0, infinity) with a positive rational rate (see `check_rational`)."""

    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", check_rational(self.rate, "rate"))
        if not sys.float_info.min <= self.rate <= sys.float_info.max:
            raise WordchainError(
                f"rate must lie in the normal float range "
                f"[{sys.float_info.min:.2g}, {sys.float_info.max:.2g}]"
            )

    @property
    def quantiles(self) -> Callable[[Iterable[float]], list[float]]:
        """The map from uniforms to draws of ``rng.expovariate(float(rate))``, whose body it is."""
        log, rate = math.log, float(self.rate)
        return lambda us: [-log(1.0 - u) / rate for u in us]

    def drawer(self, rng: random.Random) -> Callable[[int], list[float]]:
        """draw(k): k draws, one rng.random() each, in one call."""
        return _drawer(self.quantiles, rng.random)


_TREE_LEAVES = 64  # past this many cells one bisection maps u, so at most 64 trees are compiled


@cache
def _step_map_factory(size: int) -> Callable[..., Callable]:
    """make(L0, C0, D0, L1, ...): the step quantile map of ``size`` cells, each with
    its left end Lk, start Ck and density Dk.

    A u maps to Lk + (u - Ck) / Dk for the last cell k whose start Ck is at
    most u, with k = 0 whatever C0 is.  The map is compiled once per cell
    count: a tree of comparisons ``u < C{mid}`` (true exactly when
    ``bisect_right`` would step left at C[mid]) picks the cell, so it finds
    the cell ``bisect_right(C, u, 1, size) - 1`` finds, for u = 0, a u past
    the float total mass and equal starts alike.  The source names only
    indices, and the values come in as arguments.
    """
    def tree(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return f"L{lo} + (u - C{lo}) / D{lo}"
        mid = (lo + hi) // 2
        return f"({tree(lo, mid)}) if u < C{mid} else ({tree(mid, hi)})"

    names = ", ".join(f"L{k}, C{k}, D{k}" for k in range(size))
    return eval(f"lambda {names}: lambda us: [{tree(0, size)} for u in us]", {})


def _uniforms(random_, k: int) -> Iterable:
    """k calls of random_(), in order, made by one C-level loop as the iterator is read."""
    return itertools.starmap(random_, itertools.repeat((), k))


def _drawer(quantiles, random_) -> Callable[[int], list]:
    """draw(k): the values of k uniforms from random_(), read in order, under ``quantiles``.

    Every draw of the package reads exactly one uniform, so k draws are k
    calls of random_() whichever way they are grouped.
    """
    return lambda k: quantiles(_uniforms(random_, k))


def _redraw_repeats(draw, values: list[float], depth: int, seen: set) -> list[float]:
    """``depth`` values not in ``seen``: the batch ``values``, then further draws.

    This is the rule of one draw at a time: a value already seen is
    skipped and drawn again, and each kept value joins ``seen``.  While k
    values are missing that rule makes at least k more draws, so the batch
    draw(k) holds exactly its next k draws, and the generator ends where
    single draws leave it.
    """
    kept: list[float] = []
    while True:
        for v in values:
            if v not in seen:
                seen.add(v)
                kept.append(v)
        if len(kept) == depth:
            return kept
        values = draw(depth - len(kept))


def _distinct_run(draw_a, draw_b, depth: int) -> tuple[list[float], list[float]]:
    """``depth`` a-values, then ``depth`` b-values, all 2 * depth distinct.

    Each side draws its values in one batch; only a batch holding a repeat
    (for a diffuse source only a float collision) is replayed by
    `_redraw_repeats`.
    """
    values_a = draw_a(depth)
    seen = set(values_a)
    if len(seen) < depth:
        seen = set()
        values_a = _redraw_repeats(draw_a, values_a, depth, seen)
    values_b = draw_b(depth)
    seen.update(values_b)
    if len(seen) < 2 * depth:
        values_b = _redraw_repeats(draw_b, values_b, depth, set(values_a))
    return values_a, values_b


_VALUE_BLOCK = 512  # runs per block of uniforms; a block of depth-5 runs holds 5,120 floats


def _value_rows(q_a, q_b, rng: random.Random, k: int, trials: int, distinct: bool = False):
    """Per-run (a-values, b-values) of ``trials`` runs of k >= 1 values a side.

    Run t reads the uniforms that draw_a(k) then draw_b(k) would give it:
    the runs of a block of _VALUE_BLOCK draw their 2k uniforms each in one
    call, and the i-th a-values (b-values) of the block are one slice of
    them under q_a (q_b).  With ``distinct``, the first run of a block
    holding a repeat and the rest of that block are replayed one run at a
    time by `_distinct_run`, which reads the block's unused uniforms and
    then the generator, so the generator ends where runs drawn one at a
    time leave it.
    """
    random_, width = rng.random, 2 * k
    for start in range(0, trials, _VALUE_BLOCK):
        size = min(_VALUE_BLOCK, trials - start)
        us = list(_uniforms(random_, width * size))
        rows = zip(
            zip(*[q_a(us[i::width]) for i in range(k)]),
            zip(*[q_b(us[i::width]) for i in range(k, width)]),
        )
        if not distinct:
            yield from rows
            continue
        for t, (xs, ys) in enumerate(rows):
            if len(set(xs + ys)) < width:
                uniforms = itertools.chain(us[t * width:], iter(random_, None)).__next__
                draw_a, draw_b = _drawer(q_a, uniforms), _drawer(q_b, uniforms)
                for _ in range(t, size):
                    yield _distinct_run(draw_a, draw_b, k)
                break
            yield xs, ys


@dataclass(frozen=True)
class CanonicalPair:
    """Pair (mu, nu) of step measures whose average is Lebesgue on [0,1].

    Both components are stored on their common breakpoint refinement; on
    every cell the two densities add to exactly 2.
    """

    mu: StepMeasure
    nu: StepMeasure

    def __post_init__(self):
        for side in (self.mu, self.nu):
            _check_kind(side, StepMeasure, "a step measure")
        if self.mu.support != self.nu.support:
            raise WordchainError("mu and nu must live on a common support")
        if self.mu.support != (Fraction(0), Fraction(1)):
            raise WordchainError("canonical pairs live on [0, 1]")
        grid = tuple(sorted(set(self.mu.breakpoints) | set(self.nu.breakpoints)))
        mu, nu = (m if m.breakpoints == grid else m.refine(grid) for m in (self.mu, self.nu))
        for k, (dm, dn) in enumerate(zip(mu.densities, nu.densities)):
            if dm + dn != 2:
                raise WordchainError(
                    f"densities on cell {k} add to {format_fraction(dm + dn)}, expected 2 "
                    "(the average of the pair must be Lebesgue measure)"
                )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    @classmethod
    @cache
    def lebesgue(cls) -> "CanonicalPair":
        """The pair of the base chain; pairs are immutable, so one instance serves every call."""
        return cls(StepMeasure.lebesgue(), StepMeasure.lebesgue())

    @classmethod
    def from_mu(cls, mu: StepMeasure) -> "CanonicalPair":
        """Complete mu (with mu <= 2*Lebesgue on [0,1]) to a canonical pair."""
        _check_kind(mu, StepMeasure, "a step measure")
        nu = StepMeasure(mu.breakpoints, tuple(2 - d for d in mu.densities))
        return cls(mu, nu)

    def to_json(self) -> dict:
        return {"mu": self.mu.to_json(), "nu": self.nu.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CanonicalPair":
        """The pair of an object with keys mu and nu; other keys are ignored."""
        if not isinstance(data, dict):
            raise WordchainError("a pair must be an object with keys mu and nu")
        return cls(
            StepMeasure.from_json(data.get("mu"), "mu"),
            StepMeasure.from_json(data.get("nu"), "nu"),
        )


@dataclass(frozen=True)
class AtomicPair:
    """Empirical measures reading the letter positions of a balanced word.

    For a word y of size N, mu places mass 1/N at l/(2N) for every
    a-position l (1-based), nu likewise at b-positions; their average is
    uniform on the grid {l/(2N)}.
    """

    word: str

    def __post_init__(self):
        check_balanced(self.word)
        if not self.word:
            raise WordchainError("the empty word carries no empirical measures")

    @property
    def size(self) -> int:
        return len(self.word) // 2

    def quantiles(self, letter: str) -> Callable[[Iterable[float]], list[int]]:
        """The map from uniforms to draws of mu (letter a) or nu (letter b).

        A draw is the 1-based position l of the atom l/(2N), which orders and
        ties as the atom does.  The float CDF of the k-th atom of either letter
        is k / N; a u picks the first atom whose CDF exceeds u, and the
        bisection stops at the last atom, so a u past the float total mass
        picks it.
        """
        if letter not in ("a", "b"):
            raise WordchainError(f"letter must be 'a' or 'b', got {letter!r}")
        n = self.size
        ends = [k / n for k in range(1, n + 1)]
        pos = [i + 1 for i in letter_positions(self.word, letter)]
        bisect_right = bisect.bisect_right
        return lambda us: [pos[bisect_right(ends, u, 0, n - 1)] for u in us]

    def drawers(self, rng: random.Random) -> tuple[Callable[[int], list[int]], ...]:
        """(draw_mu, draw_nu): draw(k) gives k draws, one rng.random() each, in one call."""
        return _drawer(self.quantiles("a"), rng.random), _drawer(self.quantiles("b"), rng.random)


@dataclass(frozen=True)
class RatePair:
    """The pair Exp(alpha)/Exp(beta) with positive rational rates (see `check_rational`).

    Its pattern law ``pl_word_prob`` takes any positive rational rate; mu
    and nu are built only when read, since draws need normal-range floats.
    """

    alpha: Fraction
    beta: Fraction
    mu = property(lambda self: Exponential(self.alpha))
    nu = property(lambda self: Exponential(self.beta))

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_rational(self.alpha, "alpha"))
        object.__setattr__(self, "beta", check_rational(self.beta, "beta"))
        if self.alpha <= 0 or self.beta <= 0:
            raise WordchainError("rates must be positive")


def _scaled_rates(rates: RatePair) -> tuple[int, int]:
    """(alpha * qs, beta * qs) = (ps, rq) for alpha = p/q and beta = r/s."""
    _check_kind(rates, RatePair, "a rate pair")
    p, q = rates.alpha.as_integer_ratio()
    r, s = rates.beta.as_integer_ratio()
    return p * s, r * q


def _suffix_factors(ps: int, rq: int, u: str) -> list[int]:
    """The integers A_i ps + B_i rq, i = 1..|u|, for A_i a's and B_i b's in u's last i letters.

    They are the running sums over u read backward of ps for an a and rq
    for a b; the caller has checked u.
    """
    return list(itertools.accumulate(map({"a": ps, "b": rq}.__getitem__, reversed(u))))


def _product(factors: list[int]) -> int:
    """The product of a list of integers (which it may extend), pairwise in a balanced tree.

    A left fold multiplies an ever longer product by one short factor at
    each step, quadratic in the product's size, while the tree's rounds
    multiply operands of equal sizes.
    """
    while len(factors) > 1:
        if len(factors) % 2:
            factors.append(1)
        factors = list(map(operator.mul, factors[::2], factors[1::2]))
    return math.prod(factors)


def _suffix_product(ps: int, rq: int, u: str) -> int:
    """prod_i (A_i alpha + B_i beta) * (qs)^|u|, the product of u's _suffix_factors."""
    return _product(_suffix_factors(ps, rq, u))


def pl_word_prob(rates: RatePair, u: str) -> Fraction:
    """P{word at step n equals u} = (n!)^2 alpha^n beta^n / prod_i (A_i alpha + B_i beta).

    Sums to 1 over W_n; for equal rates every word gets 1 / C(2n, n).
    """
    n = word_size(u)
    ps, rq = _scaled_rates(rates)
    return Fraction(math.factorial(n) ** 2 * (ps * rq) ** n, _suffix_product(ps, rq, u))


MeasurePair = Union[CanonicalPair, AtomicPair, RatePair]
DiffusePair = Union[CanonicalPair, RatePair]


def empirical_pair(y: str) -> AtomicPair:
    """The atomic pair encoding a-positions and b-positions of y."""
    return AtomicPair(y)


def interleave_pattern(xs, ys) -> str | None:
    """Sort the union of xs (a-points) and ys (b-points) and read the letters.

    Tied values have no pattern, and give None.
    """
    tagged = [(x, "a") for x in xs] + [(y, "b") for y in ys]
    tagged.sort()
    if len({v for v, _ in tagged}) < len(tagged):
        return None
    return "".join([t for _, t in tagged])


def _integer_masses(pair: CanonicalPair) -> tuple[int, list[int], list[int]]:
    """(D, P, Q): the cell masses of mu and nu as P_k / D and Q_k / D."""
    mu_masses, nu_masses = pair.mu.cell_masses(), pair.nu.cell_masses()
    den = math.lcm(*(x.denominator for x in mu_masses + nu_masses))
    return den, _scaled(mu_masses, den), _scaled(nu_masses, den)


class _StepTrie:
    """The integer step DP over the prefix trie of balanced words.

    Conditioning on how many of the 2m draws land in each density cell (the
    draws within a cell are uniform, so every order of a cell's block is
    equally likely) gives, with the cell masses written P_k / D and Q_k / D,

        P(w) = m!^2 * G_K(w) / ((2m)! * D^(2m)),
        G_k(x) = sum_{s=0}^{|x|} C(|x|, s) * G_{k-1}(x[:s]) * P_k^#a(x[s:]) * Q_k^#b(x[s:]),

    with G_0 the indicator of the empty word.  Every term is an integer, and
    G does not depend on m, so words of different sizes share one trie.
    ``node`` computes the vector (G_0(x), ..., G_K(x)) from the vectors of
    the proper prefixes of x, summing over s by Horner's rule (one
    multiplication by a single cell mass per prefix), so a walk down the
    trie computes each prefix once for every word below it.
    """

    def __init__(self, pair: CanonicalPair, length: int):
        self.den, p_masses, q_masses = _integer_masses(pair)
        self.masses = [{"a": pk, "b": qk} for pk, qk in zip(p_masses, q_masses)]
        self.binomials = [[math.comb(n, s) for s in range(n + 1)] for n in range(length + 1)]
        self.root = [1] * (len(self.masses) + 1)

    def node(self, path: list[list[int]], x: str) -> list[int]:
        """G_0(x), ..., G_K(x), given ``path``: the vectors of x[:0], ..., x[:-1]."""
        binomials = self.binomials[len(x)]
        weights = [0]
        for k, mass in enumerate(self.masses):
            # Horner over s: after step s, acc holds the terms s' <= s, each
            # times the masses of the letters x[s'], ..., x[s] in this cell
            acc = 0
            for c, prefix, letter in zip(binomials, path, x):
                acc = (acc + c * prefix[k]) * mass[letter]
            weights.append(acc + weights[k])  # s = |x|: x itself, one cell earlier
        return weights

    def probs(self, words) -> dict[str, Fraction]:
        """P(w) for each of the distinct balanced ``words``, in sorted order.

        The walk keeps the path of the longest common prefix with the
        previous word and computes only the new nodes, so each node of the
        words' prefix trie is computed once.
        """
        out: dict[str, Fraction] = {}
        path, prev = [self.root], ""
        for w in sorted(words):
            del path[len(os.path.commonprefix((prev, w))) + 1:]
            for size in range(len(path), len(w) + 1):
                path.append(self.node(path, w[:size]))
            m = len(w) // 2
            scale = math.factorial(2 * m) * self.den ** (2 * m)
            out[w] = Fraction(math.factorial(m) ** 2 * path[-1][-1], scale)
            prev = w
        return out


def _check_atom_count(pair: MeasurePair, m: int) -> None:
    """An atomic pair of a word of size N has N atoms a side, too few for m > N distinct draws."""
    if isinstance(pair, AtomicPair) and m > pair.size:
        raise SizeMismatchError(f"cannot select {m} atoms from measures of {pair.size} atoms each")


def _check_pattern_size(pair: MeasurePair, m: int) -> None:
    """Refuse a pair that is no measure pair, or patterns of size m that it cannot serve."""
    _check_kind(pair, MeasurePair, "a measure pair")
    _check_atom_count(pair, m)
    if isinstance(pair, CanonicalPair) and m > STEP_PATTERN_CAP:
        raise CapExceededError(f"pattern size {m} exceeds step cap {STEP_PATTERN_CAP}")


def pattern_probs(pair: MeasurePair, words) -> dict[str, Fraction]:
    """P{m draws from mu and m draws from nu interleave as w}, exactly, for each w.

    The words are balanced, of any sizes, and come back in input order.
    For diffuse pairs the probabilities over all of W_m total 1: a step
    pair runs the step DP once over the prefix trie of all the words, an
    exponential pair the product form ``pl_word_prob``.  For atomic pairs
    they total the probability that all 2m draws are distinct, which is at
    most 1.  The empirical pair of a word y of size N serves the closed form
    (m!)^2 * binom(y, w) / N^(2m): each selection of m a-atoms and m b-atoms
    has mass N^(-2m) in each of the m!^2 orders of the draws, and binom(y, w)
    selections read as w.
    """
    words = dict.fromkeys(words)  # each word once, in input order
    m = max(map(word_size, words), default=0)
    _check_pattern_size(pair, m)
    if isinstance(pair, CanonicalPair):
        probs = _StepTrie(pair, 2 * m).probs(words)
        return {w: probs[w] for w in words}
    if isinstance(pair, RatePair):
        return {w: pl_word_prob(pair, w) for w in words}
    return {w: Fraction(math.factorial(len(w) // 2) ** 2 * subword_count(pair.word, w),
                        pair.size ** len(w)) for w in words}


def pattern_prob_exact(pair: MeasurePair, w: str) -> Fraction:
    """pattern_probs for the single word w."""
    return pattern_probs(pair, [w])[w]


def pattern_distribution(pair: MeasurePair, m: int) -> dict[str, Fraction]:
    """pattern_probs over all of W_m, in lexicographic order; a size the pair
    cannot serve is refused before W_m is built."""
    _check_pattern_size(pair, check_count(m, "size"))
    return pattern_probs(pair, enumerate_balanced(m))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error, made by ``from_samples``
    from per-trial samples (a pattern trial's ``bool`` is a 0/1 sample)."""

    value: float
    stderr: float
    trials: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "MCEstimate":
        """Sample mean with the plug-in standard error sqrt(var / n)."""
        n = len(samples)
        if n < 1:
            raise WordchainError("need at least one sample")
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        return cls(mean, math.sqrt(var / n), n)


def pattern_matches(pair: MeasurePair, w: str, trials: int, rng: random.Random) -> list[bool]:
    """Per-trial outcomes of the Monte Carlo pattern experiment.

    Each of `trials` (a count) draws m points from mu and m from nu and
    records whether the sorted interleaving reads w; tied draws match no
    pattern.  An atomic pair takes no word larger than its own, as in
    pattern_prob_exact.
    """
    m = word_size(w)
    trials = check_count(trials, "trials")
    _check_kind(pair, MeasurePair, "a measure pair")
    _check_atom_count(pair, m)
    if not m:
        return [True] * trials  # the empty pattern needs no draws
    if isinstance(pair, AtomicPair):
        q_mu, q_nu = pair.quantiles("a"), pair.quantiles("b")  # atoms as letter positions
    else:
        q_mu, q_nu = pair.mu.quantiles, pair.nu.quantiles
    # the sorted a-values, then the sorted b-values, read in the order of w's letters:
    # w matches exactly when they increase strictly (a tie breaks the chain)
    ranks = {"a": iter(range(m)), "b": iter(range(m, 2 * m))}
    slots = operator.itemgetter(*[next(ranks[ch]) for ch in w])
    lt = operator.lt
    out = []
    for xs, ys in _value_rows(q_mu, q_nu, rng, m, trials):
        chain = slots(sorted(xs) + sorted(ys))
        out.append(all(map(lt, chain, chain[1:])))
    return out


def pattern_prob_mc(pair: MeasurePair, w: str, trials: int, rng: random.Random) -> MCEstimate:
    """Monte Carlo oracle for pattern_prob_exact: the hit frequency of w."""
    return MCEstimate.from_samples(pattern_matches(pair, w, trials, rng))


def canonicalize(zeta: StepMeasure, eta: StepMeasure) -> CanonicalPair:
    """Push (zeta, eta) forward by z -> (F_zeta(z) + F_eta(z)) / 2, exactly.

    The push-forwards (mu, nu) average to Lebesgue measure on [0,1] and
    induce the same interleaving law as the inputs.  Both inputs must be
    step measures; an exponential pair is served exactly by ``RatePair``.
    Both densities are read on the union of the breakpoints, and a cell
    where both are zero maps to a point.
    """
    for meas in (zeta, eta):
        if not isinstance(meas, StepMeasure):
            kind = type(meas).__name__
            raise WordchainError(f"{kind} is not a step measure; exponential laws use RatePair")
    grid = sorted(set(zeta.breakpoints) | set(eta.breakpoints))
    bps, mu_dens, nu_dens = [Fraction(0)], [], []
    for dz, de, b1, b2 in zip(_densities_on(zeta, grid), _densities_on(eta, grid), grid, grid[1:]):
        slope = (dz + de) / 2
        if slope:
            bps.append(bps[-1] + slope * (b2 - b1))
            mu_dens.append(dz / slope)
            nu_dens.append(de / slope)
    mu, nu = (StepMeasure(tuple(bps), tuple(dens)) for dens in (mu_dens, nu_dens))
    return CanonicalPair(mu, nu)


def fixture_pairs() -> dict[str, CanonicalPair]:
    """Named canonical pairs exercising qualitatively different boundaries.

    Includes the Lebesgue pair (base chain), a fully separated pair (all
    a's before all b's), and three mixed-density pairs.
    """
    f = Fraction
    return {
        "lebesgue": CanonicalPair.lebesgue(),
        "separated": CanonicalPair(
            StepMeasure((f(0), f(1, 2), f(1)), (f(2), f(0))),
            StepMeasure((f(0), f(1, 2), f(1)), (f(0), f(2))),
        ),
        "crossed": CanonicalPair(
            StepMeasure((f(0), f(1, 2), f(1)), (f(1, 2), f(3, 2))),
            StepMeasure((f(0), f(1, 2), f(1)), (f(3, 2), f(1, 2))),
        ),
        "three-cell": CanonicalPair(
            StepMeasure((f(0), f(1, 3), f(2, 3), f(1)), (f(2), f(1, 2), f(1, 2))),
            StepMeasure((f(0), f(1, 3), f(2, 3), f(1)), (f(0), f(3, 2), f(3, 2))),
        ),
        "skewed": CanonicalPair(
            StepMeasure((f(0), f(1, 4), f(1)), (f(2), f(2, 3))),
            StepMeasure((f(0), f(1, 4), f(1)), (f(0), f(4, 3))),
        ),
    }


def empirical_distance(y: str, letter: str, q: StepMeasure) -> float:
    """Kolmogorov distance sup_x |F_p(x) - F_q(x)| from the mu (letter a) or nu
    (letter b) of empirical_pair(y) to a step measure q on [0, 1].

    The k-th atom sits at l_k / (2N), and between atoms the empirical CDF
    is flat while F_q is continuous and nondecreasing, so the supremum is
    the largest of |k/N - F_q(x_k)| and |(k-1)/N - F_q(x_k)|.  With L the
    lcm of 2N and the breakpoint denominators, every candidate is an
    integer over N * E * L, and the int/int quotient rounds the exact
    distance once.  The tests' oracle is the Fraction sup over every knot,
    ``conftest.weak_distance_oracle``.
    """
    n = empirical_pair(y).size
    if letter not in ("a", "b"):
        raise WordchainError(f"letter must be 'a' or 'b', got {letter!r}")
    _check_kind(q, StepMeasure, "a step measure")
    knots = q.breakpoints
    if knots[0] < 0 or knots[-1] > 1:
        raise WordchainError("empirical_distance expects a measure supported in [0, 1]")
    den, cum, dens = q._cdf_table
    grid = math.lcm(2 * n, *(b.denominator for b in knots))
    step, knots, one = grid // (2 * n), _scaled(knots, grid), grid * den
    # the 1-based positions l of the atoms l / (2N) = l * step / L
    pos = [i + 1 for i in letter_positions(y, letter)]
    # the atoms ahead of each knot X: l * step < X, that is l < ceil(X / step)
    cuts = [bisect.bisect_left(pos, -(-x // step)) for x in knots]
    # N * E * L * F_q at each atom; on cell k, E * L * F_q(x / L) = L * cum[k] + dens[k] * (x - X_k)
    at = [0] * cuts[0]
    for k, (i, j) in enumerate(zip(cuts, cuts[1:])):
        base, slope = n * (grid * cum[k] - dens[k] * knots[k]), n * dens[k] * step
        at += [base + slope * l for l in pos[i:j]]
    at += [n * one] * (n - cuts[-1])
    # max(|a|, |a - c|) = max(a, c - a) for c > 0; the k-th atom reads k/N and (k-1)/N
    best = max(max(map(operator.sub, range(one, (n + 1) * one, one), at)),
               max(map(operator.sub, at, range(0, n * one, one))))
    return best / (n * one)
