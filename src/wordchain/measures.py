"""Probability measures on [0,1] and exact interleaving-pattern probabilities.

Two concrete representations are used throughout:

* ``StepMeasure`` — diffuse, piecewise-constant density with rational
  breakpoints.  Closed under canonicalization and amenable to exact
  dynamic programming, which is why it is the primary diffuse form.
* ``AtomicMeasure`` — finitely many point masses, used for the empirical
  measures read off a finite word.

A ``CanonicalPair`` (mu, nu) of step measures satisfies the constraint that
the mixture (mu + nu)/2 is Lebesgue measure, i.e. the densities add to 2 on
every cell.  A ``RatePair`` is the pair Exp(alpha)/Exp(beta), and an
``AtomicPair`` the empirical pair of a word.  ``pattern_prob_exact``
computes the probability that m draws from mu and m draws from nu
interleave as a given balanced word, for each kind of pair; the harmonic
function and the h-transform read a pair only through it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Sequence, Union

from .errors import CapExceededError, SizeMismatchError
from .words import check_balanced, enumerate_balanced, subword_count, word_size

STEP_PATTERN_CAP = 6


def parse_fraction(text: str, field: str = "value") -> Fraction:
    """Parse "p/q" or "p" into an exact rational; `field` names it in errors."""
    if not isinstance(text, str):
        raise ValueError(f'{field} must be a string such as "1/2", got {text!r}')
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_fraction(x: Fraction) -> str:
    return str(Fraction(x))


def _as_fraction(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _scaled(xs, den: int) -> list[int]:
    """The rationals xs as integers over den (a multiple of every denominator)."""
    return [x.numerator * (den // x.denominator) for x in xs]


@dataclass(frozen=True)
class StepMeasure:
    """Diffuse probability measure with piecewise-constant density.

    ``breakpoints`` are strictly increasing rationals; ``densities[k]`` is
    the constant density on (breakpoints[k], breakpoints[k+1]).  The cell
    masses must add to exactly 1.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self):
        bps = tuple(Fraction(b) for b in self.breakpoints)
        dens = tuple(Fraction(d) for d in self.densities)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", dens)
        if len(bps) < 2 or len(dens) != len(bps) - 1:
            raise ValueError("need K+1 breakpoints for K densities, K >= 1")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(d < 0 for d in dens):
            raise ValueError("densities must be nonnegative")
        den, cum, _ = self._cdf_table
        if cum[-1] != den:
            raise ValueError(f"total mass is {Fraction(cum[-1], den)}, expected 1")

    @classmethod
    def lebesgue(cls) -> "StepMeasure":
        return cls((Fraction(0), Fraction(1)), (Fraction(1),))

    @classmethod
    def uniform_on(cls, lo, hi) -> "StepMeasure":
        lo, hi = Fraction(lo), Fraction(hi)
        return cls((lo, hi), (Fraction(1, 1) / (hi - lo),))

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
        """Exact CDF at a rational point."""
        x = Fraction(x)
        bps = self.breakpoints
        if x <= bps[0]:
            return Fraction(0)
        if x >= bps[-1]:
            return Fraction(1)
        den, cum, dens = self._cdf_table
        k = bisect.bisect_right(bps, x) - 1
        return (cum[k] + dens[k] * (x - bps[k])) / den

    def moment(self, n: int) -> Fraction:
        """Exact n-th moment: integral of x^n against the measure."""
        return sum(
            (
                d * (b2 ** (n + 1) - b1 ** (n + 1)) / (n + 1)
                for d, b1, b2 in zip(self.densities, self.breakpoints, self.breakpoints[1:])
            ),
            Fraction(0),
        )

    def refine(self, points) -> "StepMeasure":
        """Same measure re-expressed on a grid containing `points`."""
        lo, hi = self.support
        extra = [Fraction(p) for p in points if lo < Fraction(p) < hi]
        bps = sorted(set(self.breakpoints) | set(extra))
        dens = []
        for b1 in bps[:-1]:
            k = max(i for i, b in enumerate(self.breakpoints) if b <= b1)
            dens.append(self.densities[k])
        return StepMeasure(tuple(bps), tuple(dens))

    def drawer(self, rng: random.Random) -> Callable[[int], list[float]]:
        """draw(k): k inverse-CDF draws, one rng.random() each, in one call.

        A draw u falls in the last positive-density cell whose float CDF at
        its left end is at most u, and maps linearly into that cell.  The
        bisection skips the first cell's start, so u = 0 lands in the first
        cell, and a u past the float total mass stays in the last one.
        """
        den, cum, dens = self._cdf_table
        cells = [
            (float(self.breakpoints[k]), cum[k] / den, d / den) for k, d in enumerate(dens) if d
        ]
        starts = [c for _, c, _ in cells]
        random_, bisect_right, hi = rng.random, bisect.bisect_right, len(cells)

        def draw(k: int) -> list[float]:
            return [
                left + (u - c) / d
                for u in [random_() for _ in range(k)]
                for left, c, d in (cells[bisect_right(starts, u, 1, hi) - 1],)
            ]

        return draw

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_fraction(b) for b in self.breakpoints],
            "densities": [format_fraction(d) for d in self.densities],
        }

    @classmethod
    def from_json(cls, data: dict, field: str = "measure") -> "StepMeasure":
        keys = ("breakpoints", "densities")
        if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in keys)):
            raise ValueError(f"{field} must hold lists of breakpoints and densities")
        return cls(*(
            tuple(parse_fraction(v, f"{field}.{k}[{i}]") for i, v in enumerate(data[k]))
            for k in keys
        ))


@dataclass(frozen=True)
class Exponential:
    """Exponential law on [0, infinity) with a positive rational rate."""

    rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "rate", Fraction(self.rate))
        if not sys.float_info.min <= self.rate <= sys.float_info.max:
            raise ValueError(
                f"rate must lie in the normal float range "
                f"[{sys.float_info.min:.2g}, {sys.float_info.max:.2g}]"
            )

    def drawer(self, rng: random.Random) -> Callable[[int], list[float]]:
        """draw(k): k calls of rng.expovariate(float(rate)), in one call."""
        expovariate, rate = rng.expovariate, float(self.rate)
        return lambda k: [expovariate(rate) for _ in range(k)]


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many point masses at strictly increasing rational locations."""

    atoms: tuple[tuple[Fraction, Fraction], ...]  # (location, mass)

    def __post_init__(self):
        atoms = tuple((_as_fraction(x), _as_fraction(m)) for x, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        locs = [x for x, _ in atoms]
        grid = _scaled(locs, math.lcm(*(x.denominator for x in locs)))
        if any(x2 <= x1 for x1, x2 in zip(grid, grid[1:])):
            raise ValueError("atom locations must be strictly increasing")
        if any(m.numerator <= 0 for _, m in atoms):
            raise ValueError("atom masses must be positive")
        den, cum = self._cdf_table
        if cum[-1] != den:
            raise ValueError("atom masses must total 1")

    @cached_property
    def _cdf_table(self) -> tuple[int, list[int]]:
        """(E, cum): the CDF just below atom k is cum[k] / E, and 1 past the last atom."""
        masses = [m for _, m in self.atoms]
        den = math.lcm(*(m.denominator for m in masses))
        return den, list(itertools.accumulate(_scaled(masses, den), initial=0))

    def drawer(self, rng: random.Random) -> Callable[[int], list[Fraction]]:
        """draw(k): k draws, one rng.random() each, in one call.

        A draw u picks the first atom whose float CDF exceeds u; the
        bisection stops at the last atom, so a u past the float total mass
        picks it.
        """
        den, cum = self._cdf_table
        ends = [c / den for c in cum[1:]]
        locations = [x for x, _ in self.atoms]
        random_, bisect_right, hi = rng.random, bisect.bisect_right, len(locations) - 1
        return lambda k: [locations[bisect_right(ends, random_(), 0, hi)] for _ in range(k)]


@dataclass(frozen=True)
class CanonicalPair:
    """Pair (mu, nu) of step measures whose average is Lebesgue on [0,1].

    Both components are stored on their common breakpoint refinement; on
    every cell the two densities add to exactly 2.
    """

    mu: StepMeasure
    nu: StepMeasure

    def __post_init__(self):
        grid = sorted(set(self.mu.breakpoints) | set(self.nu.breakpoints))
        mu = self.mu.refine(grid) if self.mu.breakpoints != tuple(grid) else self.mu
        nu = self.nu.refine(grid) if self.nu.breakpoints != tuple(grid) else self.nu
        if mu.breakpoints != nu.breakpoints:
            raise ValueError("mu and nu must live on a common support")
        if mu.support != (Fraction(0), Fraction(1)):
            raise ValueError("canonical pairs live on [0, 1]")
        for k, (dm, dn) in enumerate(zip(mu.densities, nu.densities)):
            if dm + dn != 2:
                raise ValueError(
                    f"densities on cell {k} add to {dm + dn}, expected 2 "
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
        nu = StepMeasure(mu.breakpoints, tuple(2 - d for d in mu.densities))
        return cls(mu, nu)

    def to_json(self) -> dict:
        return {"mu": self.mu.to_json(), "nu": self.nu.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CanonicalPair":
        """The pair of an object with keys mu and nu; other keys are ignored."""
        if not isinstance(data, dict):
            raise ValueError("a pair must be an object with keys mu and nu")
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
            raise ValueError("the empty word carries no empirical measures")

    @property
    def size(self) -> int:
        return len(self.word) // 2

    def _atoms(self, letter: str) -> AtomicMeasure:
        n = self.size
        mass = Fraction(1, n)
        return AtomicMeasure(
            tuple((Fraction(i + 1, 2 * n), mass) for i, ch in enumerate(self.word) if ch == letter)
        )

    @property
    def mu(self) -> AtomicMeasure:
        return self._atoms("a")

    @property
    def nu(self) -> AtomicMeasure:
        return self._atoms("b")


@dataclass(frozen=True)
class RatePair:
    """The pair Exp(alpha)/Exp(beta) with positive rational rates.

    Its pattern law ``pl_word_prob`` takes any positive rational rate; mu
    and nu are built only when read, since draws need normal-range floats.
    """

    alpha: Fraction
    beta: Fraction
    mu = property(lambda self: Exponential(self.alpha))
    nu = property(lambda self: Exponential(self.beta))

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


MeasurePair = Union[CanonicalPair, AtomicPair, RatePair]
DiffusePair = Union[CanonicalPair, RatePair]


def empirical_pair(y: str) -> AtomicPair:
    """The atomic pair encoding a-positions and b-positions of y."""
    return AtomicPair(y)


def interleave_pattern(xs, ys) -> str:
    """Sort the union of xs (a-points) and ys (b-points) and read the letters.

    All values must be distinct; ties make the pattern undefined.
    """
    tagged = [(x, "a") for x in xs] + [(y, "b") for y in ys]
    tagged.sort()
    if len({v for v, _ in tagged}) < len(tagged):
        raise ValueError("tied values have no interleaving pattern")
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

    with G_0 the indicator of the empty word.  Every term is an integer.
    ``node`` computes the vector (G_0(x), ..., G_K(x)) from the vectors of
    the proper prefixes of x, summing over s by Horner's rule (one
    multiplication by a single cell mass per prefix), so a walk down the
    trie computes each prefix once for every word below it.
    """

    def __init__(self, pair: CanonicalPair, m: int):
        self.m = m
        self.den, p_masses, q_masses = _integer_masses(pair)
        self.masses = [{"a": pk, "b": qk} for pk, qk in zip(p_masses, q_masses)]
        self.binomials = [[math.comb(n, s) for s in range(n + 1)] for n in range(2 * m + 1)]
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

    def prob(self, weights: list[int]) -> Fraction:
        m = self.m
        return Fraction(
            math.factorial(m) ** 2 * weights[-1],
            math.factorial(2 * m) * self.den ** (2 * m),
        )

    def word_prob(self, w: str) -> Fraction:
        """P(w) along the single trie path of w."""
        path = [self.root]
        for size in range(1, len(w) + 1):
            path.append(self.node(path, w[:size]))
        return self.prob(path[-1])

    def distribution(self) -> dict[str, Fraction]:
        """P(w) for every w in W_m, by a depth-first walk of the trie."""
        m = self.m
        out: dict[str, Fraction] = {}
        path = [self.root]

        def walk(x: str, n_a: int, n_b: int) -> None:
            if n_a == n_b == m:
                out[x] = self.prob(path[-1])
                return
            for child, a, b in ((x + "a", n_a + 1, n_b), (x + "b", n_a, n_b + 1)):
                if a <= m and b <= m:
                    path.append(self.node(path, child))
                    walk(child, a, b)
                    path.pop()

        walk("", 0, 0)
        return out


def _check_step_cap(m: int) -> None:
    if m > STEP_PATTERN_CAP:
        raise CapExceededError(f"pattern size {m} exceeds step cap {STEP_PATTERN_CAP}")


def _check_atom_count(pair: MeasurePair, m: int) -> None:
    """An atomic pair of a word of size N has N atoms a side, too few for m > N distinct draws."""
    if isinstance(pair, AtomicPair) and m > pair.size:
        raise SizeMismatchError(f"cannot select {m} atoms from measures of {pair.size} atoms each")


def pattern_prob_exact(pair: MeasurePair, w: str) -> Fraction:
    """P{m draws from mu and m draws from nu interleave as w}, exactly.

    For diffuse pairs the probabilities over all of W_m total 1: a step
    pair runs the step DP, an exponential pair the product form
    ``pl_word_prob``.  For atomic pairs they total the probability that all
    2m draws are distinct, which is at most 1.  The empirical pair of a
    word y of size N serves the closed form (m!)^2 * binom(y, w) / N^(2m):
    each selection of m a-atoms and m b-atoms has mass N^(-2m) in each of
    the m!^2 orders of the draws, and binom(y, w) selections read as w.
    """
    m = word_size(w)
    _check_atom_count(pair, m)
    if isinstance(pair, CanonicalPair):
        _check_step_cap(m)
        return _StepTrie(pair, m).word_prob(w)
    if isinstance(pair, RatePair):
        return pl_word_prob(pair, w)
    if isinstance(pair, AtomicPair):
        return Fraction(math.factorial(m) ** 2 * subword_count(pair.word, w), pair.size ** (2 * m))
    raise TypeError(f"unsupported measure pair {type(pair).__name__}")


def pattern_distribution(pair: MeasurePair, m: int) -> dict[str, Fraction]:
    """pattern_prob_exact over all of W_m, in lexicographic order.

    A step pair shares the integer DP across W_m by walking the prefix trie.
    """
    words = enumerate_balanced(m)
    if isinstance(pair, CanonicalPair):
        _check_step_cap(m)
        probs = _StepTrie(pair, m).distribution()
        return {w: probs[w] for w in words}
    return {w: pattern_prob_exact(pair, w) for w in words}


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    trials: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "MCEstimate":
        """Sample mean with the plug-in standard error sqrt(var / n)."""
        n = len(samples)
        if n < 1:
            raise ValueError("need at least one sample")
        mean = sum(samples) / n
        var = sum((s - mean) ** 2 for s in samples) / n
        return cls(mean, math.sqrt(var / n), n)

    @classmethod
    def binomial(cls, outcomes: Sequence[bool]) -> "MCEstimate":
        """Hit frequency of Bernoulli outcomes with stderr sqrt(p(1-p)/n)."""
        n = len(outcomes)
        if n < 1:
            raise ValueError("need at least one trial")
        p = sum(outcomes) / n
        return cls(p, math.sqrt(p * (1 - p) / n), n)


def pattern_matches(pair: MeasurePair, w: str, trials: int, rng: random.Random) -> list[bool]:
    """Per-trial outcomes of the Monte Carlo pattern experiment.

    Each trial draws m points from mu and m from nu and records whether the
    sorted interleaving reads w; tied draws match no pattern.  An atomic
    pair takes no word larger than its own, as in pattern_prob_exact.
    """
    m = word_size(w)
    _check_atom_count(pair, m)
    draw_mu, draw_nu = pair.mu.drawer(rng), pair.nu.drawer(rng)
    out = []
    for _ in range(trials):
        try:
            out.append(interleave_pattern(draw_mu(m), draw_nu(m)) == w)
        except ValueError:
            out.append(False)
    return out


def pattern_prob_mc(pair: MeasurePair, w: str, trials: int, rng: random.Random) -> MCEstimate:
    """Monte Carlo oracle for pattern_prob_exact: the hit frequency of w."""
    return MCEstimate.binomial(pattern_matches(pair, w, trials, rng))


def _canonicalize_steps(zeta: StepMeasure, eta: StepMeasure) -> CanonicalPair:
    """Exact push-forward of a pair of step measures by the mixture CDF."""
    grid = sorted(set(zeta.breakpoints) | set(eta.breakpoints))
    lo, hi = grid[0], grid[-1]
    z = _extend_support(zeta, lo, hi).refine(grid)
    e = _extend_support(eta, lo, hi).refine(grid)
    mu_bps = [Fraction(0)]
    mu_dens: list[Fraction] = []
    nu_dens: list[Fraction] = []
    pos = Fraction(0)
    for dz, de, b1, b2 in zip(z.densities, e.densities, grid, grid[1:]):
        slope = (dz + de) / 2
        if slope == 0:
            continue  # the mixture CDF is flat here; the cell maps to a point
        pos += slope * (b2 - b1)
        mu_bps.append(pos)
        mu_dens.append(dz / slope)
        nu_dens.append(de / slope)
    mu = StepMeasure(tuple(mu_bps), tuple(mu_dens))
    nu = StepMeasure(tuple(mu_bps), tuple(nu_dens))
    return CanonicalPair(mu, nu)


def _extend_support(measure: StepMeasure, lo: Fraction, hi: Fraction) -> StepMeasure:
    bps = list(measure.breakpoints)
    dens = list(measure.densities)
    if lo < bps[0]:
        bps.insert(0, lo)
        dens.insert(0, Fraction(0))
    if hi > bps[-1]:
        bps.append(hi)
        dens.append(Fraction(0))
    return StepMeasure(tuple(bps), tuple(dens))


def canonicalize(zeta: StepMeasure, eta: StepMeasure) -> CanonicalPair:
    """Push (zeta, eta) forward by z -> (F_zeta(z) + F_eta(z)) / 2, exactly.

    The push-forwards (mu, nu) average to Lebesgue measure on [0,1] and
    induce the same interleaving law as the inputs.  Both inputs must be
    step measures; an exponential pair is served exactly by ``RatePair``.
    """
    for meas in (zeta, eta):
        if not isinstance(meas, StepMeasure):
            kind = type(meas).__name__
            raise ValueError(f"{kind} is not a step measure; exponential laws use RatePair")
    return _canonicalize_steps(zeta, eta)


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


def _knots(measure) -> list[Fraction]:
    """Points where the CDF of a measure on [0, 1] bends or jumps."""
    if isinstance(measure, StepMeasure):
        knots = list(measure.breakpoints)
    elif isinstance(measure, AtomicMeasure):
        knots = [loc for loc, _ in measure.atoms]
    else:
        raise TypeError(f"no exact CDF for {type(measure).__name__}")
    if knots[0] < 0 or knots[-1] > 1:
        raise ValueError("weak_distance expects measures supported in [0,1]")
    return knots


def _grid_cdf(measure, knots: list[int], grid: int, points: list[int]) -> tuple[int, list[int], list[int]]:
    """(E, right, left): E times the CDF at each point X / grid, and at its left limit.

    ``knots`` are the measure's knots and ``points`` the sorted candidates,
    both as integers on the grid.
    """
    if isinstance(measure, AtomicMeasure):
        den, cum = measure._cdf_table
        return (
            den,
            [cum[bisect.bisect_right(knots, x)] for x in points],
            [cum[bisect.bisect_left(knots, x)] for x in points],
        )
    # x / grid lies in cell k, so E * grid * F = grid * cum[k] + dens[k] * (x - knots[k])
    den, cum, dens = measure._cdf_table

    def value(x: int) -> int:
        if x <= knots[0]:
            return 0
        if x >= knots[-1]:
            return grid * den
        k = bisect.bisect_right(knots, x) - 1
        return grid * cum[k] + dens[k] * (x - knots[k])

    right = [value(x) for x in points]
    return grid * den, right, right


def weak_distance(p, q) -> float:
    """Kolmogorov distance sup_x |F_p(x) - F_q(x)| for measures on [0,1].

    Both CDFs are piecewise linear between breakpoints and atoms, so the
    supremum is attained at one of those points or at a left limit there.
    Every candidate point is an integer on the grid 1/L of the common
    denominator L, and every CDF value there an integer over one
    denominator, so the candidates are compared exactly in integers and
    the maximum returned as float.
    """
    knots_p, knots_q = _knots(p), _knots(q)
    grid = math.lcm(*(x.denominator for x in knots_p + knots_q))
    knots_p, knots_q = _scaled(knots_p, grid), _scaled(knots_q, grid)
    points = sorted({0, grid, *knots_p, *knots_q})
    den_p, right_p, left_p = _grid_cdf(p, knots_p, grid, points)
    den_q, right_q, left_q = _grid_cdf(q, knots_q, grid, points)
    den = math.lcm(den_p, den_q)
    sp, sq = den // den_p, den // den_q
    best = max(
        max(abs(fp * sp - fq * sq) for fp, fq in zip(right_p, right_q)),
        max(abs(fp * sp - fq * sq) for fp, fq in zip(left_p, left_q)),
    )
    return best / den
