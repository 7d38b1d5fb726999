"""Shared helpers: chi-square criticals, random canonical pairs, oracles."""

import bisect
import contextlib
import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from scipy import stats

from wordchain.errors import SizeMismatchError
from wordchain.measures import CanonicalPair, Exponential, StepMeasure
from wordchain.words import subword_count, word_size


@contextlib.contextmanager
def int_str_digit_limit(digits: int):
    """Run the block under the int-to-str digit limit `digits`, then restore the old limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def chi2_critical(cells: int, level: float = 0.01) -> float:
    return float(stats.chi2.ppf(1 - level, cells - 1))


def chi2_statistic(observed: dict, expected: dict, total: int) -> float:
    stat = 0.0
    for key, prob in expected.items():
        exp = float(prob) * total
        obs = observed.get(key, 0)
        stat += (obs - exp) ** 2 / exp
    return stat


def two_sample_chi2(counts_a: dict, counts_b: dict) -> tuple[float, int]:
    """Homogeneity statistic for two equally sized count tables."""
    keys = sorted(set(counts_a) | set(counts_b))
    stat = 0.0
    cells = 0
    for key in keys:
        o1, o2 = counts_a.get(key, 0), counts_b.get(key, 0)
        if o1 + o2 == 0:
            continue
        stat += (o1 - o2) ** 2 / (o1 + o2)
        cells += 1
    return stat, cells


def random_canonical_pair(rng: random.Random, cells: int = 3) -> CanonicalPair:
    """A canonical pair with random rational densities on a uniform grid.

    Rejection-samples the last density so the mu densities average to 1
    while every density stays within [0, 2].
    """
    bps = tuple(Fraction(k, cells) for k in range(cells + 1))
    while True:
        densities = [Fraction(rng.randrange(0, 33), 16) for _ in range(cells - 1)]
        last = cells - sum(densities)
        if 0 <= last <= 2:
            densities.append(last)
            break
    mu = StepMeasure(bps, tuple(densities))
    return CanonicalPair.from_mu(mu)


def exp_canonical_moment(alpha, beta, n: int) -> Fraction:
    """The n-th moment of mu for the canonical pair of Exp(alpha)/Exp(beta), exactly.

    mu is the law of F(X) for X ~ Exp(alpha) and the mixture CDF
    F = 1 - (e^(-alpha x) + e^(-beta x)) / 2; expanding F^n leaves terms
    E[e^(-c X)] = alpha / (alpha + c).  nu's moment swaps alpha and beta.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    return sum(
        math.comb(n, i) * math.comb(i, j) * Fraction(-1, 2) ** i
        * alpha / (alpha + j * alpha + (i - j) * beta)
        for i in range(n + 1)
        for j in range(i + 1)
    )


def step_pattern_oracle(pair: CanonicalPair, w: str) -> Fraction:
    """Interleaving probability of w by the Fraction DP over (cell, suffix).

    Conditioning on how many points land in each density cell reduces the
    event to a product over cells: within a cell the points are uniform, so
    a block with i a's and j b's matches its piece of w with probability
    1/C(i+j, i).  Folding the multinomial coefficients gives

        P = m!^2 * sum over cuts of w into per-cell blocks of
            prod_k mu(I_k)^{i_k} * nu(I_k)^{j_k} / (i_k + j_k)!

    evaluated cell by cell from the last, in rationals throughout.
    """
    m = word_size(w)
    length = 2 * m
    # state[pos] = sum over ways of placing w[pos:] into the remaining cells
    state = [Fraction(0)] * (length + 1)
    state[length] = Fraction(1)
    for mu_m, nu_m in zip(reversed(pair.mu.cell_masses()), reversed(pair.nu.cell_masses())):
        nxt = [Fraction(0)] * (length + 1)
        for pos in range(length + 1):
            acc = Fraction(0)
            weight = Fraction(1)
            for end in range(pos, length + 1):
                if end > pos:
                    weight *= mu_m if w[end - 1] == "a" else nu_m
                if state[end]:
                    acc += weight / math.factorial(end - pos) * state[end]
            nxt[pos] = acc
        state = nxt
    return math.factorial(m) ** 2 * state[0]


def kernel_ratio(y: str, w: str) -> Fraction:
    """P{selecting m a's and m b's of y uniformly, in order, reads w}.

    Equals subword_count(y, w) / C(size(y), m)^2; over all w of size m
    these ratios form a probability distribution.  The oracle of the
    boundary report's ratios.
    """
    n = word_size(y)
    m = word_size(w)
    if m > n:
        raise SizeMismatchError(f"test word size {m} exceeds sequence word size {n}")
    return Fraction(subword_count(y, w), math.comb(n, m) ** 2)


@dataclass(frozen=True)
class Atoms:
    """Point masses at strictly increasing rational locations."""

    locations: tuple[Fraction, ...]
    masses: tuple[Fraction, ...]

    @functools.cached_property
    def cum(self) -> list[Fraction]:
        """cum[k]: the mass of the first k atoms."""
        return list(itertools.accumulate(self.masses, initial=Fraction(0)))

    @functools.cached_property
    def limits_at_atoms(self) -> dict[Fraction, tuple[Fraction, Fraction]]:
        """(F(x-), F(x)) at each atom x."""
        cum = self.cum
        return {x: (cum[k], cum[k + 1]) for k, x in enumerate(self.locations)}


def empirical_atoms(y: str, letter: str) -> Atoms:
    """mu (letter a) or nu (letter b) of the empirical pair of y: mass 1/N at l/(2N)."""
    n = word_size(y)
    locations = tuple(Fraction(l, 2 * n) for l, ch in enumerate(y, 1) if ch == letter)
    return Atoms(locations, (Fraction(1, n),) * n)


@functools.cache
def _step_limits(measure: StepMeasure):
    """limits(x) = (F(x-), F(x)) of a step measure in Fractions, memoised per point."""
    bps, dens = measure.breakpoints, measure.densities
    cum = list(itertools.accumulate(measure.cell_masses(), initial=Fraction(0)))
    # on cell k, F(x) = cum[k] + dens[k] * (x - bps[k]) = offsets[k] + dens[k] * x
    offsets = [c - d * b for c, d, b in zip(cum, dens, bps)]
    lo, hi, inner = bps[0], bps[-1], bps[1:-1]

    @functools.cache
    def limits(x: Fraction) -> tuple[Fraction, Fraction]:
        if x <= lo:
            f = cum[0]
        elif x >= hi:
            f = cum[-1]
        else:
            k = bisect.bisect_right(inner, x)
            f = offsets[k] + dens[k] * x
        return f, f

    return limits


def _fraction_cdf(measure):
    """(knots, limits) of a step measure or Atoms: limits(x) = (F(x-), F(x)) in Fractions."""
    if isinstance(measure, StepMeasure):
        return measure.breakpoints, _step_limits(measure)
    locs, cum, at_atoms = measure.locations, measure.cum, measure.limits_at_atoms

    def limits(x: Fraction) -> tuple[Fraction, Fraction]:
        found = at_atoms.get(x)
        if found:
            return found
        f = cum[bisect.bisect_right(locs, x)]  # no atom at x
        return f, f

    return locs, limits


def weak_distance_oracle(p, q) -> Fraction:
    """sup |F_p - F_q| over 0, 1, every knot and its left limit, in Fractions."""
    knots_p, limits_p = _fraction_cdf(p)
    knots_q, limits_q = _fraction_cdf(q)
    best = Fraction(0)
    for x in {Fraction(0), Fraction(1), *knots_p, *knots_q}:
        (left_p, right_p), (left_q, right_q) = limits_p(x), limits_q(x)
        best = max(best, abs(right_p - right_q))
        if left_p is not right_p or left_q is not right_q:  # a jump at x
            best = max(best, abs(left_p - left_q))
    return best


def empirical_distance_oracle(y: str, letter: str, q) -> Fraction:
    """weak_distance_oracle from mu (letter a) or nu (letter b) of the empirical pair of y to q."""
    return weak_distance_oracle(empirical_atoms(y, letter), q)


def single_draw(source, rng: random.Random):
    """One draw from a step or exponential measure or from Atoms, one generator call each.

    The oracle for ``drawer(rng)`` and ``AtomicPair.drawers(rng)``:
    inverse-CDF formulas read off the exact masses, with the float CDF of
    each cell or atom rounded once.  A step draw past the float total mass
    is clamped to the last positive cell; an atomic draw past it picks the
    last atom.
    """
    if isinstance(source, Exponential):
        return rng.expovariate(float(source.rate))
    u = rng.random()
    if isinstance(source, StepMeasure):
        ends = list(itertools.accumulate(source.cell_masses()))
        cells = [k for k, d in enumerate(source.densities) if d]
        cum = [0.0, *(float(ends[k]) for k in cells)]
        i = min(bisect.bisect_right(cum, u) - 1, len(cells) - 1)
        k = cells[i]
        return float(source.breakpoints[k]) + (u - cum[i]) / float(source.densities[k])
    assert isinstance(source, Atoms)
    cum = [float(c) for c in source.cum[1:]]
    return source.locations[min(bisect.bisect_right(cum, u), len(source.locations) - 1)]


def check_bridge_path(path: list[str]) -> list[str]:
    """Validate the grading and subword-of-successor invariants of a bridge path."""
    if not path or path[0] != "":
        raise ValueError("a bridge path must start at the empty word")
    for k, w in enumerate(path):
        if word_size(w) != k:
            raise ValueError(f"path state {k} has size {word_size(w)}, expected {k}")
    for v, w in zip(path, path[1:]):
        if subword_count(w, v) == 0:
            raise ValueError(f"{v!r} is not a subword of its successor {w!r}")
    return path


class ScriptedRandom(random.Random):
    """A generator whose random() returns ``script`` in order, then the seeded stream."""

    def __init__(self, seed: int, script):
        super().__init__(seed)
        self.script = list(script)

    def random(self) -> float:
        return self.script.pop(0) if self.script else super().random()


@pytest.fixture
def rng():
    return random.Random(20260810)
