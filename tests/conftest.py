"""Shared helpers: chi-square criticals, random canonical pairs, oracles."""

import bisect
import contextlib
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

import wordchain
from wordchain.errors import SizeMismatchError, WordchainError
from wordchain.measures import (
    AtomicPair,
    CanonicalPair,
    Exponential,
    StepMeasure,
    format_fraction,
    interleave_pattern,
)
from wordchain.verify import CheckResult
from wordchain.words import enumerate_words, subword_count, word_size


@contextlib.contextmanager
def int_str_digit_limit(digits: int):
    """Run the block under the int-to-str digit limit `digits`, then restore the old limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def subword_count_oracle(w: str, v: str) -> int:
    """The textbook O(|w| * |v|) DP for subword_count: per letter of w, every
    position of v from the last down, in plain Python."""
    dp = [1] + [0] * len(v)  # dp[j]: embeddings of v[:j] in the letters read
    for ch in w:
        for j in range(len(v), 0, -1):
            if v[j - 1] == ch:
                dp[j] += dp[j - 1]
    return dp[-1]


def two_deletions_oracle(w: str) -> dict[str, int]:
    """{v: how many 2-subsets of w's positions leave v when deleted}, by deleting each one.

    An embedding of v with |v| = |w| - 2 keeps all but two positions of w,
    so the value at v is subword_count(w, v), and every v missing has 0.
    """
    counts: dict[str, int] = {}
    for lo, hi in itertools.combinations(range(len(w)), 2):
        v = w[:lo] + w[lo + 1:hi] + w[hi + 1:]
        counts[v] = counts.get(v, 0) + 1
    return counts


def chi2_survival(x: float, df: int) -> float:
    """P{chi-square with integer df > x}, in closed form: with h = x/2,
    e^-h * sum_{j < df/2} h^j / j! for an even df, and
    erfc(sqrt h) + e^-h * sum_{j < (df-1)/2} h^(j+1/2) / Gamma(j + 3/2) for an odd df."""
    h = x / 2
    if df % 2:
        total, term, first = math.erfc(math.sqrt(h)), math.sqrt(h) / math.gamma(1.5), 1.5
    else:
        total, term, first = 0.0, 1.0, 1
    series = 0.0
    for j in range(df // 2):
        series += term
        term *= h / (first + j)
    return total + math.exp(-h) * series


def chi2_critical(cells: int, level: float = 0.01) -> float:
    """The (1 - level) quantile of chi-square with cells - 1 degrees of
    freedom, by bisection on chi2_survival."""
    df = cells - 1
    lo, hi = 0.0, float(df) + 1
    while chi2_survival(hi, df) > level:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if chi2_survival(mid, df) > level:
            lo = mid
        else:
            hi = mid


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


def many_cell_pair(cells: int) -> CanonicalPair:
    """A canonical pair on ``cells`` cells of uneven widths, zero-density cells interleaved.

    Cells come in neighbouring twos of equal width with mu densities d and
    2 - d, so mu's densities average to 1 over each two; d cycles through
    values that put a zero-density cell of mu (d = 0) or of nu (d = 2) in
    every few cells.
    """
    ds = [Fraction(d) for d in ("1/3", "0", "3/4", "2/5", "2", "1", "1/8", "9/7", "5/3")]
    widths = [Fraction(1 + j % 5, 7) for j in range(cells // 2)]
    total = sum(widths)
    bps, mu = [Fraction(0)], []
    for j, width in enumerate(widths):
        d = ds[j % len(ds)]
        for dens in (d, 2 - d):
            bps.append(bps[-1] + width / (2 * total))
            mu.append(dens)
    return CanonicalPair.from_mu(StepMeasure(tuple(bps), tuple(mu)))


def random_step_measure(rng: random.Random, positive: int) -> StepMeasure:
    """A step measure with ``positive`` positive-density cells of uneven rational widths.

    Zero-density cells are interleaved at random (each gap takes another
    one with probability 0.3, so runs of them occur), and the densities
    are rescaled to total mass 1.
    """
    dens = []
    for _ in range(positive):
        while rng.random() < 0.3:
            dens.append(0)
        dens.append(rng.randrange(1, 50))
    widths = [Fraction(rng.randrange(1, 9), 7) for _ in dens]
    bps = tuple(itertools.accumulate(widths, initial=Fraction(0)))
    mass = sum(d * w for d, w in zip(dens, widths))
    return StepMeasure(bps, tuple(d / mass for d in dens))


def step_map_oracle(source: StepMeasure):
    """The bisection quantile map, the oracle for ``StepMeasure.quantiles``.

    A u falls in the last positive-density cell whose float CDF at its
    left end is at most u: one ``bisect_right`` over the float starts of
    the positive cells that skips the first start, so u = 0 lands in the
    first cell and a u past the float total mass in the last one.
    """
    den, cum, dens = source._cdf_table
    cells = [(float(source.breakpoints[k]), cum[k] / den, d / den) for k, d in enumerate(dens) if d]
    starts = [c for _, c, _ in cells]
    bisect_right, hi = bisect.bisect_right, len(cells)
    return lambda us: [
        left + (u - c) / d
        for u in us
        for left, c, d in (cells[bisect_right(starts, u, 1, hi) - 1],)
    ]


def refine_oracle(measure: StepMeasure, points) -> StepMeasure:
    """The scanning refinement, the oracle for ``StepMeasure.refine``: each new cell
    takes the density of the last old cell starting at or before it."""
    lo, hi = measure.support
    extra = [Fraction(p) for p in points if lo < Fraction(p) < hi]
    bps = sorted(set(measure.breakpoints) | set(extra))
    dens = []
    for b1 in bps[:-1]:
        k = max(i for i, b in enumerate(measure.breakpoints) if b <= b1)
        dens.append(measure.densities[k])
    return StepMeasure(tuple(bps), tuple(dens))


def canonical_pair_oracle(mu: StepMeasure, nu: StepMeasure) -> tuple[StepMeasure, StepMeasure]:
    """The checks of ``CanonicalPair``, with the same errors, through ``refine_oracle``:
    (mu, nu) on the union of their breakpoints."""
    grid = sorted(set(mu.breakpoints) | set(nu.breakpoints))
    mu = refine_oracle(mu, grid) if mu.breakpoints != tuple(grid) else mu
    nu = refine_oracle(nu, grid) if nu.breakpoints != tuple(grid) else nu
    if mu.breakpoints != nu.breakpoints:
        raise WordchainError("mu and nu must live on a common support")
    if mu.support != (Fraction(0), Fraction(1)):
        raise WordchainError("canonical pairs live on [0, 1]")
    for k, (dm, dn) in enumerate(zip(mu.densities, nu.densities)):
        if dm + dn != 2:
            raise WordchainError(
                f"densities on cell {k} add to {format_fraction(dm + dn)}, expected 2 "
                "(the average of the pair must be Lebesgue measure)"
            )
    return mu, nu


def _extend_support(measure: StepMeasure, lo: Fraction, hi: Fraction) -> StepMeasure:
    """measure with zero-density cells added out to [lo, hi]."""
    bps = list(measure.breakpoints)
    dens = list(measure.densities)
    if lo < bps[0]:
        bps.insert(0, lo)
        dens.insert(0, Fraction(0))
    if hi > bps[-1]:
        bps.append(hi)
        dens.append(Fraction(0))
    return StepMeasure(tuple(bps), tuple(dens))


def canonicalize_oracle(zeta: StepMeasure, eta: StepMeasure) -> CanonicalPair:
    """The push-forward by the mixture CDF through ``_extend_support`` and
    ``refine_oracle``, the oracle for ``canonicalize``."""
    grid = sorted(set(zeta.breakpoints) | set(eta.breakpoints))
    lo, hi = grid[0], grid[-1]
    z = refine_oracle(_extend_support(zeta, lo, hi), grid)
    e = refine_oracle(_extend_support(eta, lo, hi), grid)
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


def suffix_counts(u: str) -> list[tuple[int, int]]:
    """(A_i, B_i) = letters a and b in the suffix u[i-1:], for i = 1..|u|.

    A_1 = B_1 = size(u) for balanced u, and the final entry has A + B = 1.
    The Plackett-Luce law is (n!)^2 alpha^n beta^n / prod_i (A_i alpha + B_i beta).
    """
    word_size(u)
    return [(u.count("a", i), u.count("b", i)) for i in range(len(u))]


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


def atomic_selection_counts_oracle(y: str, m: int) -> dict[str, int]:
    """Count the selections of m a-atoms and m b-atoms of y's empirical pair by pattern.

    Enumerates every m-subset of a-positions paired with every m-subset of
    b-positions, C(N, m)^2 selections for y of size N, and reads y at the
    sorted selected positions.
    """
    a_pos, b_pos = ([i for i, ch in enumerate(y) if ch == c] for c in "ab")
    counts: dict[str, int] = {}
    for a_sel in itertools.combinations(a_pos, m):
        for b_sel in itertools.combinations(b_pos, m):
            pattern = "".join([y[i] for i in sorted(a_sel + b_sel)])
            counts[pattern] = counts.get(pattern, 0) + 1
    return counts


def enumerate_balanced_oracle(n: int) -> list[str]:
    """The balanced words of size n, grown letter by letter with a before b,
    which lists them in lexicographic order."""
    out: list[str] = []

    def grow(prefix: str, rem_a: int, rem_b: int) -> None:
        if rem_a == 0 and rem_b == 0:
            out.append(prefix)
        if rem_a:
            grow(prefix + "a", rem_a - 1, rem_b)
        if rem_b:
            grow(prefix + "b", rem_a, rem_b - 1)

    grow("", n, n)
    return out


def recurrence_closure_oracle(count) -> tuple[int, list[str]]:
    """(checked, failures) of the subword recurrence family, one identity at a time.

    The same identities and failure lines, in the same order, as
    verify.check_recurrence_closure, with the counts read from `count`: per
    row binom(w, "") = 1 and binom(w, v) = 0 for |v| = |w| + 1, |w| + 2, and
    binom(w + y, v + x) = binom(w, v + x) + [x == y] binom(w, v), on words
    of at most 8 letters.
    """
    res = CheckResult("subword recurrence closure")
    max_len = 8
    words_by_len = [enumerate_words(k) for k in range(max_len + 1)]

    def row(w: str) -> dict[str, int]:
        n = len(w)
        counts = {u: count(w, u) for ws in words_by_len[: min(n + 1, max_len) + 1] for u in ws}
        res.checked += 1
        if counts[""] != 1:
            res.fail(f"binom({w!r}, empty) != 1")
        for v in itertools.chain.from_iterable(words_by_len[n + 1 : n + 3]):
            res.checked += 1
            if (counts[v] if len(v) == n + 1 else count(w, v)) != 0:
                res.fail(f"binom({w!r}, {v!r}) != 0 despite |w| < |v|")
        return counts

    stack = [("", row(""))]
    while stack:
        w, row_w = stack.pop()
        rows = {y: row(w + y) for y in "ab"}
        for v in (v for ws in words_by_len[: len(w) + 1] for v in ws):
            for x in "ab":
                for y in "ab":
                    res.checked += 1
                    rhs = row_w[v + x] + (row_w[v] if x == y else 0)
                    if rows[y][v + x] != rhs:
                        res.fail(f"recurrence broken at w={w!r} v={v!r} x={x} y={y}")
        if len(w) + 1 < max_len:
            stack.extend((w + y, rows[y]) for y in "ba")  # a-child popped first
    return res.checked, res.failures


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


_STEP_STARTS: dict[int, tuple] = {}  # id(measure) -> (measure, positive cells, float starts)


def _step_starts(source: StepMeasure) -> tuple[list[int], list[float]]:
    """The positive cells of a step measure and the float CDF at the start of each, from
    Fraction prefix sums of the cell masses taken once per measure (keyed by identity,
    since hashing a measure hashes every breakpoint)."""
    entry = _STEP_STARTS.get(id(source))
    if entry is None:
        ends = list(itertools.accumulate(source.cell_masses()))
        cells = [k for k, d in enumerate(source.densities) if d]
        entry = _STEP_STARTS[id(source)] = (source, cells, [0.0, *(float(ends[k]) for k in cells)])
    return entry[1], entry[2]


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
        cells, cum = _step_starts(source)
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


def pattern_matches_oracle(pair, w: str, trials: int, rng: random.Random) -> list[bool]:
    """The per-trial pattern experiment, the oracle for ``pattern_matches``.

    Each trial draws m values of mu, then m of nu, through the pair's
    drawers and reads their interleaving; tied values read no pattern.
    """
    m = word_size(w)
    if isinstance(pair, AtomicPair):
        draw_mu, draw_nu = pair.drawers(rng)
    else:
        draw_mu, draw_nu = pair.mu.drawer(rng), pair.nu.drawer(rng)
    return [interleave_pattern(draw_mu(m), draw_nu(m)) == w for _ in range(trials)]


def moment_samples_oracle(sampler, n: int, trials: int) -> list[tuple[float, float]]:
    """The per-run moment loop, the oracle for ``moment_samples``: one ``sampler.run(n + 1)``
    per trial, scored by prod_k (1{a_k < t} + 1{b_k < t}) / 2^n for t = a_{n+1} and b_{n+1}."""
    out = []
    for _ in range(trials):
        run = sampler.run(n + 1)
        va, vb = run.values_a, run.values_b
        mu_prod = nu_prod = 1
        for k in range(n):
            mu_prod *= (va[k] < va[n]) + (vb[k] < va[n])
            nu_prod *= (va[k] < vb[n]) + (vb[k] < vb[n])
        out.append((0.5**n * mu_prod, 0.5**n * nu_prod))
    return out


def main_apart(argv, start_method=None, stubs=None) -> subprocess.CompletedProcess:
    """cli.main(argv) run in a fresh interpreter, for a test that runs a real process pool.

    A pool's manager thread outlives the pool's shutdown for a moment, and on
    Python 3.12 a pool forked after it in the same process warns that the
    process is multi-threaded, so each multi-worker run gets an interpreter
    of its own.  ``start_method`` is forced first; ``stubs`` (a dict from a
    family name to the name of a ``verify_stubs`` function, or {}) replaces
    every verify family by a one-identity stub or its override.
    """
    code = textwrap.dedent(f"""\
        import multiprocessing, sys
        from functools import partial
        import verify_stubs
        from wordchain import cli, verify
        if {start_method!r} is not None:
            multiprocessing.set_start_method({start_method!r})
        if {stubs!r} is not None:
            overrides = {{name: getattr(verify_stubs, stub) for name, stub in {stubs!r}.items()}}
            verify.run_family = partial(verify_stubs.run_family, overrides=overrides)
        sys.exit(cli.main({list(argv)!r}))
    """)
    path = os.pathsep.join([str(Path(wordchain.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def refuse_a_second_pool(cls) -> None:
    """Make cls.__init__ raise when a second instance is built in this process.

    A second real process pool in the test process is the case main_apart
    exists for: on Python 3.12 it may fork while the first pool's manager
    thread exits, which only warns.  Forked children build freely.
    """
    init, pid, built = cls.__init__, os.getpid(), []

    @functools.wraps(init)
    def guarded(self, *args, **kwargs):
        if os.getpid() == pid:
            if built:
                raise RuntimeError(f"a second {cls.__name__} in the test process: "
                                   "run the command through conftest.main_apart")
            built.append(True)
        init(self, *args, **kwargs)

    cls.__init__ = guarded


def pytest_configure(config):
    from concurrent.futures.process import ProcessPoolExecutor

    refuse_a_second_pool(ProcessPoolExecutor)


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
