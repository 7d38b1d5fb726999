"""The exact-identity verification suite.

Every check here is deterministic rational arithmetic: no tolerances, no
randomness.  The CLI ``verify`` subcommand runs them all and reports one
line per identity family with the number of instances checked.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .bridges import _h_table, htransform_row
from .kernels import backward_prob, dm_kernel, multi_step_prob, one_step_prob
from .measures import empirical_pair, fixture_pairs, pattern_distribution
from .plackett_luce import RatePair, pl_transition, pl_word_prob
from .words import (
    _count_rows,
    enumerate_balanced,
    enumerate_words,
    subword_count,
    successors,
)

# The identity families in report order: family `name` is check_<name>().
FAMILIES = (
    "recurrence_closure",
    "convolution_identity",
    "matrix_exponential",
    "chapman_kolmogorov",
    "kernel_ratio_law",
    "backward_normalization",
    "bridge_conditionals",
    "pattern_normalization",
    "empirical_identity",
    "plackett_luce",
    "harmonicity",
)

# The families longest first, by traced busy time: the order a pool takes them
# in, so that no long family starts last while the other workers sit idle.
# Their busy seconds in this order, at reference CPU speed (perfbench/run.py
# --workload verify --trace 1, medians of seeds 11-13): 0.172, 0.061, 0.048,
# 0.048, 0.040, 0.030, 0.024, 0.014, 0.013, 0.006, 0.003.
_LONGEST_FIRST = (
    "empirical_identity",
    "kernel_ratio_law",
    "bridge_conditionals",
    "convolution_identity",
    "plackett_luce",
    "chapman_kolmogorov",
    "recurrence_closure",
    "matrix_exponential",
    "harmonicity",
    "backward_normalization",
    "pattern_normalization",
)

PL_RATE_FIXTURES = (
    RatePair(Fraction(2), Fraction(1)),
    RatePair(Fraction(3), Fraction(5)),
    RatePair(Fraction(1), Fraction(1)),
)


@dataclass
class CheckResult:
    """Outcome of sweeping an exact identity: instances checked, failures."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        """Record a failure; past 20 (to keep reports readable), one suppressed line."""
        if len(self.failures) < 20:
            self.failures.append(message)
        elif len(self.failures) == 20:
            self.failures.append("... further failures suppressed")


def check_recurrence_closure() -> CheckResult:
    """The three defining properties of the subword coefficient, on words of length <= 8.

    The words of length <= 8 are laid out as in _word_index.  The
    recurrence walks w depth-first and carries its row, the counts
    binom(w, u) over the index for |u| <= |w| + 2, read in one packed DP of
    w (_count_rows).  Each row is checked as it is built: binom(w, "") = 1,
    and binom(w, v) = 0 for |v| = |w| + 1 and |w| + 2.  So each count is
    read once, in no cache, and only the rows of one root-to-leaf path are
    alive.  The recurrence at w compares whole slices of the rows of w,
    w + a and w + b, one slice per (x, y); a slice that differs gives the
    index of each v it breaks at, and the failures are reported sorted by
    v, then x, then y.
    """
    res = CheckResult("subword recurrence closure")
    max_len = 8
    index = _word_index(max_len)
    # read_rows[k] reads the words of length <= k: a w of n letters reads k = min(n + 2, max_len)
    read_rows = {k: _count_rows(index[: 2 ** (k + 1) - 1]) for k in range(2, max_len + 1)}

    def row(w: str) -> tuple[int, ...]:
        n = len(w)
        counts = read_rows[min(n + 2, max_len)](w)
        res.checked += 1
        if counts[0] != 1:
            res.fail(f"binom({w!r}, empty) != 1")
        zeros = counts[2 ** (n + 1) - 1 :]  # the words of length n + 1 and n + 2
        res.checked += len(zeros)
        for v in itertools.compress(index[2 ** (n + 1) - 1 :], zeros):
            res.fail(f"binom({w!r}, {v!r}) != 0 despite |w| < |v|")
        return counts

    stack = [("", row(""))]
    while stack:
        w, row_w = stack.pop()
        rows = {y: row(w + y) for y in "ab"}
        size = 2 ** (len(w) + 1) - 1  # the words v of length <= |w|
        bases = row_w[:size]
        res.checked += 4 * size
        failing = []  # (index of v, x, y) of each broken identity
        for x in "ab":
            ext = row_w[1 + (x == "b") : 2 * size + 1 : 2]
            for y in "ab":
                lhs = rows[y][1 + (x == "b") : 2 * size + 1 : 2]
                rhs = tuple(map(operator.add, ext, bases)) if x == y else ext
                if lhs != rhs:
                    failing += ((i, x, y) for i in itertools.compress(
                        itertools.count(), map(operator.ne, lhs, rhs)))
        for i, x, y in sorted(failing):
            res.fail(f"recurrence broken at w={w!r} v={index[i]!r} x={x} y={y}")
        if len(w) + 1 < max_len:
            stack.extend((w + y, rows[y]) for y in "ba")  # a-child popped first
    return res


def check_convolution_identity() -> CheckResult:
    """sum_v binom(v,u) binom(w,v) = binom(w,u) (n+1)^2 over middle layers, sizes <= 4."""
    res = CheckResult("subword convolution identity")
    for m in range(4):
        for total in range(m + 1, 5):
            n = total - m - 1
            mids = enumerate_balanced(m + 1)
            for u in enumerate_balanced(m):
                for w in enumerate_balanced(total):
                    lhs = sum(subword_count(v, u) * subword_count(w, v) for v in mids)
                    rhs = subword_count(w, u) * (n + 1) ** 2
                    res.checked += 1
                    if lhs != rhs:
                        res.fail(f"convolution broken at u={u!r} w={w!r}")
    return res


def _word_index(max_len: int) -> list[str]:
    """Every {a,b}-word of length <= max_len, ordered by (length, lexicographic).

    The words of length k fill indices 2**k - 1 to 2**(k + 1) - 2, and the
    word at index i has its extensions v + a and v + b at 2i + 1 and 2i + 2.
    """
    return [w for length in range(max_len + 1) for w in enumerate_words(length)]


def _count_matrices(max_len: int) -> tuple[list[str], list[list[int]], list[list[int]]]:
    """The index, the full subword-count matrix P and its one-step part H.

    The index holds every {a,b}-word of length <= max_len (not only balanced
    ones), ordered by (length, lexicographic), which makes P and H upper
    triangular.  P has entry (v, w) = subword_count(w, v); H keeps only the
    entries with |w| = |v| + 1.
    """
    index = _word_index(max_len)
    p = [[subword_count(w, v) for w in index] for v in index]
    h = [
        [c if len(w) == len(v) + 1 else 0 for w, c in zip(index, row)]
        for v, row in zip(index, p)
    ]
    return index, p, h


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    size = len(a)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        row_a = a[i]
        row_out = out[i]
        for k in range(size):
            aik = row_a[k]
            if aik:
                row_b = b[k]
                for j in range(size):
                    if row_b[j]:
                        row_out[j] += aik * row_b[j]
    return out


def _matrix_exp_nilpotent(h: list[list[int]]) -> list[list[Fraction]]:
    """exp(H) for a nilpotent integer matrix H, exactly.

    H^k = 0 once k reaches the size of H, so exp(H) = sum_k H^k / k! is a
    finite sum of exact rationals.
    """
    size = len(h)
    acc = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    power = h
    for k in range(1, size + 1):
        if not any(any(row) for row in power):
            break
        inv_fact = Fraction(1, math.factorial(k))
        for i in range(size):
            for j in range(size):
                if power[i][j]:
                    acc[i][j] += power[i][j] * inv_fact
        power = _mat_mul(power, h)
    return acc


def check_matrix_exponential() -> CheckResult:
    """exp of the one-step count matrix equals the full count matrix."""
    res = CheckResult("exp(H) = P on words of length <= 5")
    index, p, h = _count_matrices(5)
    size = len(index)
    for i in range(size):
        if p[i][i] != 1:
            res.fail(f"P diagonal at {index[i]!r} is not 1")
        if h[i][i] != 0:
            res.fail(f"H diagonal at {index[i]!r} is not 0")
    exp_h = _matrix_exp_nilpotent(h)
    for i in range(size):
        for j in range(size):
            res.checked += 1
            if exp_h[i][j] != p[i][j]:
                res.fail(f"exp(H) != P at ({index[i]!r}, {index[j]!r})")
    return res


def check_chapman_kolmogorov() -> CheckResult:
    """Composing one-step kernels reproduces the multi-step formula, sizes <= 4."""
    res = CheckResult("Chapman-Kolmogorov composition")
    for m in range(4):
        for total in range(m + 1, 5):
            for v in enumerate_balanced(m):
                composed = {v: Fraction(1)}
                for _ in range(total - m):
                    nxt: dict[str, Fraction] = {}
                    for u, p_u in composed.items():
                        for w in successors(u):
                            nxt[w] = nxt.get(w, Fraction(0)) + p_u * one_step_prob(u, w)
                    composed = nxt
                for w in enumerate_balanced(total):
                    res.checked += 1
                    if composed.get(w, Fraction(0)) != multi_step_prob(v, w):
                        res.fail(f"composition != closed form at v={v!r} w={w!r}")
    return res


def check_kernel_ratio_law() -> CheckResult:
    """dm_kernel equals the ratio of hitting probabilities, plus its bound, sizes <= 4."""
    res = CheckResult("Doob-Martin kernel ratio law")
    hit = {w: multi_step_prob("", w) for n in range(5) for w in enumerate_balanced(n)}
    for m in range(5):
        for total in range(m, 5):
            for v in enumerate_balanced(m):
                bound = 1 / hit[v]
                for w in enumerate_balanced(total):
                    res.checked += 1
                    k = dm_kernel(v, w)
                    ratio = multi_step_prob(v, w) / hit[w]
                    if k != ratio or k > bound:
                        res.fail(f"kernel law broken at v={v!r} w={w!r}")
    return res


def check_backward_normalization() -> CheckResult:
    """Backward deletion probabilities from any word of size 1 to 4 sum to 1."""
    res = CheckResult("backward kernel normalization")
    for size in range(1, 5):
        smaller = enumerate_balanced(size - 1)
        for v in enumerate_balanced(size):
            res.checked += 1
            total = sum(backward_prob(u, v) for u in smaller)
            if total != 1:
                res.fail(f"backward row from {v!r} sums to {total}")
    return res


def check_bridge_conditionals() -> CheckResult:
    """Bridge conditionals equal the universal deletion dynamics, targets of size 1 to 4.

    For a target w and m < size(w), P{U_m = u | U_{m+1} = v, endpoint w} is
    assembled from first principles: conditioned on hitting w, the
    probability of passing through u then v factorizes over multi-step
    kernels, and the v -> w leg cancels.  It must equal the deletion
    probability subword_count(v, u)/(m+1)^2, in exact rationals, for every
    (u, v) pair with the conditioning event possible.
    """
    res = CheckResult("bridge conditional = deletion dynamics")
    # (u, v) -> (bridge, deletion): neither side depends on the target, so the targets share it
    sides: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}
    for size in range(1, 5):
        for w in enumerate_balanced(size):
            for m in range(size):
                smaller = enumerate_balanced(m)
                for v in enumerate_balanced(m + 1):
                    if multi_step_prob(v, w) == 0:
                        continue  # conditioning event has zero probability
                    for u in smaller:
                        if (u, v) not in sides:
                            lhs_num = multi_step_prob("", u) * one_step_prob(u, v)
                            sides[u, v] = (lhs_num / multi_step_prob("", v), backward_prob(u, v))
                        lhs, rhs = sides[u, v]
                        res.checked += 1
                        if lhs != rhs:
                            res.fail(f"target {w!r}: m={m} u={u!r} v={v!r}: "
                                     f"bridge gives {lhs}, deletion gives {rhs}")
    return res


def check_pattern_normalization() -> CheckResult:
    """Pattern probabilities of each fixture pair form a distribution, sizes 1 to 3."""
    res = CheckResult("pattern probability normalization")
    for name, pair in fixture_pairs().items():
        for m in range(1, 4):
            res.checked += 1
            total = sum(pattern_distribution(pair, m).values())
            if total != 1:
                res.fail(f"pair {name}: patterns of size {m} sum to {total}")
    return res


def _atomic_pattern_counts(y: str, m: int) -> Counter[str]:
    """Count distinct-atom selections of the empirical pair of y by pattern.

    The atoms sit at the letter positions of y, so a selection of m a-atoms
    and m b-atoms reads as y at its 2m sorted positions.  Every 2m-subset of
    y's positions is enumerated and read in order; the balanced readings
    are exactly the C(N, m)^2 selections, for y of size N.
    """
    return Counter(map("".join, itertools.combinations(y, 2 * m)))


def check_empirical_identity() -> CheckResult:
    """Empirical-pair pattern probabilities match atom enumeration exactly.

    Swept over words y of size 1 to 6 and patterns of size 1 to 2.  The
    served value, pattern_distribution(empirical_pair(y), m), is the closed
    form (m!)^2 * binom(y, w) / N^(2m) for y of size N.  The oracle counts
    the atom selections that read w, each of mass (m!)^2 / N^(2m), without
    the subword-count recurrence.  Both are compared for every w of size m.
    """
    res = CheckResult("empirical pattern identity")
    for size in range(1, 7):
        for y in enumerate_balanced(size):
            for m in range(1, min(2, size) + 1):
                counts = _atomic_pattern_counts(y, m)
                # an atom selection's mass, weight / scale
                weight, scale = math.factorial(m) ** 2, size ** (2 * m)
                for w, served in pattern_distribution(empirical_pair(y), m).items():
                    res.checked += 1
                    # served == counts[w] * weight / scale, cross-multiplied
                    if served.numerator * scale != counts[w] * weight * served.denominator:
                        enumerated = counts[w] * Fraction(weight, scale)
                        res.fail(f"y={y!r} m={m}: w={w!r}: "
                                 f"served {served} != enumerated {enumerated}")
    return res


def check_plackett_luce() -> CheckResult:
    """Exponential pairs, sizes <= 3: pmf sums to 1, h-transform rows = pl_transition, sum to 1."""
    res = CheckResult("Plackett-Luce closed forms")
    for rates in PL_RATE_FIXTURES:
        for n in range(4):
            res.checked += 1
            total = sum(pl_word_prob(rates, u) for u in enumerate_balanced(n))
            if total != 1:
                res.fail(f"rates {rates}: pmf over W_{n} sums to {total}")
            for u in enumerate_balanced(n):
                res.checked += 1
                row = htransform_row(rates, u)
                if row.keys() != successors(u).keys():
                    res.fail(f"rates {rates}: transition row from {u!r} is not over its successors")
                for v, p in row.items():
                    if p != pl_transition(rates, u, v):
                        res.fail(f"rates {rates}: transition triangle broken at {u!r}->{v!r}")
                total = sum(row.values())
                if total != 1:
                    res.fail(f"rates {rates}: transition row from {u!r} sums to {total}")
    return res


def check_harmonicity() -> CheckResult:
    """sum_v P(u,v) h(v) = h(u) for three fixture boundary points, sizes <= 3."""
    res = CheckResult("harmonicity of fixture boundary functions")
    pairs = fixture_pairs()
    for name in ("lebesgue", "separated", "three-cell"):
        pair = pairs[name]
        # one table of h on every word the sweep reaches: sizes up to 4, successors included
        h = _h_table(pair, [v for n in range(5) for v in enumerate_balanced(n)])
        for size in range(4):
            for u in enumerate_balanced(size):
                res.checked += 1
                total = sum(one_step_prob(u, v) * h[v] for v in successors(u))
                if total != h[u]:
                    res.fail(f"pair {name}: harmonicity broken at {u!r}")
                if name == "lebesgue" and h[u] != 1:
                    res.fail(f"lebesgue pair: h({u!r}) = {h[u]} != 1")
    return res


def run_family(name: str) -> CheckResult:
    """check_<name>(), looked up when called; top-level so process pools can pickle it."""
    return globals()[f"check_{name}"]()
