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
from .errors import CapExceededError, SizeMismatchError
from .kernels import backward_prob, dm_kernel, multi_step_prob, one_step_prob
from .measures import empirical_pair, fixture_pairs, format_fraction, pattern_distribution
from .plackett_luce import RatePair, pl_transition, pl_word_prob
from .words import (
    check_count,
    enumerate_balanced,
    enumerate_words,
    subword_count,
    successors,
    word_size,
)

BRIDGE_CHECK_CAP = 5

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


def bridge_conditional_check(w: str) -> CheckResult:
    """Verify P{U_m = u | U_{m+1} = v, endpoint w} = subword_count(v,u)/(m+1)^2.

    The left side is assembled from first principles: conditioned on hitting
    w, the probability of passing through u then v factorizes over
    multi-step kernels, and the v -> w leg cancels.  Equality is asserted in
    exact rationals for every m < size(w) and every (u, v) pair with the
    conditioning event possible.
    """
    return _bridge_conditional_check(w, {})


def _bridge_conditional_check(
    w: str, sides: dict[tuple[str, str], tuple[Fraction, Fraction]]
) -> CheckResult:
    """bridge_conditional_check(w), reading and filling `sides`, (u, v) -> (lhs, rhs).

    Neither side depends on w, so the targets of one sweep share `sides`.
    """
    size = word_size(w)
    if size > BRIDGE_CHECK_CAP:
        raise CapExceededError(f"word size {size} exceeds bridge check cap {BRIDGE_CHECK_CAP}")

    res = CheckResult(f"bridge conditionals to {w!r}")
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
                    res.fail(f"m={m} u={u!r} v={v!r}: bridge gives {lhs}, deletion gives {rhs}")
    return res


def _atomic_pattern_counts(y: str, m: int) -> Counter[str]:
    """Count distinct-atom selections of the empirical pair of y by pattern.

    The atoms sit at the letter positions of y, so a selection of m a-atoms
    and m b-atoms reads as y at its 2m sorted positions.  Every 2m-subset of
    y's positions is enumerated and read in order; the balanced readings
    are exactly the C(N, m)^2 selections, for y of size N.
    """
    return Counter(map("".join, itertools.combinations(y, 2 * m)))


def empirical_identity_check(y: str, m: int) -> CheckResult:
    """Check pattern_probs(empirical_pair(y), W_m) against atom enumeration.

    The served value is the closed form (m!)^2 * binom(y, w) / N^(2m).  The
    oracle enumerates the atom selections that read w, each of mass
    (m!)^2 / N^(2m), without the subword-count recurrence.  Both are compared
    exactly for every w of size m, a count no larger than the size of y.
    """
    n = word_size(y)
    m = check_count(m, "m")
    if m > n:
        raise SizeMismatchError(f"pattern size {format_fraction(m)} exceeds word size {n}")

    res = CheckResult(f"empirical identity y={y!r} m={m}")
    counts = _atomic_pattern_counts(y, m)
    weight, scale = math.factorial(m) ** 2, n ** (2 * m)  # an atom selection's mass, weight / scale
    for w, served in pattern_distribution(empirical_pair(y), m).items():
        res.checked += 1
        # served == counts[w] * weight / scale, cross-multiplied
        if served.numerator * scale != counts[w] * weight * served.denominator:
            enumerated = counts[w] * Fraction(weight, scale)
            res.fail(f"w={w!r}: served {served} != enumerated {enumerated}")
    return res


def check_recurrence_closure() -> CheckResult:
    """The three defining properties of the subword coefficient, on words of length <= 8.

    The words of length <= 8 are laid out as in _word_index.  The
    recurrence walks w depth-first and carries its row, the list of counts
    binom(w, u) over the index for |u| <= |w| + 1.  Each row is
    checked as it is built: binom(w, "") = 1, and binom(w, v) = 0 for
    |v| = |w| + 1, read off the row, and for |v| = |w| + 2, the only counts
    asked outside a row.  So each count is asked of subword_count once, and
    only the rows of one root-to-leaf path are alive.  The recurrence at w
    compares whole slices of the rows of w, w + a and w + b; only a w with
    a mismatch is replayed identity by identity, to name each failure.
    """
    res = CheckResult("subword recurrence closure")
    max_len = 8
    index = _word_index(max_len)

    def row(w: str) -> list[int]:
        n = len(w)
        known = 2 ** (min(n + 1, max_len) + 1) - 1  # the words of length <= n + 1
        counts = list(map(subword_count, itertools.repeat(w), index[:known]))
        res.checked += 1
        if counts[0] != 1:
            res.fail(f"binom({w!r}, empty) != 1")
        longer = index[2 ** (n + 1) - 1 : 2 ** (n + 3) - 1]  # lengths n + 1, n + 2
        zeros = counts[2 ** (n + 1) - 1 :]  # the words of length n + 1, if any
        zeros += map(subword_count, itertools.repeat(w), longer[len(zeros) :])
        res.checked += len(zeros)
        if any(zeros):
            for v, c in zip(longer, zeros):
                if c != 0:
                    res.fail(f"binom({w!r}, {v!r}) != 0 despite |w| < |v|")
        return counts

    stack = [("", row(""))]
    while stack:
        w, row_w = stack.pop()
        rows = {y: row(w + y) for y in "ab"}
        size = 2 ** (len(w) + 1) - 1  # the words v of length <= |w|
        bases = row_w[:size]
        exts = {x: row_w[1 + (x == "b") : 2 * size + 1 : 2] for x in "ab"}
        res.checked += 4 * size
        if any(
            rows[y][1 + (x == "b") : 2 * size + 1 : 2]
            != (list(map(operator.add, exts[x], bases)) if x == y else exts[x])
            for x in "ab" for y in "ab"
        ):
            for i, v in enumerate(index[:size]):
                for x in "ab":
                    ext = row_w[2 * i + 1 + (x == "b")]
                    for y in "ab":
                        lhs = rows[y][2 * i + 1 + (x == "b")]
                        rhs = ext + (row_w[i] if x == y else 0)
                        if lhs != rhs:
                            res.fail(f"recurrence broken at w={w!r} v={v!r} x={x} y={y}")
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
    """Bridge conditionals equal the universal deletion dynamics, targets of size 1 to 4."""
    res = CheckResult("bridge conditional = deletion dynamics")
    sides: dict[tuple[str, str], tuple[Fraction, Fraction]] = {}  # shared by this run's targets only
    for size in range(1, 5):
        for w in enumerate_balanced(size):
            report = _bridge_conditional_check(w, sides)
            res.checked += report.checked
            for failure in report.failures:
                res.fail(f"target {w!r}: {failure}")
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


def check_empirical_identity() -> CheckResult:
    """Empirical-pair pattern probabilities match subword counts exactly.

    Swept over words y of size 1 to 6 and patterns of size 1 to 2.
    """
    res = CheckResult("empirical pattern identity")
    for size in range(1, 7):
        for y in enumerate_balanced(size):
            for m in range(1, min(2, size) + 1):
                report = empirical_identity_check(y, m)
                res.checked += report.checked
                for failure in report.failures:
                    res.fail(f"y={y!r} m={m}: {failure}")
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
