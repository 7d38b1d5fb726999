"""The exact-identity verification suite.

Every check here is deterministic rational arithmetic: no tolerances, no
randomness.  The CLI ``verify`` subcommand runs them all and reports one
line per identity family with the number of instances checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bridges import harmonic_h, htransform_step_prob
from .errors import CapExceededError, SizeMismatchError
from .kernels import backward_prob, dm_kernel, multi_step_prob, one_step_prob
from .measures import empirical_pair, fixture_pairs, pattern_distribution, pattern_prob_exact
from .plackett_luce import RatePair, pl_transition, pl_word_prob
from .words import enumerate_balanced, enumerate_words, subword_count, successors, word_size

BRIDGE_CHECK_CAP = 5

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
    size = word_size(w)
    if size > BRIDGE_CHECK_CAP:
        raise CapExceededError(f"word size {size} exceeds bridge check cap {BRIDGE_CHECK_CAP}")

    res = CheckResult(f"bridge conditionals to {w!r}")
    for m in range(size):
        for v in enumerate_balanced(m + 1):
            if multi_step_prob(v, w) == 0:
                continue  # conditioning event has zero probability
            for u in enumerate_balanced(m):
                lhs_num = multi_step_prob("", u) * one_step_prob(u, v)
                lhs = lhs_num / multi_step_prob("", v)
                rhs = backward_prob(u, v)
                res.checked += 1
                if lhs != rhs:
                    res.fail(f"m={m} u={u!r} v={v!r}: bridge gives {lhs}, deletion gives {rhs}")
    return res


def _atomic_pattern_counts(y: str, m: int) -> dict[str, int]:
    """Count distinct-atom selections of the empirical pair of y by pattern.

    Enumerates every m-subset of mu-atoms paired with every m-subset of
    nu-atoms, C(N, m)^2 selections for y of size N.  The atoms sit at the
    letter positions of y, so a selection's pattern is y read at the sorted
    selected positions.
    """
    a_pos, b_pos = ([i for i, ch in enumerate(y) if ch == c] for c in "ab")
    counts: dict[str, int] = {}
    for a_sel in itertools.combinations(a_pos, m):
        for b_sel in itertools.combinations(b_pos, m):
            pattern = "".join([y[i] for i in sorted(a_sel + b_sel)])
            counts[pattern] = counts.get(pattern, 0) + 1
    return counts


def empirical_identity_check(y: str, m: int) -> CheckResult:
    """Check pattern_prob_exact(empirical_pair(y), w) against atom enumeration.

    The served value is the closed form (m!)^2 * binom(y, w) / N^(2m).  The
    oracle enumerates the atom selections that read w, each of mass
    (m!)^2 / N^(2m), without the subword-count recurrence.  Both are compared
    exactly for every w of size m.
    """
    n = word_size(y)
    if m > n:
        raise SizeMismatchError(f"pattern size {m} exceeds word size {n}")

    res = CheckResult(f"empirical identity y={y!r} m={m}")
    pair = empirical_pair(y)
    counts = _atomic_pattern_counts(y, m)
    mass = Fraction(math.factorial(m) ** 2, n ** (2 * m))
    for w in enumerate_balanced(m):
        served = pattern_prob_exact(pair, w)
        enumerated = counts.get(w, 0) * mass
        res.checked += 1
        if served != enumerated:
            res.fail(f"w={w!r}: served {served} != enumerated {enumerated}")
    return res


def check_recurrence_closure() -> CheckResult:
    """The three defining properties of the subword coefficient, on words of length <= 8."""
    res = CheckResult("subword recurrence closure")
    max_len = 8
    words_by_len = [enumerate_words(k) for k in range(max_len + 1)]
    all_words = [w for ws in words_by_len for w in ws]
    for w in all_words:
        res.checked += 1
        if subword_count(w, "") != 1:
            res.fail(f"binom({w!r}, empty) != 1")
    for w in all_words:
        for extra in range(1, 3):
            if len(w) + extra > max_len:
                continue
            for v in words_by_len[len(w) + extra]:
                res.checked += 1
                if subword_count(w, v) != 0:
                    res.fail(f"binom({w!r}, {v!r}) != 0 despite |w| < |v|")
    for w in (w for ws in words_by_len[: max_len] for w in ws):
        for v in (v for k in range(len(w) + 1) for v in words_by_len[k]):
            base = subword_count(w, v)
            for x in "ab":
                ext = subword_count(w, v + x)
                for y in "ab":
                    res.checked += 1
                    lhs = subword_count(w + y, v + x)
                    rhs = ext + (base if x == y else 0)
                    if lhs != rhs:
                        res.fail(f"recurrence broken at w={w!r} v={v!r} x={x} y={y}")
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


def _count_matrices(max_len: int) -> tuple[list[str], list[list[int]], list[list[int]]]:
    """The index, the full subword-count matrix P and its one-step part H.

    The index holds every {a,b}-word of length <= max_len (not only balanced
    ones), ordered by (length, lexicographic), which makes P and H upper
    triangular.  P has entry (v, w) = subword_count(w, v); H keeps only the
    entries with |w| = |v| + 1.
    """
    index = [w for length in range(max_len + 1) for w in enumerate_words(length)]
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
    for m in range(5):
        for total in range(m, 5):
            for v in enumerate_balanced(m):
                bound = Fraction(1) / multi_step_prob("", v)
                for w in enumerate_balanced(total):
                    res.checked += 1
                    k = dm_kernel(v, w)
                    ratio = multi_step_prob(v, w) / multi_step_prob("", w)
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
    for size in range(1, 5):
        for w in enumerate_balanced(size):
            report = bridge_conditional_check(w)
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
    """Exponential pairs, sizes <= 3: pmf sums to 1, h-transform = pl_transition, rows sum to 1."""
    res = CheckResult("Plackett-Luce closed forms")
    for rates in PL_RATE_FIXTURES:
        for n in range(4):
            res.checked += 1
            total = sum(pl_word_prob(rates, u) for u in enumerate_balanced(n))
            if total != 1:
                res.fail(f"rates {rates}: pmf over W_{n} sums to {total}")
            for u in enumerate_balanced(n):
                res.checked += 1
                row = Fraction(0)
                for v in successors(u):
                    p = htransform_step_prob(rates, u, v)
                    if p != pl_transition(rates, u, v):
                        res.fail(f"rates {rates}: transition triangle broken at {u!r}->{v!r}")
                    row += p
                if row != 1:
                    res.fail(f"rates {rates}: transition row from {u!r} sums to {row}")
    return res


def check_harmonicity() -> CheckResult:
    """sum_v P(u,v) h(v) = h(u) for three fixture boundary points, sizes <= 3."""
    res = CheckResult("harmonicity of fixture boundary functions")
    pairs = fixture_pairs()
    for name in ("lebesgue", "separated", "three-cell"):
        pair = pairs[name]
        # h on every word the sweep reaches: each of size n + 1 succeeds one of size n
        h = {v: harmonic_h(pair, v) for n in range(5) for v in enumerate_balanced(n)}
        for size in range(4):
            for u in enumerate_balanced(size):
                res.checked += 1
                total = sum(one_step_prob(u, v) * h[v] for v in successors(u))
                if total != h[u]:
                    res.fail(f"pair {name}: harmonicity broken at {u!r}")
                if name == "lebesgue" and h[u] != 1:
                    res.fail(f"lebesgue pair: h({u!r}) = {h[u]} != 1")
    return res


def run_verification() -> list[CheckResult]:
    """Run every exact-identity family; deterministic and randomness-free."""
    return [
        check_recurrence_closure(),
        check_convolution_identity(),
        check_matrix_exponential(),
        check_chapman_kolmogorov(),
        check_kernel_ratio_law(),
        check_backward_normalization(),
        check_bridge_conditionals(),
        check_pattern_normalization(),
        check_empirical_identity(),
        check_plackett_luce(),
        check_harmonicity(),
    ]
