"""Output checks for the benchmark's ops, independent of the package's random streams.

Each check returns None when the output is right and a one-line reason when
it is not.  Exact outputs are checked against identities and the
benchmark's own reference computations; sampler outputs against structural
invariants (grading, subword-of-successor) checked in linear time per step;
estimates against closed forms within five standard errors.  None of them
compares sampled values to recorded ones, so a declared change of a seeded
stream cannot fail a check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

Z_LIMIT = 5


def subword_count_ref(w: str, v: str) -> int:
    """Embeddings of v in w as a scattered subword (the benchmark's own DP)."""
    dp = [1] + [0] * len(v)
    for ch in w:
        for j in range(len(v), 0, -1):
            if v[j - 1] == ch:
                dp[j] += dp[j - 1]
    return dp[-1]


def balanced_words(m: int) -> list[str]:
    return [w for w in ("".join(p) for p in product("ab", repeat=2 * m)) if w.count("a") == m]


def _common_prefix(x: str, y: str, start: int = 0) -> int:
    lo, hi = start, min(len(x), len(y))
    while lo < hi:  # binary search on slice equality, which runs in C
        mid = (lo + hi + 1) // 2
        if x[start:mid] == y[start:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def drops_one_pair(v: str, w: str) -> bool:
    """True when v is w with one a and one b deleted.

    Deleting at the first mismatch is always a valid choice for a subword
    one letter shorter (a run of equal letters deletes to the same word),
    so two greedy deletions decide the relation in linear time.
    """
    if len(w) != len(v) + 2:
        return False
    removed = []
    for _ in range(2):
        i = _common_prefix(v, w)
        if i == len(w):
            return False
        removed.append(w[i])
        w = w[:i] + w[i + 1:]
    return w == v and sorted(removed) == ["a", "b"]


def check_path(path: list[str], steps: int, target: str | None = None) -> str | None:
    if len(path) != steps + 1 or path[0] != "":
        return f"path has {len(path)} states, expected {steps + 1} starting at the empty word"
    for k in range(1, len(path)):
        w = path[k]
        if len(w) != 2 * k or w.count("a") != k or w.strip("ab"):
            return f"state {k} is not a balanced word of size {k}"
        if not drops_one_pair(path[k - 1], w):
            return f"state {k - 1} is not its successor minus one (a, b) pair"
    if target is not None and path[-1] != target:
        return "path does not end at its target"
    return None


def check_balanced(word: str, n: int) -> str | None:
    if len(word) != 2 * n or word.count("a") != n or word.strip("ab"):
        return f"output is not a balanced word of size {n}"
    return None


def check_infinite_bridge(words: list[str], xs: list[float], ys: list[float], n: int) -> str | None:
    """Deleting the newest latent pair from the word at step k gives step k-1."""
    if len(xs) != n or len(ys) != n or len(words) != n + 1:
        return f"bridge holds {len(xs)}/{len(ys)} points and {len(words)} words, expected {n}"
    values = sorted(xs + ys)
    if len(set(values)) != 2 * n:
        return "latent points are not distinct"
    rank = {v: i + 1 for i, v in enumerate(values)}
    tree = [0] * (2 * n + 1)  # Fenwick tree over the ranks inserted so far

    def add(i: int) -> None:
        while i <= 2 * n:
            tree[i] += 1
            i += i & -i

    def below(i: int) -> int:
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    for k in range(1, n + 1):
        rx, ry = rank[xs[k - 1]], rank[ys[k - 1]]
        add(rx)
        add(ry)
        px, py = below(rx) - 1, below(ry) - 1  # positions in the step-k word
        w = words[k]
        if check_balanced(w, k) or w[px] != "a" or w[py] != "b":
            return f"step {k}: word does not place the newest pair at its latent ranks"
        lo, hi = sorted((px, py))
        if w[:lo] + w[lo + 1:hi] + w[hi + 1:] != words[k - 1]:
            return f"step {k}: deleting the newest latent pair does not give step {k - 1}"
    return None


def check_labels(prefixes, path: list[str]) -> str | None:
    """Prefixes unlabel to the path, and dropping a_k, b_k gives level k-1."""
    if len(prefixes) != len(path):
        return f"{len(prefixes)} prefixes for a path of {len(path)} states"
    previous = None
    for k, (prefix, state) in enumerate(zip(prefixes, path)):
        tokens = [(letter.kind, letter.index) for letter in prefix.letters]
        if "".join(kind for kind, _ in tokens) != state:
            return f"level {k} does not unlabel to the path state"
        if previous is not None and [t for t in tokens if t[1] != k] != previous:
            return f"removing a{k}, b{k} from level {k} does not give level {k - 1}"
        previous = tokens
    return None


def within(estimate: float, truth: float, stderr: float, what: str) -> str | None:
    if abs(estimate - truth) > Z_LIMIT * stderr:
        return f"{what}: {estimate:.6g} is more than {Z_LIMIT} s.e. ({stderr:.3g}) from {truth:.6g}"
    return None


def binomial_stderr(p: float, trials: int) -> float:
    """Standard error of a hit frequency at the true p, plus one lattice step."""
    return math.sqrt(p * (1 - p) / trials) + 1 / (Z_LIMIT * trials)


def step_cells(data: dict) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    bps = [Fraction(b) for b in data["mu"]["breakpoints"]]
    return [
        (a, b, Fraction(dm), Fraction(dn))
        for a, b, dm, dn in zip(bps, bps[1:], data["mu"]["densities"], data["nu"]["densities"])
    ]


def expected_d(data: dict, depth: int) -> Fraction:
    """E[d_hat(a1, b1)] at finite depth for a canonical pair.

    The letters strictly between V ~ mu and W ~ nu number (depth-1) times
    mu(I) + nu(I) = 2|I| in expectation, so E = (depth-1)/depth * E|V - W|.
    """
    cells = step_cells(data)
    mean_gap = Fraction(0)
    for a1, b1, dm, _ in cells:
        for a2, b2, _, dn in cells:
            l1, l2 = b1 - a1, b2 - a2
            if a1 == a2:
                gap = l1**3 / 3
            else:
                gap = l1 * l2 * abs((a1 + b1) - (a2 + b2)) / 2
            mean_gap += dm * dn * gap
    return Fraction(depth - 1, depth) * mean_gap


def expected_f_exp(alpha: int, beta: int, index_kind: str, depth: int) -> Fraction:
    """E[f_hat(x)] at finite depth for a-letters ~ Exp(alpha), b-letters ~ Exp(beta)."""
    p_ab = Fraction(beta, alpha + beta)  # P{b-value below an a-value}
    if index_kind == "a":
        return (Fraction(depth - 1, 2) + depth * p_ab) / (2 * depth)
    return (depth * (1 - p_ab) + Fraction(depth - 1, 2)) / (2 * depth)


def exp_pair_moments(alpha: int, beta: int, n: int) -> tuple[Fraction, Fraction]:
    """n-th moments of the canonical pair of (Exp(alpha), Exp(beta)).

    The mixture CDF is G(z) = 1 - (e^{-alpha z} + e^{-beta z}) / 2, and the
    mu-moment is E[G(V)^n] for V ~ Exp(alpha); expanding the power gives a
    finite sum of E[e^{-c V}] = rate / (rate + c).
    """

    def moment(rate: int) -> Fraction:
        total = Fraction(0)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                coef = math.factorial(n) // (math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))
                total += coef * Fraction(-1, 2) ** (i + j) * Fraction(rate, rate + i * alpha + j * beta)
        return total

    return moment(alpha), moment(beta)


def check_kernel_pair(value: Fraction, root: Fraction, v: str, w: str) -> str | None:
    """multi_step_prob(v, w) and multi_step_prob("", w) = 1/C(2n, n)."""
    n_w, n_v = len(w) // 2, len(v) // 2
    if root != Fraction(1, math.comb(2 * n_w, n_w)):
        return "multi_step_prob('', w) != 1/C(2n, n)"
    steps = n_w - n_v
    denom = math.prod(range(2 * n_v + 1, 2 * n_w + 1))
    count = value * denom / math.factorial(steps) ** 2
    if not 0 < value <= 1 or count.denominator != 1:
        return "multi_step_prob(v, w) is not binom(w, v) n!^2 / ((2m+1)...(2m+2n)) for an integer binom >= 1"
    return None


def check_dm(value: Fraction, v: str, w: str) -> str | None:
    m, k = len(v) // 2, len(w) // 2
    count = value * math.comb(k, m) ** 2 / math.comb(2 * m, m)
    if value <= 0 or count.denominator != 1:
        return "dm_kernel(v, w) is not binom(w, v) C(2m, m) / C(m+n, m)^2 for an integer binom >= 1"
    return None


def check_probability(value: Fraction, positive: bool) -> str | None:
    if not (0 < value if positive else 0 <= value) or value > 1:
        return f"probability {value} outside {'(0, 1]' if positive else '[0, 1]'}"
    return None


def check_law(law: dict, keys: list[str] | None, what: str) -> str | None:
    if keys is not None and sorted(law) != keys:
        return f"{what} is not indexed by the expected words"
    if any(p < 0 for p in law.values()) or sum(law.values()) != 1:
        return f"{what} does not sum to 1"
    return None


def check_atomic(value: Fraction, y: str, w: str) -> str | None:
    """(N^m)^2 * P = (m!)^2 * binom(y, w), with binom from the benchmark's DP."""
    big_n, m = len(y) // 2, len(w) // 2
    if big_n ** (2 * m) * value != math.factorial(m) ** 2 * subword_count_ref(y, w):
        return "atomic pattern probability breaks (N^m)^2 P = (m!)^2 binom(y, w)"
    return None


def check_report(report, seq: list[str], m_max: int) -> str | None:
    """Selection ratios of every word, and the targets, are laws on each W_m."""
    if report.sizes != [len(y) // 2 for y in seq]:
        return "report sizes do not match the sequence"
    for m in range(1, m_max + 1):
        words = balanced_words(m)
        if sum(report.targets[w] for w in words) != 1:
            return f"targets over W_{m} do not sum to 1"
        for k in range(len(seq)):
            if sum(report.ratios[w][k] for w in words) != 1:
                return f"kernel ratios of word {k} over W_{m} do not sum to 1"
    return None
