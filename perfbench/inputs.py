"""Seeded input generator for the benchmark workloads.

Everything here is plain data (strings, ints, rational numbers written as
"p/q" strings) built from the workload seed by the benchmark's own RNG, so
the generator imports nothing from the package under test.  A round's inputs
depend only on (workload, seed, round index); stochastic ops also carry an
integer from which the worker builds a fresh ``random.Random``.

Sizes are stratified within a round: one draw near the middle of each
equal stratum of the stated range.  Every round and seed then does a
similar amount of work, which keeps run-to-run spread low, while the words,
pairs and rates still change with the seed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from fractions import Fraction

EXACT_MIX = (  # (op kind, count per round of 20 queries)
    ("kernels.multi_step_prob", 2),
    ("kernels.dm_kernel", 2),
    ("plackett_luce.pl_word_prob", 2),
    ("plackett_luce.pl_transition", 2),
    ("measures.step_pattern", 4),
    ("measures.atomic_pattern", 3),
    ("measures.pattern_distribution", 2),
    ("bridges.htransform_row", 2),
    ("boundary.convergence_report", 1),
)
KERNEL_SIZES = (500, 2000)
STEP_M = 6
DIST_M = 5
PAIR_CELLS = (2, 8)
ATOMIC_SIZES = (6, 10)
HROW_SIZES = (3, 5)
BOUNDARY_SIZES = (200, 2000)
BOUNDARY_WORDS = 8
BOUNDARY_M_MAX = 3

# The package's named fixture pairs, copied as (breakpoints, mu densities);
# nu is 2 - mu on every cell.
FIXTURES = {
    "lebesgue": (("0", "1"), ("1",)),
    "separated": (("0", "1/2", "1"), ("2", "0")),
    "crossed": (("0", "1/2", "1"), ("1/2", "3/2")),
    "three-cell": (("0", "1/3", "2/3", "1"), ("2", "1/2", "1/2")),
    "skewed": (("0", "1/4", "1"), ("2", "2/3")),
}

IB_SIZES = (500, 1000, 2000)
FORWARD_STEPS = 4000
FINITE_TARGET = 2000
ORDER_DEPTH = 500
ORDER_TRIALS = 1000
MC_TRIALS = 100_000
MOMENT_ORDER = 2
PL_SIZE = 2000
LABEL_DEPTH = 40
CLI_BRIDGE_STEPS = 1000
CLI_JOBS = 2
JITTER = 0.15


def _rng(*parts) -> random.Random:
    digest = hashlib.sha256(":".join(map(str, ("perfbench",) + parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer near the middle of each of `count` equal strata of [lo, hi].

    The draw is jittered by up to JITTER of the stratum width, so a round's
    work changes little from seed to seed while its inputs all change.
    """
    width = (hi - lo + 1) / count
    return [
        min(hi, lo + int(width * (k + 0.5 + JITTER * (2 * rng.random() - 1))))
        for k in range(count)
    ]


def balanced_word(rng: random.Random, n: int) -> str:
    letters = ["a"] * n + ["b"] * n
    rng.shuffle(letters)
    return "".join(letters)


def random_subword(rng: random.Random, w: str, m: int) -> str:
    a_pos = [i for i, ch in enumerate(w) if ch == "a"]
    b_pos = [i for i, ch in enumerate(w) if ch == "b"]
    keep = sorted(rng.sample(a_pos, m) + rng.sample(b_pos, m))
    return "".join(w[i] for i in keep)


def insert_pair(rng: random.Random, u: str) -> str:
    """u with one a and then one b shuffled in (a one-step successor)."""
    i = rng.randrange(len(u) + 1)
    mid = u[:i] + "a" + u[i:]
    j = rng.randrange(len(mid) + 1)
    return mid[:j] + "b" + mid[j:]


def random_pair(rng: random.Random, cells: int) -> dict:
    """A canonical pair on `cells` cells of [0,1] with small denominators."""
    denom = 4 * cells
    cuts = sorted(rng.sample(range(1, denom), cells - 1))
    bps = [Fraction(0)] + [Fraction(c, denom) for c in cuts] + [Fraction(1)]
    lengths = [b - a for a, b in zip(bps, bps[1:])]
    raw = [Fraction(rng.randint(0, 8), 4) for _ in range(cells)]
    total = sum(t * l for t, l in zip(raw, lengths))
    spread = max(abs(t - total) for t in raw)
    scale = min(Fraction(1), 1 / spread) if spread else Fraction(1)
    mu = [1 + scale * (t - total) for t in raw]
    return pair_data([str(b) for b in bps], [str(d) for d in mu])


def pair_data(bps, mu) -> dict:
    """The JSON form of a canonical pair (the package's CanonicalPair.to_json)."""
    return {
        "mu": {"breakpoints": list(bps), "densities": list(mu)},
        "nu": {"breakpoints": list(bps), "densities": [str(2 - Fraction(d)) for d in mu]},
    }


def _cell_sampler(data: dict, which: str):
    bps = [Fraction(b) for b in data[which]["breakpoints"]]
    dens = [Fraction(d) for d in data[which]["densities"]]
    cells = [(float(a), float(b - a)) for a, b, d in zip(bps, bps[1:], dens) if d > 0]
    masses = [float(d * (b - a)) for a, b, d in zip(bps, bps[1:], dens) if d > 0]
    cum = [sum(masses[: k + 1]) for k in range(len(masses))]

    def draw(rng: random.Random) -> float:
        k = min(bisect.bisect_right(cum, rng.random() * cum[-1]), len(cells) - 1)
        lo, width = cells[k]
        return lo + width * rng.random()

    return draw


def pattern_from_pair(rng: random.Random, data: dict, n: int) -> str:
    """Interleaving word of n draws from mu and n from nu (the benchmark's sampler)."""
    draw_mu = _cell_sampler(data, "mu")
    draw_nu = _cell_sampler(data, "nu")
    tagged = sorted([(draw_mu(rng), "a") for _ in range(n)] + [(draw_nu(rng), "b") for _ in range(n)])
    return "".join(ch for _, ch in tagged)


def forward_path(rng: random.Random, n: int) -> list[str]:
    letters: list[str] = []
    path = [""]
    for _ in range(n):
        letters.insert(rng.randrange(len(letters) + 1), "a")
        letters.insert(rng.randrange(len(letters) + 1), "b")
        path.append("".join(letters))
    return path


def exact_round(seed: int, rnd: int) -> list[dict]:
    """The 20 queries of one round of the `exact` workload, in the order they are sent."""
    rng = _rng("exact", seed, rnd)
    ops: list[dict] = []
    for kind, count in EXACT_MIX:
        if kind.startswith(("kernels.", "plackett_luce.")):
            for size in _stratified(rng, *KERNEL_SIZES, count):
                if kind.startswith("kernels."):
                    w = balanced_word(rng, size)
                    ops.append({"kind": kind, "v": random_subword(rng, w, size // 10), "w": w})
                else:
                    u = balanced_word(rng, size)
                    op = {"kind": kind, "alpha": rng.randint(1, 9), "beta": rng.randint(1, 9), "u": u}
                    if kind.endswith("pl_transition"):
                        op["v"] = insert_pair(rng, u)
                    ops.append(op)
        elif kind in ("measures.step_pattern", "measures.pattern_distribution"):
            for cells in _stratified(rng, *PAIR_CELLS, count):
                pair = random_pair(rng, cells)
                op = {"kind": kind, "pair": pair, "cells": cells}
                if kind == "measures.step_pattern":
                    op["w"] = pattern_from_pair(rng, pair, STEP_M)
                else:
                    op["m"] = DIST_M
                ops.append(op)
        elif kind == "measures.atomic_pattern":
            for m, size in zip((2, 3, 3), _stratified(rng, *ATOMIC_SIZES, count)):
                ops.append({"kind": kind, "y": balanced_word(rng, size), "w": balanced_word(rng, m)})
        elif kind == "bridges.htransform_row":
            names = sorted(FIXTURES)  # rotated by round: five rounds cover each twice
            for k, size in enumerate(_stratified(rng, *HROW_SIZES, count)):
                name = names[(count * rnd + k) % len(names)]
                pair = pair_data(*FIXTURES[name])
                ops.append({"kind": kind, "fixture": name, "pair": pair,
                            "u": pattern_from_pair(rng, pair, size)})
        else:
            pair = random_pair(rng, rng.randint(*PAIR_CELLS))
            sizes = sorted(_stratified(rng, *BOUNDARY_SIZES, BOUNDARY_WORDS))
            ops.append({"kind": kind, "pair": pair, "m_max": BOUNDARY_M_MAX,
                        "seq": [pattern_from_pair(rng, pair, s) for s in sizes]})
    rng.shuffle(ops)
    return ops


def sample_round(seed: int, rnd: int) -> dict:
    """Inputs of one round of the `sample` workload."""
    rng = _rng("sample", seed, rnd)
    pair = random_pair(rng, rng.randint(*PAIR_CELLS))
    return {
        "pair": pair,
        "finite_target": balanced_word(rng, FINITE_TARGET),
        "pattern": pattern_from_pair(rng, pair, 3),
        "rates": [rng.randint(1, 5), rng.randint(1, 5)],
        "path": forward_path(rng, LABEL_DEPTH),
        "streams": [rng.getrandbits(63) for _ in range(16)],
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def self_test(seed: int) -> list[str]:
    """Same seed -> byte-identical inputs; another seed -> different inputs."""
    problems = []
    for name, gen in (("exact", exact_round), ("sample", sample_round)):
        first, again, other = digest(gen(seed, 0)), digest(gen(seed, 0)), digest(gen(seed + 1, 0))
        if first != again:
            problems.append(f"{name}: seed {seed} gave two different input digests")
        if first == other:
            problems.append(f"{name}: seeds {seed} and {seed + 1} gave the same inputs")
        if digest(gen(seed, 1)) == first:
            problems.append(f"{name}: rounds 0 and 1 of seed {seed} gave the same inputs")
    return problems
