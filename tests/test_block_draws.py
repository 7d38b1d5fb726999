"""The block reader of the Monte Carlo samplers against their per-trial loops.

``pattern_matches`` and ``moment_samples`` read their uniforms a block of
``_VALUE_BLOCK`` runs at a time.  Each must return the outcome list of the
per-trial loop it replaced (kept in conftest as the oracle) and leave the
generator in the same state, also when float repeats force redraws.
Every uniform comes from ``measures._uniforms``, one C-level loop.
"""

import ast
import random
from pathlib import Path

import pytest

import wordchain
from conftest import ScriptedRandom, moment_samples_oracle, pattern_matches_oracle
from wordchain.measures import (
    _VALUE_BLOCK,
    CanonicalPair,
    RatePair,
    empirical_pair,
    fixture_pairs,
    pattern_matches,
)
from wordchain.orders import OrderSampler, moment_samples
from wordchain.words import enumerate_balanced

B = _VALUE_BLOCK
TRIAL_COUNTS = (7, B, 2 * B + 37)  # below a block, one block, not a multiple of it
DIFFUSE = {**fixture_pairs(), "exp-1-2": RatePair(1, 2)}
PAIRS = {**DIFFUSE, "atomic-abbaabab": empirical_pair("abbaabab"),
         "atomic-aabbabab": empirical_pair("aabbabab")}  # 4 atoms a side: ties are common


def same_stream(run, make_rng):
    """run(rng) for the change and its oracle on two equal generators: (outputs, generators)."""
    rngs = make_rng(), make_rng()
    return [f(rng) for f, rng in zip(run, rngs)], rngs


def assert_same(run, make_rng):
    (got, want), (rng, oracle_rng) = same_stream(run, make_rng)
    assert got == want
    assert rng.getstate() == oracle_rng.getstate()
    if isinstance(rng, ScriptedRandom):
        assert rng.script == oracle_rng.script


@pytest.mark.parametrize("name", PAIRS)
@pytest.mark.parametrize("m", range(5))
def test_pattern_matches_equal_the_per_trial_loop(name, m):
    pair = PAIRS[name]
    words = enumerate_balanced(m)
    for i, w in enumerate(words):  # every pattern, at a few trials each
        run = [lambda r: pattern_matches(pair, w, 7, r),
               lambda r: pattern_matches_oracle(pair, w, 7, r)]
        assert_same(run, lambda: random.Random(100 * m + i))
    w = words[len(words) // 2]
    for trials in TRIAL_COUNTS:
        run = [lambda r: pattern_matches(pair, w, trials, r),
               lambda r: pattern_matches_oracle(pair, w, trials, r)]
        assert_same(run, lambda: random.Random(trials + m))


def moment_run(pair, n, trials):
    return [lambda r: moment_samples(OrderSampler.from_pair(pair, r), n, trials),
            lambda r: moment_samples_oracle(OrderSampler.from_pair(pair, r), n, trials)]


@pytest.mark.parametrize("name", DIFFUSE)
@pytest.mark.parametrize("n", range(1, 5))
def test_moment_samples_equal_the_per_run_loop(name, n):
    for trials in TRIAL_COUNTS:
        assert_same(moment_run(DIFFUSE[name], n, trials), lambda: random.Random(trials * n))


def planted(n: int, repeats) -> list[float]:
    """A script of seeded uniforms, runs of 2(n + 1), where run t copies uniform i of
    the run onto uniform j for each (t, i, j) in ``repeats``."""
    width = 2 * (n + 1)
    last = max(t for t, _, _ in repeats)
    seeded = random.Random(last)
    script = [seeded.random() for _ in range((last + 1) * width)]
    for t, i, j in repeats:
        script[t * width + i % width] = script[t * width + j % width]
    return script


def assert_replayed(pair, n, script, spill=False):
    """moment_samples equals its oracle on ScriptedRandom(n, script), and redraws happened."""
    if spill:  # the first uniform past the last planted run repeats its first one
        script = script + [script[-2 * (n + 1)]]
    trials = 2 * B + 37
    assert_same(moment_run(pair, n, trials), lambda: ScriptedRandom(n, script))
    rng, plain = ScriptedRandom(n, script), ScriptedRandom(n, script)
    moment_samples(OrderSampler.from_pair(pair, rng), n, trials)
    for _ in range(trials * 2 * (n + 1)):
        plain.random()
    assert rng.getstate() != plain.getstate()  # a repeat drew more uniforms


@pytest.mark.parametrize("name", ["lebesgue", "three-cell", "exp-1-2"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(("repeats", "spill"), [
    ([(0, 1, 0)], False),  # in the first trial, between a-values
    ([(B // 2, 1, 0)], False),  # mid-block
    ([(B // 2, -1, -2)], False),  # mid-block, between b-values
    ([(B - 1, 1, 0)], False),  # in the last trial of a block: the redraw reads the generator
    ([(B - 1, -1, -2)], False),  # the same between b-values, after the a-values
    ([(B - 1, 1, 0)], True),  # in the last trial, and its redraw repeats too
    ([(B, -1, -2)], False),  # in the first trial of the second block
    ([(3, 1, 0), (B // 2, -1, -2)], False),  # two repeats in one block
], ids=["first", "mid", "mid-b", "last", "last-b", "last-spill", "second-block", "two"])
def test_moment_samples_replay_planted_repeats(name, n, repeats, spill):
    assert_replayed(DIFFUSE[name], n, planted(n, repeats), spill)


@pytest.mark.parametrize("t", [0, B // 2, B - 1])
def test_moment_samples_replay_an_a_value_among_the_b_values(t):
    # the Lebesgue draws are the uniforms themselves, so a copied uniform repeats a value
    n = 2
    assert_replayed(CanonicalPair.lebesgue(), n, planted(n, [(t, n + 1, 0)]))


@pytest.mark.parametrize("pair", [fixture_pairs()["separated"], empirical_pair("aaaabbbb")],
                         ids=["separated", "atomic-aaaabbbb"])
def test_pattern_matches_count_planted_repeats_as_misses(pair):
    # every a-value lies below every b-value, so only a tie misses aabb; a tie
    # draws nothing more, so runs stay 2m uniforms apart
    script = planted(1, [(0, 1, 0), (B - 1, 3, 2), (B + 5, 3, 2)])
    run = [lambda r: pattern_matches(pair, "aabb", 2 * B, r),
           lambda r: pattern_matches_oracle(pair, "aabb", 2 * B, r)]
    (got, _), _ = same_stream(run, lambda: ScriptedRandom(5, script))
    assert not (got[0] or got[B - 1] or got[B + 5])
    assert_same(run, lambda: ScriptedRandom(5, script))


def _draws_per_call(node) -> bool:
    """A comprehension of zero-argument calls over a range: ``[random_() for _ in range(k)]``."""
    return (
        isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
        and isinstance(node.elt, ast.Call)
        and not (node.elt.args or node.elt.keywords)
        and any(isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "range"
                for gen in node.generators)
    )


def test_uniforms_are_drawn_by_one_helper():
    # measures._uniforms makes the k calls in one C-level loop; no other site loops over them
    found = []
    for path in sorted(Path(wordchain.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name} line {node.lineno}"
                  for node in ast.walk(tree) if _draws_per_call(node)]
    assert found == []
