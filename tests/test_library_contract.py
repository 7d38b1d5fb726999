"""The library's input contract, over every public callable of ``wordchain``.

Every bad count, word, rational, pair or measure given to a public callable raises
WordchainError (or a subclass), TypeError, or the IndexError that
``InfiniteBridge.word`` and ``OrderRun.prefix`` declare for a step out of
range, with a one-line message, within 2 seconds.  Each entry of ``TABLE``
holds valid arguments, which must run, and per argument the bad values that
replace it one at a time.  ``test_every_public_callable_has_an_entry`` fails
when a callable that ``wordchain/__init__.py`` exports has no entry.

A valid but huge size, such as 10**30, is a matter of size caps and is left
out: it is not a bad input, only an expensive one.
"""

import inspect
import math
import random
import signal
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple

import pytest

import wordchain
from wordchain import measures
from wordchain import (
    AtomicPair,
    CanonicalPair,
    CapExceededError,
    ConvergenceReport,
    Exponential,
    InfiniteBridge,
    LabeledLetter,
    MCEstimate,
    OrderPrefix,
    OrderSampler,
    RatePair,
    StepMeasure,
    WordchainError,
)

from conftest import int_str_digit_limit

SIZES = [-1, 1.5, "3"]
WORDS = [3, "abc", "аb", ["a", "b"]]  # a non-str, a bad letter, a Cyrillic a, a list
RATIONALS = [math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("-Infinity"), "x", "1e200000"]
POSITIVE = RATIONALS + [0, -1]

LEBESGUE = CanonicalPair.lebesgue()
RATES = RatePair(2, 1)
# a value of the wrong kind for each kind of pair or measure argument
STEP_MEASURES = ["x", None, Exponential(1)]
DIFFUSE_MEASURES = ["x", None, LEBESGUE]  # step or exponential
CANONICAL_PAIRS = ["x", None, RATES]
DIFFUSE_PAIRS = ["x", None, AtomicPair("ab")]
MEASURE_PAIRS = ["x", None, StepMeasure.lebesgue()]
RATE_PAIRS = ["x", None, LEBESGUE]
A1, B1 = LabeledLetter("a", 1), LabeledLetter("b", 1)


class Entry(NamedTuple):
    name: str
    call: Callable  # called with fresh keyword arguments
    valid: dict
    bad: dict  # argument -> bad values, each tried in place of the valid one
    index_error: tuple = ()  # the arguments whose out-of-range value raises IndexError


def _sampler() -> OrderSampler:
    return OrderSampler.from_pair(LEBESGUE, random.Random(1))


def _bridge_at(steps: int) -> InfiniteBridge:
    bridge = InfiniteBridge(LEBESGUE, random.Random(2))
    bridge.extend_to(steps)
    return bridge


TABLE = [
    # boundary
    Entry("convergence_report", wordchain.convergence_report,
          {"seq": ["abab", "aabb"], "pair": LEBESGUE, "m_max": 1},
          {"seq": [[w] for w in WORDS], "pair": CANONICAL_PAIRS, "m_max": SIZES + [0]}),
    # a result record: it checks nothing, and convergence_report builds it
    Entry("ConvergenceReport", ConvergenceReport,
          vars(wordchain.convergence_report(["abab", "aabb"], LEBESGUE, 1)), {}),
    # bridges
    Entry("InfiniteBridge", InfiniteBridge, {"pair": LEBESGUE, "rng": random.Random(3)},
          {"pair": DIFFUSE_PAIRS}),
    Entry("InfiniteBridge.extend_to", lambda n: InfiniteBridge(LEBESGUE, random.Random(4)).extend_to(n),
          {"n": 3}, {"n": SIZES}),
    Entry("InfiniteBridge.word", lambda n: _bridge_at(3).word(n), {"n": 2}, {"n": SIZES + [4]},
          index_error=("n",)),
    Entry("harmonic_h", wordchain.harmonic_h, {"pair": LEBESGUE, "w": "ab"},
          {"pair": DIFFUSE_PAIRS, "w": WORDS}),
    Entry("htransform_step_prob", wordchain.htransform_step_prob,
          {"pair": RATES, "u": "ab", "v": "abab"}, {"pair": DIFFUSE_PAIRS, "u": WORDS, "v": WORDS}),
    Entry("sample_finite_bridge", wordchain.sample_finite_bridge,
          {"w": "abab", "rng": random.Random(5)}, {"w": WORDS}),
    Entry("simulate_forward", wordchain.simulate_forward,
          {"n": 3, "rng": random.Random(6)}, {"n": SIZES}),
    # kernels
    *(Entry(fn.__name__, fn, {"v": "ab", "w": "abab"}, {"v": WORDS, "w": WORDS})
      for fn in (wordchain.one_step_prob, wordchain.multi_step_prob, wordchain.dm_kernel)),
    Entry("backward_prob", wordchain.backward_prob, {"u": "ab", "v": "abab"}, {"u": WORDS, "v": WORDS}),
    # measures
    Entry("AtomicPair", AtomicPair, {"word": "abab"}, {"word": WORDS}),
    Entry("empirical_pair", wordchain.empirical_pair, {"y": "abab"}, {"y": WORDS}),
    Entry("CanonicalPair", CanonicalPair, {"mu": StepMeasure.lebesgue(), "nu": StepMeasure.lebesgue()},
          {"mu": STEP_MEASURES, "nu": STEP_MEASURES}),
    Entry("CanonicalPair.from_mu", CanonicalPair.from_mu, {"mu": StepMeasure.lebesgue()},
          {"mu": STEP_MEASURES}),
    Entry("canonicalize", wordchain.canonicalize,
          {"zeta": StepMeasure.uniform_on(0, 1), "eta": StepMeasure.uniform_on(1, 2)},
          {"zeta": STEP_MEASURES, "eta": STEP_MEASURES}),
    Entry("empirical_distance", measures.empirical_distance,
          {"y": "abab", "letter": "a", "q": StepMeasure.lebesgue()}, {"q": STEP_MEASURES}),
    Entry("fixture_pairs", wordchain.fixture_pairs, {}, {}),
    Entry("Exponential", Exponential, {"rate": "3/2"}, {"rate": POSITIVE}),
    # a result record: it checks nothing, and the Monte Carlo estimators build it
    Entry("MCEstimate", MCEstimate, {"value": 0.5, "stderr": 0.1, "trials": 3}, {}),
    Entry("StepMeasure", StepMeasure, {"breakpoints": (0, "1/2", 1), "densities": (1, 1)},
          {"breakpoints": [(0, x, 1) for x in RATIONALS],
           "densities": [(1, x) for x in POSITIVE]}),
    Entry("StepMeasure.uniform_on", StepMeasure.uniform_on, {"lo": 0, "hi": "1/3"},
          {"lo": RATIONALS + ["1/3"], "hi": RATIONALS + [0, -1]}),
    Entry("StepMeasure.cdf", StepMeasure.lebesgue().cdf, {"x": "1/3"}, {"x": RATIONALS}),
    Entry("StepMeasure.refine", StepMeasure.lebesgue().refine, {"points": ["1/3", 0.5]},
          {"points": [[x] for x in RATIONALS]}),
    Entry("StepMeasure.moment", StepMeasure.lebesgue().moment, {"n": 2}, {"n": SIZES}),
    Entry("pattern_prob_exact", wordchain.pattern_prob_exact, {"pair": LEBESGUE, "w": "abab"},
          {"pair": MEASURE_PAIRS, "w": WORDS}),
    *(Entry(fn.__name__, fn, {"pair": LEBESGUE, "w": "abab", "trials": 20, "rng": random.Random(7)},
            {"pair": MEASURE_PAIRS, "w": WORDS, "trials": SIZES})
      for fn in (measures.pattern_matches, wordchain.pattern_prob_mc)),
    # orders
    Entry("LabeledLetter", LabeledLetter, {"kind": "a", "index": 2},
          {"kind": ["c", "ab", 3], "index": SIZES + [0]}),
    Entry("OrderPrefix", OrderPrefix, {"letters": (A1, B1)}, {}),
    Entry("OrderSampler", OrderSampler,
          {"a_source": Exponential(1), "b_source": Exponential(2), "rng": random.Random(8)},
          {"a_source": DIFFUSE_MEASURES, "b_source": DIFFUSE_MEASURES}),
    Entry("OrderSampler.run", lambda depth: _sampler().run(depth), {"depth": 4}, {"depth": SIZES}),
    Entry("OrderRun.prefix", lambda n: _sampler().run(3).prefix(n), {"n": 2}, {"n": SIZES + [4]},
          index_error=("n",)),
    Entry("estimate_d", lambda **kw: wordchain.estimate_d(_sampler(), A1, B1, **kw),
          {"depth": 4, "trials": 5}, {"depth": SIZES + [0], "trials": SIZES}),
    Entry("estimate_f", lambda **kw: wordchain.estimate_f(_sampler(), A1, **kw),
          {"depth": 4, "trials": 5}, {"depth": SIZES + [0], "trials": SIZES}),
    Entry("moment_estimate", lambda **kw: wordchain.moment_estimate(_sampler(), **kw),
          {"n": 2, "trials": 5}, {"n": SIZES + [0], "trials": SIZES}),
    Entry("label_uniformly", wordchain.label_uniformly, {"path": ["", "ab"], "rng": random.Random(9)},
          {"path": [["", w] for w in WORDS]}),
    # plackett_luce
    Entry("RatePair", RatePair, {"alpha": "3/2", "beta": 1}, {"alpha": POSITIVE, "beta": POSITIVE}),
    Entry("pl_sample", wordchain.pl_sample,
          {"rates": RATES, "n": 3, "rng": random.Random(10), "method": "sequential"},
          {"rates": RATE_PAIRS, "n": SIZES, "method": ["bogus"]}),
    Entry("pl_transition", wordchain.pl_transition, {"rates": RATES, "u": "ab", "v": "abab"},
          {"rates": RATE_PAIRS, "u": WORDS, "v": WORDS}),
    Entry("pl_word_prob", wordchain.pl_word_prob, {"rates": RATES, "u": "abab"},
          {"rates": RATE_PAIRS, "u": WORDS}),
    # rng: the seed and the label only feed a hash, so any values serve
    Entry("derive_rng", wordchain.derive_rng, {"seed": 1, "label": "x"}, {}),
    # words
    Entry("enumerate_balanced", wordchain.enumerate_balanced, {"n": 2}, {"n": SIZES}),
    Entry("random_subword", wordchain.random_subword, {"w": "abab", "m": 1, "rng": random.Random(11)},
          {"w": WORDS, "m": SIZES}),
    Entry("subword_count", wordchain.subword_count, {"w": "abab", "v": "ab"}, {"w": WORDS, "v": WORDS}),
    Entry("successors", wordchain.successors, {"v": "ab"}, {"v": WORDS}),
    Entry("word_size", wordchain.word_size, {"w": "abab"}, {"w": WORDS}),
]

# beside the exported names: the public methods that take a count, a rational or a measure,
# and the measures functions that the CLI and the boundary report call
UNEXPORTED = {"InfiniteBridge.extend_to", "InfiniteBridge.word", "OrderSampler.run",
              "OrderRun.prefix", "StepMeasure.moment", "StepMeasure.cdf", "StepMeasure.refine",
              "StepMeasure.uniform_on", "CanonicalPair.from_mu", "empirical_distance",
              "pattern_matches"}


class Hang(Exception):
    pass


def _on_alarm(signum, frame):
    raise Hang("no answer within 2 s")


def _call_within_2s(call, kwargs):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(2)
    try:
        return call(**kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _public_callables() -> set[str]:
    return {
        name for name, obj in vars(wordchain).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }


def test_every_public_callable_has_an_entry():
    names = {entry.name for entry in TABLE}
    assert _public_callables() - names == set()
    assert names - _public_callables() == UNEXPORTED
    assert len(names) == len(TABLE)


@pytest.mark.parametrize("entry", TABLE, ids=lambda e: e.name)
def test_valid_arguments_run(entry):
    _call_within_2s(entry.call, dict(entry.valid))


CASES = [
    pytest.param(entry, arg, value, id=f"{entry.name}-{arg}={value!r}")
    for entry in TABLE
    for arg, values in entry.bad.items()
    for value in values
]


@pytest.mark.parametrize("entry, arg, value", CASES)
def test_bad_argument_raises_a_one_line_error(entry, arg, value):
    allowed = (WordchainError, TypeError) + ((IndexError,) if arg in entry.index_error else ())
    with pytest.raises(allowed) as info:
        _call_within_2s(entry.call, {**entry.valid, arg: value})
    message = str(info.value)
    assert message and "\n" not in message, repr(message)


class TestCheckers:
    """The two checkers behind the table: check_count and check_rational."""

    def test_a_bool_is_a_count(self):
        # operator.index takes True as 1, as range() and list * n do
        assert wordchain.enumerate_balanced(True) == ["ab", "ba"]
        assert LabeledLetter("a", True).index == 1 and type(LabeledLetter("a", True).index) is int

    @pytest.mark.parametrize("call, message", [
        (lambda: wordchain.pl_sample(RATES, -1, random.Random(0)), "word size must be nonnegative, got -1"),
        (lambda: wordchain.simulate_forward(-1, random.Random(0)), "steps must be nonnegative, got -1"),
        (lambda: _sampler().run(-1), "depth must be nonnegative, got -1"),
        (lambda: wordchain.estimate_f(_sampler(), A1, 0, 5), "depth must be at least 1, got 0"),
        (lambda: wordchain.moment_estimate(_sampler(), 0, 5), "moment order must be at least 1, got 0"),
        (lambda: StepMeasure.lebesgue().moment(-1), "moment order must be nonnegative, got -1"),
        (lambda: LabeledLetter("a", 0), "letter index must be at least 1, got 0"),
        (lambda: wordchain.random_subword("ab", -1, random.Random(0)), "m must be nonnegative, got -1"),
        (lambda: StepMeasure.uniform_on(1, 1), "uniform_on needs lo < hi, got [1, 1]"),
        (lambda: RatePair(math.nan, 1), "alpha must be finite, got nan"),
        (lambda: Exponential(Decimal("Infinity")), "rate must be finite, got Decimal('Infinity')"),
        (lambda: StepMeasure.lebesgue().cdf(-math.inf), "x must be finite, got -inf"),
        (lambda: RatePair(1, "x"), "Invalid literal for Fraction: 'x'"),
    ])
    def test_messages(self, call, message):
        with pytest.raises(WordchainError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("call, message", [
        (lambda: CanonicalPair("x", StepMeasure.lebesgue()), "need a step measure, not str"),
        (lambda: CanonicalPair(StepMeasure.lebesgue(), None), "need a step measure, not NoneType"),
        (lambda: CanonicalPair.from_mu("x"), "need a step measure, not str"),
        (lambda: measures.empirical_distance("ab", "a", "x"), "need a step measure, not str"),
        (lambda: measures.empirical_distance("ab", "a", Exponential(1)),
         "need a step measure, not Exponential"),
        (lambda: measures.pattern_matches("x", "ab", 3, random.Random(0)),
         "need a measure pair, not str"),
        (lambda: wordchain.pattern_prob_mc(None, "ab", 3, random.Random(0)),
         "need a measure pair, not NoneType"),
        (lambda: wordchain.pl_word_prob(LEBESGUE, "ab"), "need a rate pair, not CanonicalPair"),
        (lambda: wordchain.pl_transition("x", "ab", "abab"), "need a rate pair, not str"),
        (lambda: wordchain.pl_sample("x", 2, random.Random(0)), "need a rate pair, not str"),
        (lambda: wordchain.pl_sample(LEBESGUE, 2, random.Random(0), method="sort"),
         "need a rate pair, not CanonicalPair"),
    ])
    def test_a_wrong_kind_of_pair_or_measure_is_named(self, call, message):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message

    def test_a_huge_negative_count_prints_in_full(self):
        with int_str_digit_limit(640), pytest.raises(WordchainError) as info:
            wordchain.enumerate_balanced(-10**5000)
        assert str(info.value) == "size must be nonnegative, got -1" + "0" * 5000

    @pytest.mark.parametrize("call", [
        wordchain.enumerate_balanced,
        lambda m: wordchain.random_subword("ab", m, random.Random(0)),
    ], ids=["enumerate_balanced", "random_subword"])
    def test_a_count_past_its_bound_prints_in_full(self, call):
        with int_str_digit_limit(640), pytest.raises(WordchainError) as info:
            call(10**5000)
        assert "1" + "0" * 5000 in str(info.value)

    @pytest.mark.parametrize("exponent", ["1e10000000", "1e-99999999999"])
    def test_an_exponent_past_the_cap_is_refused_at_once(self, exponent):
        # read exactly, "1e10000000" takes seconds and larger exponents do not finish
        for value in (exponent, Decimal(exponent)):
            with pytest.raises(CapExceededError, match="^alpha .*: decimal exponent exceeds cap 100000$"):
                _call_within_2s(RatePair, {"alpha": value, "beta": 1})

    def test_exact_values_pass_unchanged(self):
        assert RatePair("3/2", 0.5) == RatePair(Fraction(3, 2), Fraction(1, 2))
        assert Exponential(Decimal("2.5")).rate == Fraction(5, 2)
        assert StepMeasure.uniform_on("1/4", 0.75).densities == (2,)
        assert StepMeasure.lebesgue().moment(True) == Fraction(1, 2)
