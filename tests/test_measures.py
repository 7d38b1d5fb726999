"""Measures, exact pattern probabilities, canonicalization, distances."""

import itertools
import math
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    Atoms,
    ScriptedRandom,
    canonical_pair_oracle,
    canonicalize_oracle,
    empirical_atoms,
    int_str_digit_limit,
    random_canonical_pair,
    random_step_measure,
    refine_oracle,
    single_draw,
    step_map_oracle,
    step_pattern_oracle,
    weak_distance_oracle,
)
from wordchain import measures
from wordchain.errors import CapExceededError, SizeMismatchError, WordchainError
from wordchain.measures import (
    EXPONENT_CAP,
    AtomicPair,
    CanonicalPair,
    Exponential,
    MCEstimate,
    RatePair,
    StepMeasure,
    _step_map_factory,
    canonicalize,
    empirical_distance,
    empirical_pair,
    fixture_pairs,
    format_fraction,
    interleave_pattern,
    parse_fraction,
    pattern_distribution,
    pattern_matches,
    pattern_prob_exact,
    pattern_prob_mc,
    pattern_probs,
    pl_word_prob,
)
from wordchain.verify import _atomic_pattern_counts, check_empirical_identity
from wordchain.words import enumerate_balanced, subword_count, word_size

F = Fraction

# asymptotic Kolmogorov-Smirnov critical value at the 1% level
KS_CRIT_1PCT = 1.6276


def separated_pair() -> CanonicalPair:
    return fixture_pairs()["separated"]


def measure_case(source):
    """(drawer, single) of a step or exponential measure: its drawer and single_draw."""
    return source.drawer, lambda rng: single_draw(source, rng)


def atomic_nu_case(y: str):
    """(drawer, single) of nu of empirical_pair(y): the pair's b-drawer, and
    single_draw on the atoms l/(2N) mapped to the positions l."""
    atoms, scale = empirical_atoms(y, "b"), 2 * word_size(y)
    return (lambda rng: empirical_pair(y).drawers(rng)[1],
            lambda rng: int(single_draw(atoms, rng) * scale))


class TestStepMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepMeasure((F(0), F(1)), (F(2),))  # mass 2
        with pytest.raises(ValueError):
            StepMeasure((F(1), F(0)), (F(1),))  # decreasing breakpoints
        with pytest.raises(ValueError):
            StepMeasure((F(0), F(1)), (F(-1),))

    def test_mass_error_past_the_digit_limit(self):
        tiny = F(1, 10**1000)
        with int_str_digit_limit(640):
            with pytest.raises(WordchainError, match=r"^total mass is 19{1000}/10{1000}, expected 1$"):
                StepMeasure((F(0), tiny, F(1)), (F(1), F(2)))

    def test_cdf_and_masses(self):
        m = StepMeasure((F(0), F(1, 2), F(1)), (F(3, 2), F(1, 2)))
        assert m.cell_masses() == (F(3, 4), F(1, 4))
        assert m.cdf(F(1, 2)) == F(3, 4)
        assert m.cdf(F(1, 4)) == F(3, 8)
        assert m.cdf(F(2)) == 1

    def test_moment_against_quadrature(self):
        m = StepMeasure((F(0), F(1, 4), F(1)), (F(2), F(2, 3)))
        for n in range(1, 4):
            cells = 20_000
            approx = sum(
                float(m.cdf(F(k + 1, cells)) - m.cdf(F(k, cells))) * ((k + 0.5) / cells) ** n
                for k in range(cells)
            )
            assert abs(float(m.moment(n)) - approx) < 1e-4

    def test_refine_preserves_law(self):
        m = StepMeasure((F(0), F(1, 2), F(1)), (F(2), F(0)))
        r = m.refine([F(1, 3), F(2, 3)])
        for x in (F(1, 5), F(1, 3), F(1, 2), F(3, 4)):
            assert r.cdf(x) == m.cdf(x)

    def test_json_roundtrip(self):
        m = StepMeasure((F(0), F(1, 2), F(1)), (F(2), F(0)))
        assert StepMeasure.from_json(m.to_json()) == m
        assert m.to_json()["breakpoints"] == ["0", "1/2", "1"]


class TestCanonicalPair:
    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            CanonicalPair(StepMeasure.lebesgue(), separated_pair().nu)

    def test_common_refinement(self):
        pair = CanonicalPair(
            StepMeasure((F(0), F(1, 2), F(1)), (F(2), F(0))),
            StepMeasure((F(0), F(1, 2), F(1)), (F(0), F(2))),
        )
        assert pair.mu.breakpoints == pair.nu.breakpoints
        # mu and nu on different grids of [0, 1], each with a breakpoint the other lacks
        pair = CanonicalPair(
            StepMeasure((F(0), F(1, 2), F(3, 4), F(1)), (F(1, 2), F(3, 2), F(3, 2))),
            StepMeasure((F(0), F(1, 4), F(1, 2), F(1)), (F(3, 2), F(3, 2), F(1, 2))),
        )
        grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert pair.mu == StepMeasure(grid, (F(1, 2), F(1, 2), F(3, 2), F(3, 2)))
        assert pair.nu == StepMeasure(grid, (F(3, 2), F(3, 2), F(1, 2), F(1, 2)))

    def test_from_mu(self):
        pair = CanonicalPair.from_mu(StepMeasure((F(0), F(1, 2), F(1)), (F(1, 2), F(3, 2))))
        assert pair.nu.densities == (F(3, 2), F(1, 2))

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            CanonicalPair(StepMeasure.uniform_on(0, 2), StepMeasure.uniform_on(0, 2))

    def test_json_past_the_digit_limit(self):
        # a library caller formats values of any size without lifting the limit
        tiny = F(1, 10**5000)
        pair = CanonicalPair.from_mu(StepMeasure((F(0), tiny, F(1)), (F(1), F(1))))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert format_fraction(tiny) == "1/1" + "0" * 5000
            assert format_fraction(-tiny * 7 / 3) == "-7/3" + "0" * 5000
            assert format_fraction(1 / tiny) == "1" + "0" * 5000
            assert pair.to_json()["mu"]["breakpoints"] == ["0", "1/1" + "0" * 5000, "1"]
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_density_error_past_the_digit_limit(self):
        t = F(1, 10**1000)
        mu = StepMeasure((F(0), F(1, 2), F(1)), (1 + t, 1 - t))
        with int_str_digit_limit(640):
            with pytest.raises(WordchainError, match=r"cell 0 add to 20{999}1/10{1000}, expected 2 "):
                CanonicalPair(mu, StepMeasure.lebesgue())

    def test_json_round_trip_past_the_digit_limit(self):
        # parse_fraction reads what to_json writes, without lifting the limit
        tiny = F(1, 10**5000)
        pair = CanonicalPair.from_mu(StepMeasure((F(0), tiny, F(1)), (F(1), F(1))))
        with int_str_digit_limit(4300):
            assert CanonicalPair.from_json(pair.to_json()) == pair
            assert sys.get_int_max_str_digits() == 4300

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 3/4 ", "1_000", "-7/21", "+.5E-2", "2."])
    def test_parse_reads_fraction_literals(self, text):
        assert parse_fraction(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["nan", "inf", "1__0", "x", "", "1/-2", "1e"])
    def test_parse_rejects_what_fraction_rejects(self, text):
        with pytest.raises(ValueError) as expected:
            Fraction(text)
        with pytest.raises(WordchainError) as err:
            parse_fraction(text)
        assert str(err.value) == str(expected.value)

    def test_parse_rejects_space_before_slash(self):
        # Fraction accepts "1 /2" from Python 3.12 on; the CLI grammar rejects it on every version
        with pytest.raises(WordchainError) as err:
            parse_fraction("1 /2")
        assert str(err.value) == "Invalid literal for Fraction: '1 /2'"

    @pytest.mark.parametrize("text, value", [
        ("1e100000", F(10**100000)), ("-1e-100000", F(-1, 10**100000)),
        ("0e999999999", F(0)), ("10e99999", F(10**100000)),
    ])
    def test_parse_exponent_at_the_cap(self, text, value):
        assert parse_fraction(text) == value

    @pytest.mark.parametrize("text", [
        "1e100001", "1e-100001", "1e999999999", "2.5e-999999", "1e99999999999999999999999",
    ])
    def test_parse_exponent_past_the_cap(self, text):
        # reading 1e999999999 exactly would take far longer than any check should
        with pytest.raises(CapExceededError, match=f"exponent exceeds cap {EXPONENT_CAP}"):
            parse_fraction(text, "rate")

    def test_parse_zero_denominator(self):
        with pytest.raises(WordchainError, match="zero denominator in '3/0'"):
            parse_fraction("3/0")

    def test_format_matches_str(self):
        for x in (F(0), F(5), F(-3, 4), F(12, 8), F(10**30, 7)):
            assert format_fraction(x) == str(x)


class TestPatternExact:
    def test_lebesgue_is_uniform(self):
        pair = CanonicalPair.lebesgue()
        for m in range(1, 4):
            for w in enumerate_balanced(m):
                assert pattern_prob_exact(pair, w) == F(1, math.comb(2 * m, m))
        assert pattern_prob_exact(pair, "abab") == F(1, 6)

    def test_separated_supports(self):
        pair = separated_pair()
        assert pattern_prob_exact(pair, "ba") == 0
        assert pattern_prob_exact(pair, "ab") == 1
        assert pattern_prob_exact(pair, "aabb") == 1

    def test_single_pair_closed_forms(self):
        # frozen from hand integration of P{X < Y} = int f_mu(x)(1 - F_nu(x)) dx
        assert pattern_prob_exact(fixture_pairs()["crossed"], "ab") == F(1, 4)
        assert pattern_prob_exact(fixture_pairs()["skewed"], "ab") == F(3, 4)
        assert pattern_prob_exact(fixture_pairs()["three-cell"], "ab") == F(5, 6)

    def test_atomic_example(self):
        # of the 4 (a-atom, b-atom) pairs of abab, 3 satisfy x < y
        pair = empirical_pair("abab")
        combos = list(itertools.product([F(1, 4), F(3, 4)], [F(2, 4), F(4, 4)]))
        assert sum(x < y for x, y in combos) == 3
        assert pattern_prob_exact(pair, "ab") == F(3, 4)

    def test_normalization_all_fixtures(self):
        for name, pair in fixture_pairs().items():
            for m in range(1, 5):
                total = sum(pattern_distribution(pair, m).values())
                assert total == 1, (name, m)

    def test_distribution_matches_fraction_oracle(self):
        seed_rng = random.Random(61)
        pairs = list(fixture_pairs().values())
        pairs += [random_canonical_pair(seed_rng, cells=c) for c in (2, 3, 4)]
        for pair in pairs:
            for m in range(6):
                law = pattern_distribution(pair, m)
                assert list(law) == enumerate_balanced(m)
                assert law == {w: step_pattern_oracle(pair, w) for w in law}

    def test_single_word_matches_fraction_oracle_at_cap(self):
        seed_rng = random.Random(62)
        pairs = list(fixture_pairs().values())
        pairs += [random_canonical_pair(seed_rng, cells=c) for c in (3, 6, 8)]
        words = enumerate_balanced(6)
        for pair in pairs:
            for w in seed_rng.sample(words, 4) + ["a" * 6 + "b" * 6, "b" * 6 + "a" * 6]:
                assert pattern_prob_exact(pair, w) == step_pattern_oracle(pair, w)

    def test_pattern_probs_one_walk_matches_oracle(self):
        # unsorted, with repeats and sizes 0-6: one trie walk serves them all
        seed_rng = random.Random(63)
        pairs = list(fixture_pairs().values())
        pairs += [random_canonical_pair(seed_rng, cells=c) for c in range(2, 9)]
        for pair in pairs:
            words = [w for m in range(7) for w in seed_rng.sample(enumerate_balanced(m), 1 + m)]
            words += seed_rng.sample(words, 8) + ["ab" * 6, "ab", "abab"]
            seed_rng.shuffle(words)
            probs = pattern_probs(pair, words)
            assert list(probs) == list(dict.fromkeys(words))
            assert probs == {w: step_pattern_oracle(pair, w) for w in words}

    def test_pattern_probs_closed_forms(self):
        words = ["baab", "ab", "", "aabbab", "ab", "ba"]
        rates = RatePair(F(3), F(1, 2))
        assert pattern_probs(rates, words) == {w: pl_word_prob(rates, w) for w in words}
        y = "abbaabab"
        closed = {
            w: F(math.factorial(len(w) // 2) ** 2 * subword_count(y, w), 4 ** len(w))
            for w in words
        }
        assert pattern_probs(empirical_pair(y), words) == closed
        for pair in (rates, empirical_pair(y), fixture_pairs()["crossed"]):
            assert list(pattern_probs(pair, words)) == ["baab", "ab", "", "aabbab", "ba"]
            assert pattern_probs(pair, []) == {}

    def test_atomic_normalization_is_distinctness_probability(self):
        for y in ["abab", "aabbab", "babaab"]:
            n = word_size(y)
            pair = empirical_pair(y)
            for m in range(1, n + 1):
                total = sum(pattern_distribution(pair, m).values())
                falling = math.prod(range(n - m + 1, n + 1))
                assert total == F(falling, n**m) ** 2

    def test_step_cap(self):
        with pytest.raises(CapExceededError):
            pattern_prob_exact(CanonicalPair.lebesgue(), "ab" * 7)

    @pytest.mark.parametrize("pair, error, message", [
        (CanonicalPair.lebesgue(), CapExceededError, "^pattern size 11 exceeds step cap 6$"),
        (empirical_pair("ab"), SizeMismatchError,
         "^cannot select 11 atoms from measures of 1 atoms each$"),
    ], ids=["step-cap", "atom-count"])
    def test_distribution_refuses_before_enumerating(self, monkeypatch, pair, error, message):
        def enumerate_balanced(n):
            raise AssertionError(f"W_{n} was built before the size was refused")

        monkeypatch.setattr(measures, "enumerate_balanced", enumerate_balanced)
        with pytest.raises(error, match=message):
            pattern_distribution(pair, 11)

    def test_atomic_closed_form_beyond_enumeration(self):
        # C(200, 5)^2 selections: far past any enumeration, served in O(|y| |w|)
        letters = list("ab" * 200)
        random.Random(200).shuffle(letters)
        y = "".join(letters)
        pair = empirical_pair(y)
        for w in ["aaaaabbbbb", "ababababab", "bbbbbaaaaa", "abbaabbaab"]:
            closed = F(math.factorial(5) ** 2 * subword_count(y, w), 200 ** 10)
            assert pattern_prob_exact(pair, w) == closed, w

    def test_atomic_matches_enumeration_oracle(self):
        y, m = "abbaababbaabbaba", 5
        mass = F(math.factorial(m) ** 2, word_size(y) ** (2 * m))
        counts = _atomic_pattern_counts(y, m)
        assert pattern_distribution(empirical_pair(y), m) == {
            w: counts.get(w, 0) * mass for w in enumerate_balanced(m)
        }


class TestPatternMC:
    def test_lebesgue(self):
        est = pattern_prob_mc(CanonicalPair.lebesgue(), "ab", 100_000, random.Random(7))
        assert abs(est.value - 0.5) <= 3 * est.stderr

    def test_separated_deterministic(self):
        est = pattern_prob_mc(separated_pair(), "ab", 2_000, random.Random(8))
        assert est.value == 1.0

    def test_lebesgue_aabb(self):
        est = pattern_prob_mc(CanonicalPair.lebesgue(), "aabb", 100_000, random.Random(9))
        assert abs(est.value - 1 / 6) <= 3 * est.stderr

    def test_randomized_suite_matches_exact(self):
        seed_rng = random.Random(555)
        pairs = list(fixture_pairs().values()) + [
            random_canonical_pair(seed_rng) for _ in range(3)
        ]
        for i, pair in enumerate(pairs):
            m = seed_rng.randint(1, 3)
            w = seed_rng.choice(enumerate_balanced(m))
            exact = float(pattern_prob_exact(pair, w))
            est = pattern_prob_mc(pair, w, 20_000, random.Random(1000 + i))
            assert abs(est.value - exact) <= 3 * est.stderr + 1e-12

    def test_atomic_mc(self):
        pair = empirical_pair("abab")
        est = pattern_prob_mc(pair, "ab", 50_000, random.Random(10))
        assert abs(est.value - 0.75) <= 3 * est.stderr

    def test_atomic_word_larger_than_pair(self):
        with pytest.raises(SizeMismatchError):
            pattern_matches(empirical_pair("ab"), "aabb", 0, random.Random(11))

    @pytest.mark.parametrize(
        "pair",
        [*fixture_pairs().values(), RatePair(1, 2), empirical_pair("abaabb")],
        ids=[*fixture_pairs(), "rates-1-2", "atomic-abaabb"],
    )
    def test_estimate_is_the_sample_mean_of_matches(self, pair):
        # a trial's bool is a 0/1 sample: the one estimator serves the hit frequency
        est = pattern_prob_mc(pair, "abab", 3_000, random.Random(12))
        assert est == MCEstimate.from_samples(pattern_matches(pair, "abab", 3_000, random.Random(12)))

    def test_plug_in_stderr_is_the_bernoulli_formula(self):
        est = MCEstimate.from_samples([True, True, True, False, True, False, True, True])
        assert (est.value, est.trials) == (0.75, 8)
        assert est.stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 8), rel=1e-15)

    def test_zero_trials_rejected(self):
        with pytest.raises(WordchainError, match="need at least one sample"):
            pattern_prob_mc(CanonicalPair.lebesgue(), "ab", 0, random.Random(13))


class TestEmpiricalPair:
    """A draw from mu (nu) is the 1-based position l of an a (b), the atom l/(2N)."""

    @staticmethod
    def draws(y: str, letter: str, script) -> list[int]:
        """The positions drawn by one drawer of empirical_pair(y) at the u values script."""
        draw_mu, draw_nu = empirical_pair(y).drawers(ScriptedRandom(0, script))
        return (draw_mu if letter == "a" else draw_nu)(len(script))

    def test_abab_atoms(self):
        # mass 1/2 at 1/4 and 3/4 for mu, at 2/4 and 1 for nu
        script = [0.0, 0.49, 0.5, 0.99]
        assert self.draws("abab", "a", script) == [1, 1, 3, 3]
        assert self.draws("abab", "b", script) == [2, 2, 4, 4]

    def test_aabb_atoms(self):
        assert self.draws("aabb", "a", [0.25, 0.75]) == [1, 2]
        assert self.draws("aabb", "b", [0.25, 0.75]) == [3, 4]

    def test_total_mass(self):
        # the k-th of the N atoms takes u in [(k-1)/N, k/N): together all of [0, 1)
        for y in ["ab", "abba", "bbaaab"]:
            n = word_size(y)
            script = [k / n for k in range(n)] + [(k + 0.5) / n for k in range(n)]
            script.append(math.nextafter(1.0, 0.0))
            for letter in "ab":
                pos = [l for l, ch in enumerate(y, 1) if ch == letter]
                assert self.draws(y, letter, script) == pos + pos + pos[-1:]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            empirical_pair("")


class TestEmpiricalIdentity:
    def test_worked_numbers(self):
        # y = abab, m = 1: (2^1)^2 * 3/4 = 3 = 1 * binom(abab, ab)
        pair = empirical_pair("abab")
        assert F(4) * pattern_prob_exact(pair, "ab") == subword_count("abab", "ab")
        assert F(4) * pattern_prob_exact(pair, "ba") == subword_count("abab", "ba")

    def test_sweep(self):
        assert check_empirical_identity().ok
        # beyond the verify sweep: sizes 7-8, every m up to 4
        for y in ["abbaabababbaab", "aaaaaaabbbbbbb", "aabbbaababbaabab"]:
            n = word_size(y)
            pair = empirical_pair(y)
            for m in range(1, 5):
                dist = pattern_distribution(pair, m)
                mass = F(math.factorial(m) ** 2, n ** (2 * m))  # of one atom selection
                counts = _atomic_pattern_counts(y, m)
                assert dist == {w: counts[w] * mass for w in enumerate_balanced(m)}, (y, m)
                for w in enumerate_balanced(m):
                    assert dist[w] == subword_count(y, w) * mass == pattern_prob_exact(pair, w), w


class TestCanonicalize:
    def test_lebesgue_fixed_point(self):
        pair = canonicalize(StepMeasure.lebesgue(), StepMeasure.lebesgue())
        assert pair.mu == StepMeasure.lebesgue()

    def test_separated_fixed_point(self):
        sep = separated_pair()
        pair = canonicalize(sep.mu, sep.nu)
        assert (pair.mu, pair.nu) == (sep.mu, sep.nu)

    def test_shift_invariance(self):
        # translating both inputs changes nothing after canonicalization
        zeta = StepMeasure.uniform_on(5, 6)
        eta = StepMeasure.uniform_on(5, 6)
        pair = canonicalize(zeta, eta)
        assert pair.mu == StepMeasure.lebesgue()

    def test_disjoint_steps(self):
        zeta = StepMeasure.uniform_on(0, 1)
        eta = StepMeasure.uniform_on(2, 3)
        pair = canonicalize(zeta, eta)
        assert pattern_prob_exact(pair, "ab") == 1

    def test_rejects_atomic(self):
        # only step measures are canonicalized; exponential laws go to RatePair
        for zeta, eta in [
            (empirical_atoms("ab", "a"), StepMeasure.lebesgue()),
            (Exponential(F(1)), Exponential(F(2))),
        ]:
            with pytest.raises(ValueError) as exc:
                canonicalize(zeta, eta)
            assert "\n" not in str(exc.value)


def shifted(measure: StepMeasure, offset, scale) -> StepMeasure:
    """measure moved by x -> offset + scale * x."""
    return StepMeasure(tuple(offset + scale * b for b in measure.breakpoints),
                       tuple(d / scale for d in measure.densities))


def random_placed_measure(rng: random.Random) -> StepMeasure:
    """A random step measure with zero-density cells, moved to a random interval."""
    measure = random_step_measure(rng, rng.randrange(1, 12))
    return shifted(measure, F(rng.randrange(-12, 12), rng.randrange(1, 4)), F(rng.randrange(1, 9), 4))


def random_measure_on(rng: random.Random, bps) -> StepMeasure:
    """A random step measure on the breakpoints bps, with zero-density cells."""
    weights = [rng.randrange(5) for _ in bps[1:]]
    weights[rng.randrange(len(weights))] += 1
    mass = sum(w * (b2 - b1) for w, b1, b2 in zip(weights, bps, bps[1:]))
    return StepMeasure(bps, tuple(w / mass for w in weights))


def different_grids_pair(rng: random.Random) -> tuple[StepMeasure, StepMeasure]:
    """A canonical (mu, nu) on different grids of [0, 1], with zero-density cells.

    mu's density is 1 + dev / max|dev| for a mean-zero step function dev that
    often repeats across a grid point; mu and nu each drop some of those
    points, independently, and keep the rest.
    """
    grid = sorted({F(0), F(1)} | {F(rng.randrange(1, 60), 60) for _ in range(rng.randrange(1, 12))})
    widths = [b2 - b1 for b1, b2 in zip(grid, grid[1:])]
    steps = [rng.randrange(-3, 4)]
    for _ in widths[1:]:
        steps.append(steps[-1] if rng.random() < 0.5 else rng.randrange(-3, 4))
    mean = sum(f * w for f, w in zip(steps, widths))
    dev = [f - mean for f in steps]
    top = max(map(abs, dev)) or 1
    mu_dens = [1 + d / top for d in dev]

    def coarsened(dens):
        bps, kept = [grid[0]], [dens[0]]
        for b, d in zip(grid[1:-1], dens[1:]):
            if d != kept[-1] or rng.random() < 0.5:
                bps.append(b)
                kept.append(d)
        return StepMeasure((*bps, grid[-1]), tuple(kept))

    return coarsened(mu_dens), coarsened([2 - d for d in mu_dens])


def outcome(build, *args):
    """build(*args), or the type and message of the error it raises."""
    try:
        return build(*args)
    except WordchainError as exc:
        return type(exc), str(exc)


class TestCommonGrid:
    """refine, canonicalize and CanonicalPair against the scanning oracles, on 300 random cases each."""

    def test_refine_matches_scanning_oracle(self):
        rng = random.Random(2001)
        for _ in range(300):
            measure = random_placed_measure(rng)
            lo, hi = measure.support
            span = hi - lo
            points = [lo + span * F(rng.randrange(-20, 41), 20) for _ in range(rng.randrange(0, 15))]
            points += rng.sample(measure.breakpoints, rng.randrange(0, 3)) + [lo, hi]
            assert measure.refine(points) == refine_oracle(measure, points)

    def test_canonicalize_matches_oracle(self):
        rng = random.Random(2002)
        kinds = Counter()
        for _ in range(300):
            zeta, eta = random_placed_measure(rng), random_placed_measure(rng)
            kind = rng.randrange(5)
            if kind == 0:  # eta on zeta's grid
                eta = random_measure_on(rng, zeta.breakpoints)
            elif kind == 1:  # eta past zeta's support, or touching it
                eta = shifted(eta, zeta.support[1] - eta.support[0] + F(rng.randrange(3), 2), 1)
            (z_lo, z_hi), (e_lo, e_hi) = zeta.support, eta.support
            kinds["disjoint"] += z_hi <= e_lo or e_hi <= z_lo
            kinds["off [0, 1]"] += (z_lo, z_hi) != (0, 1)
            kinds["zero cells"] += 0 in zeta.densities
            kinds["same grid"] += zeta.breakpoints == eta.breakpoints
            assert canonicalize(zeta, eta) == canonicalize_oracle(zeta, eta)
        assert min(kinds.values()) >= 20, kinds

    def test_canonical_pair_matches_oracle(self):
        rng = random.Random(2003)
        kinds = Counter()
        for _ in range(300):
            mu, nu = different_grids_pair(rng)
            fault = rng.randrange(6)
            if fault == 0:  # densities that do not add to 2
                nu = different_grids_pair(rng)[1]
            elif fault == 1:  # both on [0, 2]
                mu, nu = shifted(mu, 0, 2), shifted(nu, 0, 2)
            elif fault == 2:  # different supports, possibly disjoint
                nu = random_placed_measure(rng)
            expected = outcome(canonical_pair_oracle, mu, nu)
            got = outcome(CanonicalPair, mu, nu)
            if isinstance(got, CanonicalPair):
                kinds["different grids"] += mu.breakpoints != nu.breakpoints
                kinds["zero cells"] += 0 in got.mu.densities
                got = got.mu, got.nu
            else:
                kinds[got[1].split(" on ")[0]] += 1
            assert got == expected
        assert len(kinds) == 5 and min(kinds.values()) >= 20, kinds


class TestSampling:
    def test_lebesgue_ks(self):
        rng = random.Random(31)
        n = 10_000
        samples = sorted(StepMeasure.lebesgue().drawer(rng)(n))
        ks = max(
            max(abs((i + 1) / n - s), abs(s - i / n)) for i, s in enumerate(samples)
        )
        assert ks < KS_CRIT_1PCT / math.sqrt(n)

    def test_diffuse_samples_distinct(self):
        rng = random.Random(32)
        m = StepMeasure((F(0), F(1, 4), F(1)), (F(2), F(2, 3)))
        draws = m.drawer(rng)(1000)
        assert len(set(draws)) == len(draws)

    def test_exponential_mean(self):
        rng = random.Random(33)
        n = 100_000
        mean = sum(Exponential(F(1)).drawer(rng)(n)) / n
        assert abs(mean - 1.0) < 3 / math.sqrt(n)  # Exp(1) has unit variance

    @pytest.mark.parametrize("rate", [F(0), F(10**400), F(1, 10**400), F(1, 10**320)],
                             ids=["zero", "overflow", "underflow", "subnormal"])
    def test_exponential_rate_in_normal_float_range(self, rate):
        with pytest.raises(ValueError):
            Exponential(rate)

    def test_step_sampler_respects_cells(self):
        rng = random.Random(34)
        sep = separated_pair()
        assert all(v < 0.5 for v in sep.mu.drawer(rng)(500))

    def test_atomic_sampler(self):
        rng = random.Random(35)
        draw_mu, _ = empirical_pair("abab").drawers(rng)
        assert set(draw_mu(200)) == {1, 3}  # the a-positions, atoms 1/4 and 3/4

    @pytest.mark.parametrize(("drawer", "single"), [
        measure_case(StepMeasure.uniform_on(F(1, 3), F(2, 3))),
        measure_case(fixture_pairs()["separated"].nu),  # zero density on [0, 1/2]
        measure_case(fixture_pairs()["three-cell"].nu),  # zero density on the first cell
        measure_case(fixture_pairs()["skewed"].mu),
        measure_case(Exponential(F(3, 2))),
        atomic_nu_case("abbaab"),
    ], ids=["one-cell", "separated-nu", "three-cell-nu", "skewed-mu", "exp", "atomic"])
    def test_batch_draw_equals_single_draws(self, drawer, single):
        for seed in range(40):
            single_rng, batch = random.Random(seed), random.Random(seed)
            k = seed % 13
            draw = drawer(batch)
            assert draw(k) + draw(7) == [single(single_rng) for _ in range(k + 7)]
            assert batch.getstate() == single_rng.getstate()

    def test_atomic_draw_past_total_mass(self):
        # the float CDF of the last atom is 3/3 = 1.0; a u at or past it picks that atom
        drawer, single = atomic_nu_case("abbaab")
        script = [1.0, 1.5, math.nextafter(1.0, 0.0)]
        assert drawer(ScriptedRandom(0, script))(3) == [6, 6, 6]
        assert [single(ScriptedRandom(0, [u])) for u in script] == [6, 6, 6]

    @pytest.mark.parametrize("source", [
        fixture_pairs()["skewed"].nu,  # zero density on [0, 1/4]
        fixture_pairs()["separated"].mu,  # zero density on [1/2, 1]
        fixture_pairs()["separated"].nu,  # zero density on [0, 1/2]
        fixture_pairs()["three-cell"].mu,
        StepMeasure.uniform_on(F(1, 3), F(2, 3)),
        # one-cell leaves of every tree depth up to 64 cells, one bisection past it
        *[random_step_measure(random.Random(positive), positive) for positive in range(1, 71)],
        random_step_measure(random.Random(10_000), 10_000),
    ], ids=["skewed-nu", "separated-mu", "separated-nu", "three-cell-mu", "one-cell",
            *[f"random-{positive}" for positive in range(1, 71)], "random-10000"])
    def test_step_quantiles_equal_single_draws(self, source):
        # every float cell start and its neighbours, then u at and past the total mass 1.0
        starts = [float(c) for c in itertools.accumulate(source.cell_masses(), initial=F(0))]
        edges = [x for c in starts for x in (math.nextafter(c, -1.0), c, math.nextafter(c, 2.0))]
        seeded = random.Random(41)
        us = [u for u in edges if u >= 0.0] + [1.5] + [seeded.random() for _ in range(300)]
        expected = step_map_oracle(source)(us)
        assert source.quantiles(us) == expected
        assert source.quantiles(iter(us)) == expected  # any iterable of uniforms
        assert expected == [single_draw(source, ScriptedRandom(0, [u])) for u in us]

    def test_step_maps_past_the_tree_compile_nothing(self):
        # past 64 cells one bisection maps u, so the compile cache gains no entry
        sources = [random_step_measure(random.Random(n), n) for n in (65, 70, 10_000)]
        _step_map_factory.cache_clear()
        for source in sources:
            source.quantiles([0.5])
        info = _step_map_factory.cache_info()
        assert (info.misses, info.currsize) == (0, 0)

    def test_exponential_quantiles_equal_expovariate(self):
        seeded = random.Random(42)
        us = [0.0, math.nextafter(1.0, 0.0), 0.5] + [seeded.random() for _ in range(300)]
        for rate in (F(1), F(3, 2), F(1, 10**300)):
            expected = [ScriptedRandom(0, [u]).expovariate(float(rate)) for u in us]
            assert Exponential(rate).quantiles(us) == expected
            assert [single_draw(Exponential(rate), ScriptedRandom(0, [u])) for u in us] == expected

    @pytest.mark.parametrize("y", ["abbaab", "aabbab", "ab"])
    def test_atomic_quantiles_equal_single_draws(self, y):
        # many uniforms per atom, so the draws tie; k / N and its neighbours bound the atoms
        n, scale = word_size(y), 2 * word_size(y)
        edges = [x for k in range(n + 1) for x in (math.nextafter(k / n, -1.0), k / n)]
        seeded = random.Random(43)
        us = [u for u in edges if u >= 0.0] + [1.5] + [seeded.random() for _ in range(100)]
        for letter in "ab":
            atoms = empirical_atoms(y, letter)
            single = [int(single_draw(atoms, ScriptedRandom(0, [u])) * scale) for u in us]
            assert empirical_pair(y).quantiles(letter)(us) == single
            assert len(set(single)) == n  # every atom is drawn, with ties

    @pytest.mark.parametrize("letter", ["c", "", "ab", None])
    def test_atomic_quantiles_reject_a_letter_other_than_a_or_b(self, letter):
        with pytest.raises(WordchainError, match=f"^letter must be 'a' or 'b', got {letter!r}$"):
            AtomicPair("abab").quantiles(letter)

    def test_sources_pickle_after_drawing(self):
        rng = random.Random(44)
        step_pair, rate_pair = fixture_pairs()["three-cell"], RatePair(1, 2)
        atomic = empirical_pair("abab")
        many = random_step_measure(random.Random(45), 100)  # the bisection map
        sources = (step_pair.mu, step_pair.nu, rate_pair.mu, Exponential(F(3, 2)), many)
        for source in sources:
            source.drawer(rng)(3)
            source.quantiles([0.25])
        atomic.drawers(rng)[0](2)
        atomic.quantiles("b")([0.75])
        for obj in (step_pair, step_pair.mu, rate_pair, rate_pair.mu, atomic, many):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_tied_values_have_no_pattern(self):
        assert interleave_pattern([0.5], [0.5]) is None
        assert interleave_pattern([0.25, 0.25], [0.5, 0.75]) is None
        assert interleave_pattern([0.5], [0.25]) == "ba"

    def test_pattern_match_needs_distinct_atoms(self):
        # mu has atoms 1/4, 1/2 and nu has 3/4, 1, each of mass 1/2; trial 1
        # would read aabb but for its tied mu draws, trial 3 ties as well
        script = [0.125, 0.25, 0.125, 0.625, 0.125, 0.625, 0.625, 0.125, 0.625, 0.75, 0.125, 0.625]
        rng = ScriptedRandom(36, script)
        assert pattern_matches(empirical_pair("aabb"), "aabb", 3, rng) == [False, True, False]
        assert rng.script == []


def uniform_grid(n: int) -> Atoms:
    """(mu + nu)/2 for the empirical pair of a word of size n: mass 1/(2n) at each l/(2n)."""
    return Atoms(tuple(F(i, 2 * n) for i in range(1, 2 * n + 1)), (F(1, 2 * n),) * (2 * n))


class TestWeakDistance:
    """The Fraction oracle of the Kolmogorov distance, on step and atomic measures."""

    def test_identical(self):
        assert weak_distance_oracle(StepMeasure.lebesgue(), StepMeasure.lebesgue()) == 0

    def test_separated_vs_lebesgue(self):
        assert weak_distance_oracle(separated_pair().mu, StepMeasure.lebesgue()) == F(1, 2)

    def test_grid_average_close_to_lebesgue(self):
        for y in ["aabb", "ab" * 3, "ab" * 5]:
            n = word_size(y)
            assert weak_distance_oracle(StepMeasure.lebesgue(), uniform_grid(n)) <= F(1, 2 * n)

    def test_metric_axioms_on_random_triples(self):
        seed_rng = random.Random(99)
        for _ in range(5):
            p, q, r = [random_canonical_pair(seed_rng, cells=4).mu for _ in range(3)]
            d = weak_distance_oracle
            assert d(p, q) == d(q, p)
            assert d(p, r) <= d(p, q) + d(q, r)

    def test_rejects_unsupported(self):
        # support below 0 here; test_rejects_bad_input pins support past 1
        with pytest.raises(ValueError):
            empirical_distance("ab", "a", StepMeasure.uniform_on(-1, 1))

    def test_atoms_on_a_breakpoint(self):
        # the atoms of ab, ba and aabb sit on 1/2, the breakpoint of separated
        pair = separated_pair()
        expected = {"ab": (1.0, 1.0), "ba": (1.0, 1.0), "aabb": (0.5, 0.5), "abab": (0.5, 0.5)}
        for y, (d_mu, d_nu) in expected.items():
            for letter, q, d in (("a", pair.mu, d_mu), ("b", pair.nu, d_nu)):
                atoms = empirical_atoms(y, letter)
                assert empirical_distance(y, letter, q) == d
                assert float(weak_distance_oracle(atoms, q)) == d
                assert float(weak_distance_oracle(q, atoms)) == d


class TestEmpiricalDistance:
    """The integer distance from letter positions equals the Fraction oracle, as floats."""

    @staticmethod
    def assert_matches(y: str, pair: CanonicalPair) -> None:
        for letter in "ab":
            atoms = empirical_atoms(y, letter)
            for q in (pair.mu, pair.nu):
                assert empirical_distance(y, letter, q) == float(weak_distance_oracle(atoms, q))

    def test_all_small_words_on_fixture_pairs(self):
        for pair in fixture_pairs().values():
            for size in range(1, 6):
                for y in enumerate_balanced(size):
                    self.assert_matches(y, pair)

    def test_random_words_on_random_step_pairs(self):
        seed_rng = random.Random(64)
        pairs = [random_canonical_pair(seed_rng, cells=c) for c in (1, 2, 3, 5, 7, 12)]
        for k in range(30):
            size = seed_rng.choice([1, 2, 3, 7, 40, 333, 2000])
            letters = list("ab" * size)
            seed_rng.shuffle(letters)
            self.assert_matches("".join(letters), pairs[k % len(pairs)])

    def test_matches_fraction_oracle(self):
        seed_rng = random.Random(63)
        pairs = list(fixture_pairs().values())
        pairs += [random_canonical_pair(seed_rng, cells=c) for c in (2, 5, 7)]
        for k in range(40):
            size = seed_rng.randint(1, 40)
            letters = list("ab" * size)
            seed_rng.shuffle(letters)
            pair = pairs[k % len(pairs)]
            self.assert_matches("".join(letters), pair)

    def test_atoms_on_a_breakpoint(self):
        # the N-th letter of a size-N word sits at 1/2, the breakpoint of separated
        for y in ("ab", "ba", "aabb", "abab", "bbaa", "aaabbb", "abbaabba"):
            self.assert_matches(y, separated_pair())
        assert empirical_distance("aabb", "a", separated_pair().mu) == 0.5

    def test_zero_density_cells(self):
        # skewed's mu has no mass on [0, 1/4], separated's mu none on [1/2, 1]
        for name in ("skewed", "separated"):
            pair = fixture_pairs()[name]
            for y in ("ab" * 4, "a" * 4 + "b" * 4, "b" * 4 + "a" * 4, "abba" * 3):
                self.assert_matches(y, pair)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            empirical_distance("", "a", StepMeasure.lebesgue())
        with pytest.raises(ValueError):
            empirical_distance("ab", "c", StepMeasure.lebesgue())
        with pytest.raises(ValueError):
            empirical_distance("ab", "a", StepMeasure.uniform_on(0, 2))
