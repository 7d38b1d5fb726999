"""Measures, exact pattern probabilities, canonicalization, distances."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    ScriptedRandom,
    random_canonical_pair,
    single_draw,
    step_pattern_oracle,
    weak_distance_oracle,
)
from wordchain.errors import CapExceededError, SizeMismatchError
from wordchain.measures import (
    AtomicMeasure,
    AtomicPair,
    CanonicalPair,
    Exponential,
    StepMeasure,
    canonicalize,
    empirical_pair,
    fixture_pairs,
    pattern_distribution,
    pattern_matches,
    pattern_prob_exact,
    pattern_prob_mc,
    weak_distance,
)
from wordchain.verify import _atomic_pattern_counts, empirical_identity_check
from wordchain.words import enumerate_balanced, subword_count, word_size

F = Fraction

# asymptotic Kolmogorov-Smirnov critical value at the 1% level
KS_CRIT_1PCT = 1.6276


def separated_pair() -> CanonicalPair:
    return fixture_pairs()["separated"]


class TestStepMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepMeasure((F(0), F(1)), (F(2),))  # mass 2
        with pytest.raises(ValueError):
            StepMeasure((F(1), F(0)), (F(1),))  # decreasing breakpoints
        with pytest.raises(ValueError):
            StepMeasure((F(0), F(1)), (F(-1),))

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

    def test_from_mu(self):
        pair = CanonicalPair.from_mu(StepMeasure((F(0), F(1, 2), F(1)), (F(1, 2), F(3, 2))))
        assert pair.nu.densities == (F(3, 2), F(1, 2))

    def test_requires_unit_interval(self):
        with pytest.raises(ValueError):
            CanonicalPair(StepMeasure.uniform_on(0, 2), StepMeasure.uniform_on(0, 2))


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


class TestEmpiricalPair:
    def test_abab_atoms(self):
        pair = empirical_pair("abab")
        assert pair.mu.atoms == ((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))
        assert pair.nu.atoms == ((F(2, 4), F(1, 2)), (F(1), F(1, 2)))

    def test_aabb_atoms(self):
        pair = empirical_pair("aabb")
        assert [loc for loc, _ in pair.mu.atoms] == [F(1, 4), F(2, 4)]
        assert [loc for loc, _ in pair.nu.atoms] == [F(3, 4), F(1)]

    def test_total_mass(self):
        for y in ["ab", "abba", "bbaaab"]:
            pair = empirical_pair(y)
            assert sum(m for _, m in pair.mu.atoms) == 1
            assert sum(m for _, m in pair.nu.atoms) == 1

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            empirical_pair("")

    @pytest.mark.parametrize("atoms", [
        (),
        ((F(1, 2), F(1, 2)), (F(1, 4), F(1, 2))),  # decreasing locations
        ((F(0), F(3, 2)), (F(1), F(-1, 2))),  # a negative mass
        ((F(0), F(1, 2)), (F(1), F(1, 3))),  # mass 5/6
        ((F(0), F(1, 2)), (F(1), F(2, 3))),  # mass 7/6
    ])
    def test_atomic_measure_validation(self, atoms):
        with pytest.raises(ValueError):
            AtomicMeasure(atoms)


class TestEmpiricalIdentity:
    def test_worked_numbers(self):
        # y = abab, m = 1: (2^1)^2 * 3/4 = 3 = 1 * binom(abab, ab)
        pair = empirical_pair("abab")
        assert F(4) * pattern_prob_exact(pair, "ab") == subword_count("abab", "ab")
        assert F(4) * pattern_prob_exact(pair, "ba") == subword_count("abab", "ba")

    def test_sweep(self):
        for size in range(1, 5):
            for y in enumerate_balanced(size):
                for m in range(1, min(2, size) + 1):
                    report = empirical_identity_check(y, m)
                    assert report.ok, report.failures
        # beyond the verify sweep: sizes 7-8, every m up to 4
        for y in ["abbaabababbaab", "aaaaaaabbbbbbb", "aabbbaababbaabab"]:
            n = word_size(y)
            pair = empirical_pair(y)
            for m in range(1, 5):
                assert empirical_identity_check(y, m).ok, (y, m)
                dist = pattern_distribution(pair, m)
                for w in enumerate_balanced(m):
                    closed = F(math.factorial(m) ** 2 * subword_count(y, w), n ** (2 * m))
                    assert dist[w] == closed == pattern_prob_exact(pair, w), (y, w)

    def test_m_too_large(self):
        with pytest.raises(SizeMismatchError):
            empirical_identity_check("ab", 2)


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
            (empirical_pair("ab").mu, StepMeasure.lebesgue()),
            (Exponential(F(1)), Exponential(F(2))),
        ]:
            with pytest.raises(ValueError) as exc:
                canonicalize(zeta, eta)
            assert "\n" not in str(exc.value)


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
        atoms = empirical_pair("abab").mu
        draws = set(atoms.drawer(rng)(200))
        assert draws == {F(1, 4), F(3, 4)}

    @pytest.mark.parametrize("source", [
        StepMeasure.uniform_on(F(1, 3), F(2, 3)),
        fixture_pairs()["separated"].nu,  # zero density on [0, 1/2]
        fixture_pairs()["three-cell"].nu,  # zero density on the first cell
        fixture_pairs()["skewed"].mu,
        Exponential(F(3, 2)),
        empirical_pair("abbaab").nu,
    ], ids=["one-cell", "separated-nu", "three-cell-nu", "skewed-mu", "exp", "atomic"])
    def test_batch_draw_equals_single_draws(self, source):
        for seed in range(40):
            single, batch = random.Random(seed), random.Random(seed)
            k = seed % 13
            draw = source.drawer(batch)
            assert draw(k) + draw(7) == [single_draw(source, single) for _ in range(k + 7)]
            assert batch.getstate() == single.getstate()

    def test_pattern_match_needs_distinct_atoms(self):
        # mu has atoms 1/4, 1/2 and nu has 3/4, 1, each of mass 1/2; trial 1
        # would read aabb but for its tied mu draws, trial 3 ties as well
        script = [0.125, 0.25, 0.125, 0.625, 0.125, 0.625, 0.625, 0.125, 0.625, 0.75, 0.125, 0.625]
        rng = ScriptedRandom(36, script)
        assert pattern_matches(empirical_pair("aabb"), "aabb", 3, rng) == [False, True, False]
        assert rng.script == []


def uniform_grid(n: int) -> AtomicMeasure:
    """(mu + nu)/2 for the empirical pair of a word of size n: mass 1/(2n) at each l/(2n)."""
    return AtomicMeasure(tuple((F(i, 2 * n), F(1, 2 * n)) for i in range(1, 2 * n + 1)))


class TestWeakDistance:
    def test_identical(self):
        assert weak_distance(StepMeasure.lebesgue(), StepMeasure.lebesgue()) == 0.0

    def test_separated_vs_lebesgue(self):
        assert weak_distance(separated_pair().mu, StepMeasure.lebesgue()) == 0.5

    def test_grid_average_close_to_lebesgue(self):
        for y in ["aabb", "ab" * 3, "ab" * 5]:
            pair = empirical_pair(y)
            grid = uniform_grid(pair.size)
            assert weak_distance(StepMeasure.lebesgue(), grid) <= 1 / (2 * pair.size)

    def test_metric_axioms_on_random_triples(self):
        seed_rng = random.Random(99)
        for _ in range(5):
            triple = [random_canonical_pair(seed_rng, cells=4).mu for _ in range(3)]
            p, q, r = triple
            assert weak_distance(p, q) == pytest.approx(weak_distance(q, p))
            assert weak_distance(p, r) <= weak_distance(p, q) + weak_distance(q, r) + 1e-12

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            weak_distance(StepMeasure.uniform_on(0, 2), StepMeasure.lebesgue())

    def test_atoms_on_a_breakpoint(self):
        # the atoms of ab, ba and aabb sit on 1/2, the breakpoint of separated
        pair = separated_pair()
        expected = {"ab": (1.0, 1.0), "ba": (1.0, 1.0), "aabb": (0.5, 0.5), "abab": (0.5, 0.5)}
        for y, (d_mu, d_nu) in expected.items():
            emp = empirical_pair(y)
            for p, q, d in ((emp.mu, pair.mu, d_mu), (emp.nu, pair.nu, d_nu)):
                assert weak_distance(p, q) == d == float(weak_distance_oracle(p, q))
                assert weak_distance(q, p) == d

    def test_matches_fraction_oracle(self):
        seed_rng = random.Random(63)
        pairs = list(fixture_pairs().values())
        pairs += [random_canonical_pair(seed_rng, cells=c) for c in (2, 5, 7)]
        for k in range(40):
            size = seed_rng.randint(1, 40)
            letters = list("ab" * size)
            seed_rng.shuffle(letters)
            emp = empirical_pair("".join(letters))
            pair, other = pairs[k % len(pairs)], seed_rng.choice(pairs)
            for p, q in (
                (emp.mu, pair.mu),
                (emp.nu, pair.nu),
                (emp.mu, emp.nu),
                (pair.mu, other.nu),
                (uniform_grid(size), pair.nu),
            ):
                assert weak_distance(p, q) == float(weak_distance_oracle(p, q))
