"""The verify families: their failure reports and the benchmark's call contract."""

import ast
import importlib
import inspect
import itertools
from pathlib import Path

import pytest

from conftest import atomic_selection_counts_oracle, recurrence_closure_oracle
from wordchain import verify
from wordchain.cli import main
from wordchain.words import enumerate_balanced, enumerate_words, subword_count

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def benchmark_families() -> tuple[str, ...]:
    """The family names that perfbench/worker.py calls as verify.check_<name>()."""
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FAMILIES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no FAMILIES tuple")


def test_failing_family_reports_full_count(monkeypatch):
    # a clean run first: what it computed must not serve the patched run below
    assert verify.check_bridge_conditionals().ok
    exact = verify.backward_prob
    monkeypatch.setattr(verify, "backward_prob", lambda u, v: exact(u, v) + 1e-9)
    for check, count in (
        (verify.check_backward_normalization, 98),
        (verify.check_bridge_conditionals, 4516),
    ):
        res = check()
        assert not res.ok
        assert len(res.failures) == 21
        assert res.failures[-1] == "... further failures suppressed"
        assert res.checked == count
    assert main(["verify"]) == 1


def test_atomic_counts_match_selection_oracle():
    cases = [(y, m) for size in range(1, 7) for y in enumerate_balanced(size)
             for m in range(1, min(2, size) + 1)]
    # the size-7 and size-8 words of the empirical-identity sweep, every m up to 4
    cases += [(y, m) for y in ("abbaabababbaab", "aaaaaaabbbbbbb", "aabbbaababbaabab")
              for m in range(1, 5)]
    for y, m in cases:
        counts = verify._atomic_pattern_counts(y, m)
        oracle = atomic_selection_counts_oracle(y, m)
        assert {w: counts[w] for w in enumerate_balanced(m)} == {
            w: oracle.get(w, 0) for w in enumerate_balanced(m)}, (y, m)


def plant_rows(monkeypatch, planted=frozenset(), reads=None):
    """Make check_recurrence_closure's row readers add 1 at each planted (w, v) key.

    Each row read appends (w, words, row) to `reads`, when given.
    """
    exact = verify._count_rows

    def count_rows(words):
        read = exact(words)

        def planted_read(w):
            row = tuple(c + ((w, v) in planted) for v, c in zip(words, read(w)))
            if reads is not None:
                reads.append((w, words, row))
            return row

        return planted_read

    monkeypatch.setattr(verify, "_count_rows", count_rows)


def planted_count(planted):
    """subword_count with 1 added at each planted (w, v) key."""
    exact = subword_count.__wrapped__
    return lambda w, v: exact(w, v) + ((w, v) in planted)


@pytest.mark.parametrize("key, w", [
    # in the recurrence, served only as a base, binom(w, v)
    (("abab", ""), "abab"),
    # served only as an extension, binom(w, v + x) with |v + x| > |w|
    (("ab", "aab"), "ab"),
    # served only as a left side, binom(w + y, v + x) with |w + y| = 8
    (("abababab", "abba"), "abababa"),
], ids=["base", "ext", "lhs"])
def test_recurrence_closure_reads_every_count(monkeypatch, key, w):
    plant_rows(monkeypatch, {key})
    res = verify.check_recurrence_closure()
    assert not res.ok
    assert any(line.startswith(f"recurrence broken at w={w!r}") for line in res.failures)
    assert res.checked == 239_785


# every length-5 word at one key: 32 faults, more failure lines than a report keeps
MANY_FAULTS = tuple((w, "ab") for w in enumerate_words(5))


@pytest.mark.parametrize("keys", [
    (("", ""),),  # binom(w, "") = 1 at the root
    (("ab", "abb"), ("ab", "abab")),  # binom(w, v) = 0 for |v| = |w| + 1 and |w| + 2
    (("aba", "ab"), ("aba", "ba")),  # two faults in one w
    (("abababab", "abba"), ("bbb", "a"), ("aabbab", "bbaa"), ("a", "b")),
    MANY_FAULTS,
], ids=["empty", "zeros", "two-in-one-w", "scattered", "many"])
def test_recurrence_closure_matches_oracle(monkeypatch, keys):
    plant_rows(monkeypatch, set(keys))
    res = verify.check_recurrence_closure()
    checked, failures = recurrence_closure_oracle(planted_count(set(keys)))
    assert failures
    assert res.failures == failures
    assert res.checked == checked == 239_785


def test_recurrence_closure_asks_each_count_once(monkeypatch):
    reads = []
    plant_rows(monkeypatch, reads=reads)
    assert verify.check_recurrence_closure().checked == 239_785
    # one read per row: each word of at most 8 letters once
    assert sorted(w for w, _, _ in reads) == sorted(verify._word_index(8))
    # no (w, u) pair in two rows
    pairs = [(w, u) for w, words, _ in reads for u in words]
    assert len(pairs) == len(set(pairs)) == 239_785


def test_count_rows_equal_subword_count(monkeypatch):
    # every (w, u) pair that the recurrence family reads
    reads = []
    plant_rows(monkeypatch, reads=reads)
    assert verify.check_recurrence_closure().ok
    for w, words, row in reads:
        assert row == tuple(map(subword_count.__wrapped__, itertools.repeat(w), words)), w


def test_recurrence_closure_leaves_the_lru_alone():
    # the counts are asked once each, so they go past subword_count's LRU
    subword_count("abab", "ab")
    before = subword_count.cache_info()
    assert verify.check_recurrence_closure().ok
    assert subword_count.cache_info() == before


def test_pool_order_is_a_permutation_of_the_families():
    assert sorted(verify._LONGEST_FIRST) == sorted(verify.FAMILIES)


def test_families_match_benchmark(monkeypatch):
    families = benchmark_families()
    assert len(families) == 11
    assert verify.FAMILIES == families
    for name in families:
        check = getattr(verify, f"check_{name}")
        assert not inspect.signature(check).parameters, name
        monkeypatch.setattr(verify, f"check_{name}", lambda name=name: verify.CheckResult(name))
    assert [verify.run_family(name).name for name in verify.FAMILIES] == list(families)


def _import_from(module: str, name: str):
    """What `from module import name` binds: a submodule or an attribute (None if neither)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def test_benchmark_names_resolve():
    """Every name perfbench/worker.py imports from, or reads off, a wordchain module exists."""
    tree = ast.parse(WORKER.read_text())
    modules = {}  # worker-level name -> the wordchain module it is bound to
    used = []  # (module, attribute) pairs the worker needs
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                (alias.asname or alias.name, importlib.import_module(alias.name))
                for alias in node.names if alias.name.split(".")[0] == "wordchain"
            )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wordchain":
            for alias in node.names:
                bound = _import_from(node.module, alias.name)
                if inspect.ismodule(bound):
                    modules[alias.asname or alias.name] = bound
                else:
                    used.append((importlib.import_module(node.module), alias.name))
    used += [
        (modules[node.value.id], node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    missing = sorted(f"{m.__name__}.{name}" for m, name in used if not hasattr(m, name))
    assert not missing, f"perfbench/worker.py uses names the package lacks: {missing}"
    # the exact workload times the product formula and the exponential pair's word law
    assert {"pl_transition", "pl_word_prob", "RatePair"} <= {name for _, name in used}


def _plus_one(real, planted):
    """real(*args), one more where planted(*args) holds."""
    return lambda *args: real(*args) + planted(*args)


def _bad_matrices(real):
    """_count_matrices with P's first diagonal entry 2 and H's last one 1."""
    def fake(max_len):
        index, p, h = real(max_len)
        p[0][0], h[-1][-1] = 2, 1
        return index, p, h
    return fake


def _atomic_counts_one_more(real):
    """_atomic_pattern_counts with one more selection reading "ab" in y = "ab"."""
    def fake(y, m):
        counts = real(y, m)
        counts["ab"] += y == "ab"
        return counts
    return fake


def _h_one_more_at_ab(real):
    """_h_table with h("ab") one more, for every pair."""
    def fake(pair, words):
        h = real(pair, words)
        h["ab"] += 1
        return h
    return fake


def _row_without_first(real):
    """htransform_row with the first entry of the row from "ab" left out."""
    return lambda rates, u: dict(list(real(rates, u).items())[u == "ab":])


PL_RATES = "RatePair(alpha=Fraction(2, 1), beta=Fraction(1, 1))"

# (family, the name in verify it reads, the fault planted there, the first lines of its report)
PLANTED = [
    ("convolution_identity", "subword_count",
     lambda real: _plus_one(real, lambda w, v: (w, v) == ("abab", "ab")),
     ("convolution broken at u='' w='abab'",)),
    ("matrix_exponential", "_count_matrices", _bad_matrices,
     ("P diagonal at '' is not 1", "H diagonal at 'bbbbb' is not 0", "exp(H) != P at ('', '')")),
    ("chapman_kolmogorov", "multi_step_prob",
     lambda real: _plus_one(real, lambda v, w: (v, w) == ("", "ba")),
     ("composition != closed form at v='' w='ba'",)),
    ("backward_normalization", "backward_prob",
     lambda real: _plus_one(real, lambda u, v: (u, v) == ("ab", "abab")),
     ("backward row from 'abab' sums to 2",)),
    ("bridge_conditionals", "backward_prob",
     lambda real: _plus_one(real, lambda u, v: (u, v) == ("ab", "abab")),
     ("target 'abab': m=1 u='ab' v='abab': bridge gives 3/4, deletion gives 7/4",)),
    ("kernel_ratio_law", "dm_kernel",
     lambda real: _plus_one(real, lambda v, w: (v, w) == ("ab", "abab")),
     ("kernel law broken at v='ab' w='abab'",)),
    ("pattern_normalization", "pattern_distribution",
     lambda real: lambda pair, m: {**real(pair, m), "": m == 3},
     ("pair lebesgue: patterns of size 3 sum to 2",)),
    ("empirical_identity", "_atomic_pattern_counts", _atomic_counts_one_more,
     ("y='ab' m=1: w='ab': served 1 != enumerated 2",)),
    ("plackett_luce", "pl_word_prob", lambda real: _plus_one(real, lambda rates, u: u == "ba"),
     (f"rates {PL_RATES}: pmf over W_1 sums to 2",)),
    ("plackett_luce", "htransform_row", _row_without_first,
     (f"rates {PL_RATES}: transition row from 'ab' is not over its successors",
      f"rates {PL_RATES}: transition row from 'ab' sums to 13/15")),
    ("plackett_luce", "pl_transition",
     lambda real: _plus_one(real, lambda rates, u, v: (u, v) == ("ab", "abab")),
     (f"rates {PL_RATES}: transition triangle broken at 'ab'->'abab'",)),
    ("harmonicity", "_h_table", _h_one_more_at_ab,
     ("pair lebesgue: harmonicity broken at ''", "pair lebesgue: harmonicity broken at 'ab'",
      "lebesgue pair: h('ab') = 2 != 1")),
]

# the identities each family checks, as `wordchain verify` reports them
CHECKED = {"convolution_identity": 2230, "matrix_exponential": 3969, "chapman_kolmogorov": 2230,
           "kernel_ratio_law": 7571, "backward_normalization": 98, "bridge_conditionals": 4516,
           "pattern_normalization": 15, "empirical_identity": 10180, "plackett_luce": 99,
           "harmonicity": 87}


@pytest.mark.parametrize("family, name, fake, lines", PLANTED,
                         ids=[f"{family}-{name}" for family, name, _, _ in PLANTED])
def test_planted_fault_is_reported(monkeypatch, family, name, fake, lines):
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    res = getattr(verify, f"check_{family}")()
    assert not res.ok
    assert res.failures[: len(lines)] == list(lines)
    assert res.checked == CHECKED[family]


def _served_off_the_patterns(real):
    """pattern_distribution with mass 1 on each of the 21 words a, aa, ..., a^21 besides."""
    return lambda pair, m: {**real(pair, m), **{"a" * k: 1 for k in range(1, 22)}}


# (family, the name in verify it reads, a fault that the family's first failing target alone
# breaks more than 20 identities at, the whole report, the identities checked with the fault)
ONE_TARGET_PAST_THE_CAP = [
    # every v reaches a target of size 4, and a hitting probability into size 4 is one more:
    # the first such target, 'aaaabbbb', breaks at each (u, v) of m = 3 with u in v
    ("bridge_conditionals", "multi_step_prob",
     lambda real: _plus_one(real, lambda v, w: len(w) == 8),
     ("target 'aaaabbbb': m=3 u='aaabbb' v='aaaabbbb': bridge gives 1/71, deletion gives 1",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aaababbb': bridge gives 7/1136, deletion gives 7/16",
      "target 'aaaabbbb': m=3 u='aababb' v='aaababbb': bridge gives 9/1136, deletion gives 9/16",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aaabbabb': bridge gives 1/284, deletion gives 1/4",
      "target 'aaaabbbb': m=3 u='aababb' v='aaabbabb': bridge gives 3/568, deletion gives 3/8",
      "target 'aaaabbbb': m=3 u='aabbab' v='aaabbabb': bridge gives 3/568, deletion gives 3/8",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aaabbbab': bridge gives 1/284, deletion gives 1/4",
      "target 'aaaabbbb': m=3 u='aabbab' v='aaabbbab': bridge gives 9/1136, deletion gives 9/16",
      "target 'aaaabbbb': m=3 u='aabbba' v='aaabbbab': bridge gives 3/1136, deletion gives 3/16",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aaabbbba': bridge gives 1/284, deletion gives 1/4",
      "target 'aaaabbbb': m=3 u='aabbba' v='aaabbbba': bridge gives 3/284, deletion gives 3/4",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aabaabbb': bridge gives 1/284, deletion gives 1/4",
      "target 'aaaabbbb': m=3 u='aababb' v='aabaabbb': bridge gives 3/568, deletion gives 3/8",
      "target 'aaaabbbb': m=3 u='abaabb' v='aabaabbb': bridge gives 3/568, deletion gives 3/8",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aabababb': bridge gives 1/1136, deletion gives 1/16",
      "target 'aaaabbbb': m=3 u='aababb' v='aabababb': bridge gives 7/1136, deletion gives 7/16",
      "target 'aaaabbbb': m=3 u='aabbab' v='aabababb': bridge gives 1/568, deletion gives 1/8",
      "target 'aaaabbbb': m=3 u='abaabb' v='aabababb': bridge gives 1/568, deletion gives 1/8",
      "target 'aaaabbbb': m=3 u='ababab' v='aabababb': bridge gives 1/284, deletion gives 1/4",
      "target 'aaaabbbb': m=3 u='aaabbb' v='aababbab': bridge gives 1/1136, deletion gives 1/16",
      "... further failures suppressed"),
     107_682),
    # the first target, y = 'ab' with m = 1, breaks at all 21 words
    ("empirical_identity", "pattern_distribution", _served_off_the_patterns,
     tuple(f"y='ab' m=1: w={'a' * k!r}: served 1 != enumerated 0" for k in range(1, 21))
     + ("... further failures suppressed",),
     63_646),
]


@pytest.mark.parametrize("family, name, fake, lines, checked", ONE_TARGET_PAST_THE_CAP,
                         ids=[family for family, *_ in ONE_TARGET_PAST_THE_CAP])
def test_one_target_past_the_cap(monkeypatch, family, name, fake, lines, checked):
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    res = getattr(verify, f"check_{family}")()
    assert res.failures == list(lines)
    assert res.checked == checked
