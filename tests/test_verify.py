"""The verify families: their failure reports and the benchmark's call contract."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("key, w", [
    # in the recurrence, served only as a base, binom(w, v)
    (("abab", ""), "abab"),
    # served only as an extension, binom(w, v + x) with |v + x| > |w|
    (("ab", "aab"), "ab"),
    # served only as a left side, binom(w + y, v + x) with |w + y| = 8
    (("abababab", "abba"), "abababa"),
], ids=["base", "ext", "lhs"])
def test_recurrence_closure_reads_every_count(monkeypatch, key, w):
    exact = verify.subword_count
    monkeypatch.setattr(verify, "subword_count", lambda *args: exact(*args) + (args == key))
    res = verify.check_recurrence_closure()
    assert not res.ok
    assert any(line.startswith(f"recurrence broken at w={w!r}") for line in res.failures)
    assert res.checked == 239_785


# every length-5 word at one key: 32 faults, more failure lines than a report keeps
MANY_FAULTS = tuple((w, "ab") for w in enumerate_words(5))


@pytest.mark.parametrize("keys", [
    (("", ""),),  # binom(w, "") = 1 at the root
    (("ab", "abb"), ("ab", "abab")),  # binom(w, v) = 0 read off the row, and asked outside it
    (("aba", "ab"), ("aba", "ba")),  # two faults in one w
    (("abababab", "abba"), ("bbb", "a"), ("aabbab", "bbaa"), ("a", "b")),
    MANY_FAULTS,
], ids=["empty", "zeros", "two-in-one-w", "scattered", "many"])
def test_recurrence_closure_matches_oracle(monkeypatch, keys):
    exact = verify.subword_count
    planted = set(keys)

    def count(w, v):
        return exact(w, v) + ((w, v) in planted)

    monkeypatch.setattr(verify, "subword_count", count)
    res = verify.check_recurrence_closure()
    checked, failures = recurrence_closure_oracle(count)
    assert failures
    assert res.failures == failures
    assert res.checked == checked == 239_785


def test_recurrence_closure_asks_each_count_once():
    subword_count.cache_clear()
    assert verify.check_recurrence_closure().checked == 239_785
    # one miss per distinct (w, u) pair: no count is evicted and asked again
    assert subword_count.cache_info().misses == 239_785


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
