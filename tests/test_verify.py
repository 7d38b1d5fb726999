"""The verify families: their failure reports and the benchmark's call contract."""

import ast
import importlib
import inspect
from pathlib import Path

from wordchain import verify
from wordchain.cli import main

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def benchmark_families() -> tuple[str, ...]:
    """The family names that perfbench/worker.py calls as verify.check_<name>()."""
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "FAMILIES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no FAMILIES tuple")


def test_failing_family_reports_full_count(monkeypatch):
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


def test_families_match_benchmark(monkeypatch):
    families = benchmark_families()
    assert len(families) == 11
    for name in families:
        check = getattr(verify, f"check_{name}")
        assert not inspect.signature(check).parameters, name
        monkeypatch.setattr(verify, f"check_{name}", lambda name=name: verify.CheckResult(name))
    assert [res.name for res in verify.run_verification()] == list(families)


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
