"""The verify families: their failure reports and the benchmark's call contract."""

import ast
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
