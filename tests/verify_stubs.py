"""Stand-ins for ``verify.run_family`` that process-pool workers import by name.

A monkeypatch in the test process reaches only forked workers.  A worker
started by spawn or forkserver unpickles the function it runs, importing
it by module and name, so the stubs live at the top level of this module.
"""

import time

from wordchain import verify


def one_identity(name: str) -> verify.CheckResult:
    return verify.CheckResult(name, checked=1)


def slow(name: str) -> verify.CheckResult:
    """A one-identity family that takes a fifth of a second."""
    time.sleep(0.2)
    return one_identity(name)


def failing(name: str) -> verify.CheckResult:
    """A failing family: two identities, two failure lines."""
    res = verify.CheckResult("failing family", checked=2)
    res.fail("first failure")
    res.fail("second failure")
    return res


def raising(name: str) -> verify.CheckResult:
    return 1 // 0


def run_family(name: str, overrides: dict) -> verify.CheckResult:
    """overrides[name](name) if family `name` has an override, else a one-identity result."""
    return overrides.get(name, one_identity)(name)
