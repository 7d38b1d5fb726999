"""Run the package's checks on every CPython from 3.10 on under a pyenv versions directory.

Usage: python tools/pythons.py [--versions DIR]

DIR defaults to ~/.pyenv/versions.  Each interpreter DIR/X.Y.Z/bin/python
with X.Y >= 3.10 gets one line.  Where pytest and hypothesis import with
the running interpreter's site-packages after src on PYTHONPATH (pytest and
hypothesis are pure Python, so one installed copy serves several
versions), it runs tier-1 with that PYTHONPATH and prints pytest's summary
line.  Elsewhere it prints whether the stdout of ``wordchain verify`` and of
every golden CLI invocation of tests/test_golden.py has the same sha256
there as under the running interpreter.  Run it with the interpreter whose
packages the others should borrow.  Only the standard library is used, and
the tests are read, not imported.  The exit status is 1 when a tier-1 run
fails or a digest differs.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TIMEOUT_S = 1800  # per child interpreter: a hung pool worker ends the tool with an error

# run by the interpreter under test: argv lists as JSON on stdin, "name code sha256" lines out
DIGESTS = """\
import contextlib, hashlib, io, json, sys
from wordchain.cli import main
for name, argv in json.load(sys.stdin).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(name, code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


def interpreters(versions: Path) -> list[tuple[str, Path]]:
    """(version, python) for every X.Y.Z >= 3.10 under `versions`, in version order."""
    found = []
    for entry in versions.iterdir() if versions.is_dir() else ():
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", entry.name)
        python = entry / "bin" / "python"
        if match and tuple(map(int, match.groups()[:2])) >= (3, 10) and python.is_file():
            found.append((tuple(map(int, match.groups())), entry.name, python))
    return [(name, python) for _, name, python in sorted(found)]


def golden_invocations(tmp: Path) -> dict[str, list[str]]:
    """The argv of every golden case, its input files written under `tmp`.

    The case tables are literals of tests/test_golden.py, and the functions
    that write the inputs (the ``files`` fixture and its helpers) are
    compiled from the same file without its imports.
    """
    sys.path.insert(0, str(SRC))
    from wordchain.measures import fixture_pairs

    tree = ast.parse((REPO / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    cases, helpers = {}, []
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("MC_CASES", "SERIAL_CASES"):
            cases.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name in ("_shuffled", "_long_words", "files"):
            node.decorator_list = []
            helpers.append(node)
    namespace = {"json": json, "random": random, "fixture_pairs": fixture_pairs}
    exec(compile(ast.Module(helpers, type_ignores=[]), "test_golden.py", "exec"), namespace)
    files = namespace["files"](tmp)
    return {name: [token.format(**files) for token in argv] for name, (argv, _) in cases.items()}


def digests(python: str, invocations: dict[str, list[str]]) -> list[str]:
    """'name code sha256' for `wordchain verify` and each invocation, run by `python`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    verify = subprocess.run([python, "-m", "wordchain.cli", "verify"], capture_output=True,
                            env=env, cwd=REPO, timeout=TIMEOUT_S)
    lines = subprocess.run([python, "-c", DIGESTS], input=json.dumps(invocations), text=True,
                           capture_output=True, check=True, env=env, cwd=REPO,
                           timeout=TIMEOUT_S).stdout.splitlines()
    return [f"verify {verify.returncode} {hashlib.sha256(verify.stdout).hexdigest()}", *lines]


def tier1(python: Path, path: str) -> tuple[bool, str]:
    """(passed, pytest's last line) of tier-1 under `python` with PYTHONPATH `path`."""
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          capture_output=True, text=True, env=env, cwd=REPO, timeout=TIMEOUT_S)
    return done.returncode == 0, (done.stdout.strip().splitlines() or ["no output"])[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--versions", type=Path, default=Path.home() / ".pyenv" / "versions")
    args = parser.parse_args()
    path = os.pathsep.join([str(SRC), sysconfig.get_paths()["purelib"]])
    bad = 0
    reference = None
    with tempfile.TemporaryDirectory(prefix="pythons-") as tmp:
        for name, python in interpreters(args.versions):
            probe = subprocess.run([python, "-c", "import pytest, hypothesis"],
                                   capture_output=True, env=dict(os.environ, PYTHONPATH=path))
            if probe.returncode == 0:
                ok, summary = tier1(python, path)
                line = f"tier-1: {summary}"
            else:
                if reference is None:
                    invocations = golden_invocations(Path(tmp))
                    reference = digests(sys.executable, invocations)
                theirs = digests(str(python), invocations)
                differ = [a.split()[0] for a, b in zip(reference, theirs) if a != b]
                ok = not differ and len(theirs) == len(reference)
                line = (f"no pytest; verify and {len(reference) - 1} golden invocations: "
                        + ("same sha256 as" if ok else f"differ ({', '.join(differ)}) from")
                        + f" Python {sys.version.split()[0]}")
            print(f"{name:<8} {'ok ' if ok else 'BAD'} {line}", flush=True)
            bad += not ok
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
