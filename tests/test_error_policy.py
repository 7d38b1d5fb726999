"""The package's error policy, read off its source.

Every check that rejects an input raises WordchainError or a subclass, and
the CLI maps exactly those (and OSError) to an exit code.  A plain
ValueError from inside the package is therefore a bug, so the source may
neither raise one nor catch one, except where argparse's integer parser
reads a command-line token.
"""

import ast
from pathlib import Path

import pytest

import wordchain

SOURCES = sorted(Path(wordchain.__file__).parent.glob("*.py"))
# (module, top-level function) pairs allowed an `except ValueError`
ALLOWED_HANDLERS = {("cli", "_int_at_least")}


def _names_value_error(node) -> bool:
    return node is not None and any(
        isinstance(n, ast.Name) and n.id == "ValueError" for n in ast.walk(node)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_plain_value_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        allowed = (path.stem, getattr(top, "name", None)) in ALLOWED_HANDLERS
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and _names_value_error(node.exc):
                found.append(f"line {node.lineno}: raise ValueError")
            if isinstance(node, ast.ExceptHandler) and not allowed and (
                node.type is None or _names_value_error(node.type)
            ):
                found.append(f"line {node.lineno}: handler catching ValueError")
    assert found == [], f"{path.name}: {found}"
