"""Every module-level import in the package's source is used.

No linter runs over the source, so this reads each module's syntax tree: a
name that a top-level ``import`` binds must be read somewhere in its module
(an attribute chain such as ``sys.stdout`` reads ``sys``).
``__init__.py`` exists to re-export, and an import line marked
``# noqa: F401`` is a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

import wordchain

SOURCES = sorted(
    path for path in Path(wordchain.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Name -> line of each binding made by a top-level import, re-exports aside."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return bound


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {line}: {name}"
        for name, line in _imported(tree, text.splitlines()).items()
        if name not in read
    ]
    assert unused == [], f"{path.name}: {unused}"
