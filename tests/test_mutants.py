"""tools/mutants.py's entries still apply to the source and name test files that exist."""

import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

MUTANTS = runpy.run_path(str(REPO / "tools" / "mutants.py"))["MUTANTS"]


def test_entries_are_named_once():
    names = [m.name for m in MUTANTS]
    assert len(names) >= 44
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_entry_applies_once(mutant):
    assert mutant.file.startswith("src/")
    assert (REPO / mutant.file).read_text(encoding="utf-8").count(mutant.source) == 1
    assert mutant.replacement != mutant.source
    assert mutant.tests
    for test_file in mutant.tests:
        assert (REPO / test_file).is_file(), test_file
