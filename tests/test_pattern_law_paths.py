"""The exact pattern law has one code path, read off the package's source.

The step DP is built in one place, ``measures.pattern_probs``, which walks
the prefix trie of any word list once.  The h-transform and the boundary
report read many words at a time, so they must pass the whole list in one
call rather than call a one-word reader per word.
"""

import ast
from pathlib import Path

import wordchain

SOURCES = sorted(Path(wordchain.__file__).parent.glob("*.py"))
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
PER_WORD_READERS = {"pattern_prob_exact", "pattern_distribution", "one_step_prob"}


def _called_name(node):
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _tree(stem):
    return ast.parse((Path(wordchain.__file__).parent / f"{stem}.py").read_text(encoding="utf-8"))


def test_step_trie_is_built_only_in_pattern_probs():
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if _called_name(node) == "_StepTrie":
                    sites.append((path.stem, getattr(top, "name", None), node.lineno))
    assert [(stem, name) for stem, name, _ in sites] == [("measures", "pattern_probs")], sites


def test_no_per_word_reader_in_a_loop():
    found = set()
    for stem in ("bridges", "boundary"):
        for loop in ast.walk(_tree(stem)):
            if isinstance(loop, LOOPS):
                for node in ast.walk(loop):
                    if _called_name(node) in PER_WORD_READERS:
                        found.add(f"{stem}.py line {node.lineno}: {_called_name(node)}")
    assert sorted(found) == []
