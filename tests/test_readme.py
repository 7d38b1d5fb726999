"""The README's library tour and command lines run as written and print what their
comments say, and every function the README names by module exists."""

import ast
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import conftest
import wordchain
from wordchain.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_comments_hold():
    (source,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) in comment, (ast.unparse(stmt), value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked >= 15


def test_named_functions_resolve():
    # a backticked module.name names wordchain.<module>.<name> or conftest.<name>
    modules = {p.stem for p in Path(wordchain.__file__).parent.glob("*.py")} | {"conftest"}
    names = re.findall(r"`(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    named = [(module, name) for module, name in names if module in modules]
    for module, name in named:
        owner = conftest if module == "conftest" else importlib.import_module(f"wordchain.{module}")
        assert hasattr(owner, name), f"README names {module}.{name}, which does not exist"
    assert {"measures.empirical_distance", "words.subword_counts", "conftest.single_draw"} <= {
        f"{module}.{name}" for module, name in named
    }


def test_command_line_comments_hold(capsys):
    # a command line whose comment starts with a number or fraction prints that value
    text = README.read_text(encoding="utf-8")
    lines = re.findall(r"^(wordchain [^#\n]*?)\s+#\s*(-?\d+(?:/\d+)?)\b", text, re.M)
    for command, value in lines:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == value + "\n", command
    assert len(lines) == 5
