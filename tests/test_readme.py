"""The README's library tour runs as written and prints what its comments say."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
