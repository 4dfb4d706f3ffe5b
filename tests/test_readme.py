"""The README's python examples run, and their result comments hold.

The python code blocks of README.md run in order, in one namespace.  A
statement ``expr  # comment`` whose comment parses with ``ast.literal_eval``
must evaluate to that literal, and a ``print`` followed by comment lines
must print exactly those lines.
"""

import ast
import io
import re
import tokenize
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def _comments(source: str) -> dict[int, str]:
    """Line number -> the text of the comment on that line, without '#'."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:] for t in tokens if t.type == tokenize.COMMENT}


def _literal(comment: str):
    try:
        return True, ast.literal_eval(comment.strip())
    except (ValueError, SyntaxError):
        return False, None


def test_readme_examples_hold():
    namespace: dict = {}
    checked = printed = 0
    for source in _python_blocks():
        lines = source.splitlines()
        comments = _comments(source)
        for stmt in ast.parse(source).body:
            code = compile(ast.Module([stmt], []), str(README), "exec")
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
                    and getattr(stmt.value.func, "id", None) == "print":
                out = io.StringIO()
                with redirect_stdout(out):
                    exec(code, namespace)
                want = []
                for line in lines[stmt.end_lineno:]:
                    if not line.startswith("#"):
                        break
                    want.append(line[2:])
                assert out.getvalue().splitlines() == want, ast.unparse(stmt)
                printed += 1
                continue
            is_literal, value = _literal(comments.get(stmt.end_lineno, ""))
            if isinstance(stmt, ast.Expr) and is_literal:
                got = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
                assert got == value, ast.unparse(stmt)
                checked += 1
            else:
                exec(code, namespace)
    assert (checked, printed) == (6, 1)
