"""Count the code lines of `src/trisect`, the size that ROADMAP and
CHANGES quote.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring: a line holding at least one token
other than a comment, outside every docstring.  `tokenize` finds the
tokens and `ast` the docstrings, so a string that is not a docstring
counts, and so does each non-blank line inside it.

Run as a script to print the count of each module and the total:

    python tests/test_code_lines.py [DIR]

DIR defaults to `src/trisect` next to this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "trisect"
# tokens that hold no code: the line structure and comments
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    lines -= _docstring_lines(ast.parse(source))
    return sum(1 for n in lines if text[n - 1].strip())


def count(directory: Path = SRC) -> dict[str, int]:
    """Code lines per module of ``directory``, by file name."""
    return {p.name: code_lines(p.read_text()) for p in sorted(directory.glob("*.py"))}


FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment still leaves code


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
no docstring

counts its non-blank lines"""

    def f(self):
        """Function docstring."""
        return (
            1
        )


async def g():
    "one-line docstring"
    "a second string is code"
'''


def test_the_rule_on_a_fixture():
    # import, class, x's three non-blank lines, def, return's three lines,
    # async def and the second string
    assert code_lines(FIXTURE) == 11


def test_every_module_counts():
    counts = count()
    assert "__init__.py" in counts and all(n > 0 for n in counts.values())


if __name__ == "__main__":
    counts = count(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC)
    for name, n in counts.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")
