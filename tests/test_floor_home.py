"""The floor of a size has one home: `intlin._require_int(value, what,
least)` writes every "must be nonnegative" and "must be >= " message of
the library.  `cli.py` keeps its own, which name its flags and run
before the library's."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trisect").glob("*.py"))
CHECKED = [p for p in SOURCES if p.name not in ("intlin.py", "cli.py")]
FLOOR_WORDS = ("must be nonnegative", "must be >= ")


def test_the_checked_sources_are_found():
    assert {p.name for p in CHECKED} >= {"atlas.py", "diagram.py", "moves.py", "symplectic.py"}


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_floor_message_outside_its_home(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)  # f-string parts are Constant nodes too
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(w in node.value for w in FLOOR_WORDS)
    ]
    assert lines == [], f"{path.name}: floor message on lines {lines}"
