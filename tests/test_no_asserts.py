"""No check in the package rests on an `assert` statement, because
`python -O` removes them."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trisect").glob("*.py"))


def test_the_package_sources_are_found():
    assert any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"
