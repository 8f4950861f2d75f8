"""Malformed input fails with a line-numbered parse error, and no check in
the library rests on a bare assert (``python -O`` strips asserts)."""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import trisect
from trisect.cli import run

# one digit past Python's default integer-string conversion limit (4300)
HUGE = "1" * 5001


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("interpreter has no integer-string conversion limit")
    if not 0 < sys.get_int_max_str_digits() < len(HUGE):
        pytest.skip("integer-string conversion limit is off or above the test size")


def test_huge_entry_in_diagram_is_a_line_numbered_parse_error(tmp_path, digit_limit):
    path = tmp_path / "d.tris"
    path.write_text(f"tris v1\ngenus 1\nalpha\n1 0\nbeta\n0 {HUGE}\ngamma\n1 1\n")
    code, out, err = cli("validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 6: ")


def test_huge_genus_is_a_line_numbered_parse_error(tmp_path, digit_limit):
    path = tmp_path / "d.tris"
    path.write_text(f"tris v1\n# comment\ngenus {HUGE}\n")
    code, _, err = cli("invariants", str(path))
    assert code == 2
    assert err.startswith("parse error: line 3: ")


def test_huge_entry_in_matrix_file_is_a_line_numbered_parse_error(tmp_path, digit_limit):
    diagram = tmp_path / "d.tris"
    diagram.write_text("tris v1\ngenus 1\nalpha\n1 0\nbeta\n0 1\ngamma\n1 1\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text(f"1 0\n\n-{HUGE} 1\n")
    code, out, err = cli("diffeo", str(diagram), "--matrix", str(matrix))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: line 3: ")


def test_a_slid_row_past_the_digit_limit_is_an_error_with_no_stdout(tmp_path, digit_limit):
    # entries of exactly the limit's length parse, and their sum has one
    # digit more, so the slid row cannot be printed
    big = "9" * sys.get_int_max_str_digits()
    path = tmp_path / "d.tris"
    rows = f"{big} 0 0 0\n{big} 0 0 0\n"
    path.write_text(f"tris v1\ngenus 2\nalpha\n{rows}beta\n{rows}gamma\n{rows}")
    move = ["--system", "alpha", "--target", "1", "--source", "2", "--sign", "+"]
    code, out, err = cli("slide", str(path), *move)
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


@pytest.mark.parametrize("count", [str(2**63), "100000000000000000000"])
def test_stabilization_count_past_the_index_range_is_a_usage_error(tmp_path, count):
    # only counts of at least 2**63: the list of blocks fails before it is
    # allocated, where a smaller huge count would really try to build it
    path = tmp_path / "cp2.tris"
    path.write_text(cli("example", "cp2")[1])
    code, out, err = cli("stabilize", str(path), "-n", count)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stabilization_count_past_addressable_memory_is_a_usage_error(tmp_path):
    # 2**61 blocks need 2**64 bytes of pointers, past the 2**63 bytes the
    # allocator accepts, so the list fails with MemoryError before any
    # allocation; a smaller count would really try to build it
    path = tmp_path / "cp2.tris"
    path.write_text(cli("example", "cp2")[1])
    code, out, err = cli("stabilize", str(path), "-n", str(2**61))
    assert (code, out) == (2, "")
    assert err == "error: out of memory\n"


def test_library_has_no_bare_asserts():
    package = Path(trisect.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
