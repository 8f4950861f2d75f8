"""A row line that is ASCII and holds no '_' goes straight to ``int``.

On such a line ``int`` accepts a token exactly when the row pattern
does, so the parser skips the pattern there and, on ``int``'s
ValueError, names the first token the pattern rejects before it falls
back to "integer has too many digits".  Each case below gives the
message, exit code and empty stdout that the full-line match gave.
"""

import contextlib
import io
import sys

import pytest

from trisect.cli import run

LONG = "9" * (sys.get_int_max_str_digits() + 1)
CASES = {
    "non-ASCII digit": ("alpha\n1 ١\n", "line 4: invalid integer '١'"),
    "fullwidth digit": ("alpha\n１ 0\n", "line 4: invalid integer '１'"),
    "underscore": ("alpha\n1_0 0\n", "line 4: invalid integer '1_0'"),
    "bad token after an overlong one": (f"alpha\n{LONG} x1\n", "line 4: invalid integer 'x1'"),
    "lone overlong token": (f"alpha\n0 {LONG}\n", "line 4: integer has too many digits"),
}


@pytest.mark.parametrize("name", CASES)
def test_a_bad_row_gives_the_row_patterns_message(name, tmp_path):
    rows, message = CASES[name]
    path = tmp_path / "bad.tris"
    path.write_bytes(f"tris v1\ngenus 1\n{rows}beta\n0 1\ngamma\n1 1\n".encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["invariants", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"parse error: {message}\n")


def test_an_overlong_genus_is_too_many_digits(tmp_path):
    path = tmp_path / "bad.tris"
    path.write_text(f"tris v1\ngenus {LONG}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["validate", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "parse error: line 2: integer has too many digits\n"
