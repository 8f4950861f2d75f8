"""A command writes its stdout once, after it has finished.

So a command that fails late, after it could have printed part of an
answer, ends with its exit code and a message on stderr and writes
nothing on stdout.  The entry grammar's separators are those of
``str.split()``, so a row that fails to match holds a bad token.
"""

import contextlib
import io
import sys

import pytest

from trisect import TrisectionDiagram, builtin
from trisect.cli import _ROW, run, serialize_diagram

from cli_corpus import load_corpus


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_an_answer_too_long_to_print_writes_no_stdout(tmp_path):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("no limit on int-to-str digits")
    # alpha_1 += N alpha_2 and beta_1 += N beta_2 are slides, so the diagram
    # stays valid and its entries parse, but Q_alpha_beta holds 1 + N^2,
    # whose digits exceed the limit: the first six lines could be printed
    n = 10 ** (limit // 2 + 100)
    d = builtin("cp2-sum-cp2mirror")
    systems = []
    for s in d.systems:
        rows = [list(r) for r in s.classes.entries]
        if s.label in ("alpha", "beta"):
            rows[0] = [a + n * b for a, b in zip(rows[0], rows[1])]
        systems.append(rows)
    path = tmp_path / "long.tris"
    path.write_text(serialize_diagram(TrisectionDiagram.from_rows(2, *systems)))
    code, out, err = _run(["invariants", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_row_separators_are_those_of_str_split():
    breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) > 1}
    differ = [
        f"U+{ord(c):04X}"
        for c in map(chr, range(sys.maxunicode + 1))
        if c not in breaks
        and bool(_ROW.match(f"1{c}-2")) != (f"1{c}-2".split() == ["1", "-2"])
    ]
    assert differ == []


def test_every_stored_case_that_exits_2_has_empty_stdout():
    failed = [c for c in load_corpus()["cases"] if c["code"] == 2]
    assert failed
    assert [c["argv"] for c in failed if c["stdout"]] == []
