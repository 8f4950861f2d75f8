"""Random bytes and near-miss files through every command that reads a
file: the exit code is always one of 0, 1, 2, 3 and no exception escapes
``cli.run``.

Near misses are atlas serializations with lines deleted, duplicated,
swapped or inserted, tokens or row entries replaced, or the text cut
short.  An edited genus line no longer matches the row widths, so every
file that parses keeps its atlas genus (at most 3); only the truncated
files below declare a large genus, and they end before a complete row.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import builtin, builtin_names, random_symplectic
from trisect.cli import run, serialize_diagram

EXIT_CODES = {0, 1, 2, 3}
_ROW = re.compile(r"-?[0-9]+( -?[0-9]+)*\Z")
ATLAS = [serialize_diagram(builtin(name)) for name in builtin_names()]
TOKENS = (
    "tris", "v1", "v2", "genus", "alpha", "beta", "gamma", "#", "-", "+1",
    "-1", "0", "1", "2", "3", "7", "1.5", "0x1", "99999999999999999999", "",
)
# symplectic matrices for the atlas genera 1, 2 and 3
MATRICES = [
    "\n".join(" ".join(map(str, row)) for row in random_symplectic(g, g, 3).entries) + "\n"
    for g in (1, 2, 3)
]


def commands(first, second, matrix):
    return (
        ["validate", first],
        ["invariants", first],
        ["stabilize", first, "-n", "1"],
        ["slide", first, "--system", "beta", "--target", "1", "--source", "2", "--sign", "-"],
        ["diffeo", first, "--matrix", matrix],
        ["sum", first, second],
        ["reverse", first],
        ["compare", first, second, "--depth", "1", "--nodes", "20"],
    )


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def mutate(text, edits):
    lines = text.splitlines()
    for op, i, j, token in edits:
        if not lines:
            lines = [token]
            continue
        n = i % len(lines)
        if op == "delete":
            del lines[n]
        elif op == "duplicate":
            lines.insert(n, lines[n])
        elif op == "swap":
            m = j % len(lines)
            lines[n], lines[m] = lines[m], lines[n]
        elif op == "insert":
            lines.insert(n, token)
        elif op in ("token", "entry"):
            if op == "entry":  # keep the layout, change one number of a row
                rows = [r for r, line in enumerate(lines) if _ROW.match(line)]
                n = rows[i % len(rows)] if rows else n
            words = lines[n].split(" ")
            words[j % len(words)] = token
            lines[n] = " ".join(words)
        else:  # cut the text short, mid-line
            text = "\n".join(lines)
            return text[: j % (len(text) + 1)]
    return "\n".join(lines) + "\n"


def edits(ops, tokens):
    return st.lists(
        st.tuples(st.sampled_from(ops), st.integers(0, 200), st.integers(0, 200), tokens),
        min_size=1,
        max_size=4,
    )


layout_edits = edits(
    ("delete", "duplicate", "swap", "insert", "token", "cut"),
    st.one_of(st.sampled_from(TOKENS), st.integers(-3, 3).map(str)),
)
value_edits = edits(("entry",), st.integers(-3, 3).map(str))
contents = st.one_of(
    st.builds(mutate, st.sampled_from(ATLAS), layout_edits),
    st.builds(mutate, st.sampled_from(ATLAS), value_edits),
    st.sampled_from(ATLAS),
    st.binary(max_size=200),
)
matrices = st.one_of(
    st.builds(mutate, st.sampled_from(MATRICES), layout_edits),
    st.builds(mutate, st.sampled_from(MATRICES), value_edits),
    st.sampled_from(MATRICES),
    st.binary(max_size=60),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def put(path, content):
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        path.write_bytes(content)
    return str(path)


@settings(max_examples=80, deadline=None)
@given(contents, contents, matrices)
def test_no_file_escapes_the_exit_codes(workdir, first, second, matrix):
    paths = (
        put(workdir / "a.tris", first),
        put(workdir / "b.tris", second),
        put(workdir / "m.txt", matrix),
    )
    for argv in commands(*paths):
        assert run_quietly(argv) in EXIT_CODES, argv


@pytest.mark.parametrize("cut", ["", "1 0", "1 0 0 1\n", "1 0 0 1\nbeta\n"])
def test_truncated_file_declaring_a_large_genus_is_a_parse_error(tmp_path, cut):
    path = put(tmp_path / "big.tris", f"tris v1\ngenus 1000000\nalpha\n{cut}")
    atlas = put(tmp_path / "s4.tris", ATLAS[0])
    matrix = put(tmp_path / "m.txt", MATRICES[0])
    for argv in commands(path, atlas, matrix):
        assert run_quietly(argv) == 2, argv
