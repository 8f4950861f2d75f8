"""The parser's one-match row path and the printer's one-``translate`` file
path, each against the per-token and per-row code they replace.

Every ASCII row line without ``_`` goes to ``map(int, ...)`` first, as
does any other line that matches one full-line pattern of ASCII integers
and blanks; a line that ``int`` rejects, or that neither admits, takes
the per-token loop, so its messages and line numbers are those of the
loop.
A printed row is its tuple's ``str`` with ``(``, ``)`` and ``,`` deleted.
The oracles below are copies of the code before either fast path.
"""

import random
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import LABELS, IntMatrix, TrisectionDiagram
from trisect.cli import (
    DiagramParseError,
    _fmt_matrix,
    _int_row,
    parse_diagram,
    serialize_diagram,
)

from helpers import random_valid_diagram

# ---------------------------------------------------------------- oracles

_INT = re.compile(r"[+-]?[0-9]+\Z")


def oracle_int_row(tokens, number):
    for tok in tokens:
        if not _INT.match(tok):
            raise DiagramParseError(f"invalid integer {tok!r}", number)
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise DiagramParseError("integer has too many digits", number) from None


def oracle_logical_lines(text):
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            out.append((number, content))
    return out


def oracle_parse_diagram(text):
    lines = iter(oracle_logical_lines(text))

    def take(expected):
        item = next(lines, None)
        if item is None:
            eof_line = len(text.splitlines()) + 1
            raise DiagramParseError(f"unexpected end of input, expected {expected}", eof_line)
        return item

    number, content = take("header 'tris v1'")
    tokens = content.split()
    if tokens != ["tris", "v1"]:
        if tokens and tokens[0] == "tris":
            raise DiagramParseError(
                f"unsupported version {' '.join(tokens[1:])!r}, expected 'tris v1'", number
            )
        raise DiagramParseError("expected header 'tris v1'", number)

    number, content = take("'genus <g>'")
    tokens = content.split()
    if len(tokens) != 2 or tokens[0] != "genus" or not _INT.match(tokens[1]):
        raise DiagramParseError("expected 'genus <integer>'", number)
    (g,) = oracle_int_row(tokens[1:], number)
    if g < 0:
        raise DiagramParseError("genus must be nonnegative", number)

    systems = []
    for label in LABELS:
        number, content = take(f"section '{label}'")
        if content.split() != [label]:
            raise DiagramParseError(f"expected section '{label}', found {content!r}", number)
        rows = []
        for r in range(g):
            number, content = take(f"row {r + 1} of {label}")
            tokens = content.split()
            if len(tokens) != 2 * g:
                raise DiagramParseError(
                    f"{label} row {r + 1}: expected {2 * g} entries, found {len(tokens)}",
                    number,
                )
            rows.append(oracle_int_row(tokens, number))
        systems.append(rows)

    for number, content in lines:
        raise DiagramParseError(f"unexpected content {content!r}", number)
    return TrisectionDiagram.from_rows(g, *systems)


def oracle_serialize_diagram(d):
    lines = ["tris v1", f"genus {d.genus}"]
    for sys_ in d.systems:
        lines.append(sys_.label)
        for row in sys_.classes.entries:
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def oracle_fmt_matrix(m):
    return "[" + "; ".join(" ".join(map(str, row)) for row in m.entries) + "]"


def outcome(parse, text):
    """The parsed diagram, or the type, message and line of the error."""
    try:
        return ("ok", parse(text))
    except DiagramParseError as exc:
        return ("parse error", str(exc), exc.line)
    except Exception as exc:  # noqa: BLE001 - any other error must match too
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------- printer

# exact ints on both sides of 2^64, zeros and negatives
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**64 - 1, 2**64, -(2**64), 2**200, -(2**200)]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=12).map(tuple))
def test_a_translated_tuple_is_the_joined_row(row):
    assert str(row).translate(str.maketrans("", "", "(),")) == " ".join(map(str, row))


def row_lists(rows, cols):
    return st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def diagrams(draw):
    g = draw(st.integers(0, 4))
    rows = row_lists(g, 2 * g)
    return TrisectionDiagram.from_rows(g, draw(rows), draw(rows), draw(rows))


@settings(max_examples=200, deadline=None)
@given(diagrams())
def test_serialize_diagram_matches_the_per_row_printer(d):
    text = serialize_diagram(d)
    assert text == oracle_serialize_diagram(d)
    assert parse_diagram(text) == d


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_fmt_matrix_matches_the_per_row_printer(rows, cols, data):
    m = IntMatrix(data.draw(row_lists(rows, cols)), cols=cols)
    assert _fmt_matrix(m) == oracle_fmt_matrix(m)


def test_one_column_rows_print_without_a_comma():
    assert _fmt_matrix(IntMatrix([[5], [-7]])) == "[5; -7]"
    assert _fmt_matrix(IntMatrix([[2**64]])) == f"[{2**64}]"


# ---------------------------------------------------------------- parser

# every character that splits, joins or spoils an entry
ALPHABET = "0123456789+-_.x\u0661 \t\xa0\u3000"
# separators that str.split accepts and str.splitlines does not break at
SEPARATORS = (" ", "  ", "\t", " \t ", "\xa0", "\u2003", "\u3000")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, min_size=1, max_size=16))
@example("1 " + "9" * 5000)  # past sys.get_int_max_str_digits(), on each path
@example("1\xa0" + "9" * 5000)
@example("1\xa0-" + "9" * 5000 + " x")
def test_int_row_matches_the_per_token_loop(line):
    content = line.strip()
    if not content:
        return
    tokens = content.split()
    try:
        expected = ("ok", tuple(oracle_int_row(tokens, 7)))
    except DiagramParseError as exc:
        expected = ("parse error", str(exc), exc.line)
    try:
        got = ("ok", _int_row(content, tokens, 7))
    except DiagramParseError as exc:
        got = ("parse error", str(exc), exc.line)
    assert got == expected


def decorate(text, rng):
    """The same diagram with comments, blank lines, signs, CRLF endings and
    any whitespace that str.split accepts between entries."""
    lines = []
    for line in text.splitlines():
        words = line.split(" ")
        if all(_INT.match(w) for w in words):
            words = [("+" + w if w[0] != "-" and rng.random() < 0.2 else w) for w in words]
            line = rng.choice(SEPARATORS).join(words)
        line = rng.choice(("", " ", "\t", "\xa0")) + line
        if rng.random() < 0.3:
            line += rng.choice((" # note", "\t#", "#x 1 2"))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "# comment", "  \t")))
    return rng.choice(("\n", "\r\n")).join(lines) + "\n"


def corrupt(text, rng):
    """One to three token or row-entry edits, each drawn from ALPHABET."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        token = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 4)))
        rows = [r for r, line in enumerate(lines) if line and _INT.match(line.split(" ")[0])]
        if rng.random() < 0.7 and rows:  # keep the layout, change one entry
            n = rng.choice(rows)
        else:
            n = rng.randrange(len(lines))
        words = lines[n].split(" ")
        words[rng.randrange(len(words))] = token
        lines[n] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_valid_files_parse_as_the_oracle_does():
    rng = random.Random(21)
    for seed in range(300):
        d = random_valid_diagram(seed)
        text = serialize_diagram(d)
        for variant in (text, decorate(text, rng)):
            got = outcome(parse_diagram, variant)
            assert got == outcome(oracle_parse_diagram, variant), variant
            assert got == ("ok", d)


def test_corrupted_files_fail_as_the_oracle_does():
    rng = random.Random(22)
    errors = 0
    for seed in range(400):
        text = serialize_diagram(random_valid_diagram(1000 + seed))
        if seed % 2:
            text = decorate(text, rng)
        bad = corrupt(text, rng)
        expected = outcome(oracle_parse_diagram, bad)
        assert outcome(parse_diagram, bad) == expected, bad
        errors += expected[0] != "ok"
    assert errors >= 300
