"""Command-line interface and the diagram file format.

File format (extension-agnostic, line-oriented):

    tris v1
    genus <g>
    alpha
    <g lines of 2g space-separated integers>
    beta
    <g lines>
    gamma
    <g lines>

Row coordinates are in the basis order (x_1..x_g, y_1..y_g).  An entry
is an optional sign and ASCII digits only: underscores and non-ASCII
digits are rejected, and any whitespace that str.split accepts separates
entries (a line break that str.splitlines knows, such as form feed, ends
the line instead).  An entry longer than sys.get_int_max_str_digits() is
a parse error on its line.  Anything from '#' to end of line is a
comment; blank lines are ignored; any other deviation is a parse error
carrying a line number.  serialize_diagram emits the canonical form (no
comments, single spaces), and parsing then serializing any accepted file
yields that canonical form.

Exit codes: 0 success (valid / equivalent / identical), 1 invalid
diagram or distinct-by-invariant, 2 usage or parse error, or a request
too large to build (stabilize -n 2**61 runs out of memory, and -n 2**63
past the index range), 3 comparison budget exhausted (unknown), 141
(128 + SIGPIPE) the reader of stdout stopped early.  Only validate,
invariants, compare, sum and stabilize -n >= 1 exit 1 on an invalid
diagram; slide, diffeo, reverse and stabilize -n 0 print its image, as
the moves validate nothing.  Each command writes its stdout once, after
it has finished, so a command that fails writes nothing there: it exits
1 or 2 with its message on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from typing import Sequence

from .atlas import builtin, builtin_names, bundle_over_s2_params, mapping_torus_params
from .diagram import (
    LABELS,
    InvalidDiagramError,
    TrisectionDiagram,
    first_homology,
    handle_counts,
    require_valid,
    signature,
    validate,
)
from .intlin import IntMatrix
from .moves import (
    DISTINCT,
    IDENTICAL,
    SLIDE_EQUIVALENT,
    SlideMove,
    apply_diffeomorphism,
    compare,
    connect_sum,
    handle_slide,
    reverse_orientation,
    stabilization_block,
)

# a whole row of ASCII integers ([0-9]: \d also matches digits such as '١',
# which int() accepts), separated where str.split() separates them: \s is
# exactly str.isspace().  Digits and whitespace are disjoint, so no
# backtracking.  A token of str.split() holds no whitespace, so it matches
# exactly when it is one integer
_ROW = re.compile(r"[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\Z")


class DiagramParseError(ValueError):
    """A file format violation; the message starts with the line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _int_row(content: str, tokens: Sequence[str], number: int) -> tuple[int, ...]:
    """The integers of one line, ``tokens`` being ``content.split()``; a
    parse error on a bad or overlong token.

    On an ASCII line without '_', int accepts a token exactly when `_ROW`
    does, or raises ValueError, so such a line skips the match: a bad
    token surfaces as int's ValueError and is named below."""
    if (content.isascii() and "_" not in content) or _ROW.match(content):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # a bad token, or one past sys.get_int_max_str_digits()
            pass
    for tok in tokens:  # name the first bad token
        if not _ROW.match(tok):
            raise DiagramParseError(f"invalid integer {tok!r}", number)
    raise DiagramParseError("integer has too many digits", number)


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            out.append((number, content))
    return out


def parse_diagram(text: str) -> TrisectionDiagram:
    """Parse the diagram file format; raise DiagramParseError with a line
    number on any deviation."""
    lines = iter(_logical_lines(text))

    def take(expected: str) -> tuple[int, str]:
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
    if len(tokens) != 2 or tokens[0] != "genus" or not _ROW.match(tokens[1]):
        raise DiagramParseError("expected 'genus <integer>'", number)
    (g,) = _int_row(tokens[1], tokens[1:], number)
    if g < 0:
        raise DiagramParseError("genus must be nonnegative", number)

    systems = []
    for label in LABELS:
        number, content = take(f"section '{label}'")
        if content.split() != [label]:
            raise DiagramParseError(
                f"expected section '{label}', found {content!r}", number
            )
        rows = []
        for r in range(g):
            number, content = take(f"row {r + 1} of {label}")
            tokens = content.split()
            if len(tokens) != 2 * g:
                raise DiagramParseError(
                    f"{label} row {r + 1}: expected {2 * g} entries, found {len(tokens)}",
                    number,
                )
            rows.append(_int_row(content, tokens, number))
        systems.append(rows)

    for number, content in lines:  # the first line left over is an error
        raise DiagramParseError(f"unexpected content {content!r}", number)
    return TrisectionDiagram.from_rows(g, *systems)


def _row_format(width: int) -> str:
    """The format that prints a row of ``width`` exact ints single-spaced:
    ``%d`` writes what str writes, and raises str's ValueError past
    sys.get_int_max_str_digits()."""
    return " ".join(["%d"] * width)


def serialize_diagram(d: TrisectionDiagram) -> str:
    """Canonical text form; parse_diagram(serialize_diagram(d)) == d."""
    fmt = _row_format(2 * d.genus)
    lines = ["tris v1", f"genus {d.genus}"]
    for sys_ in d.systems:
        lines.append(sys_.label)
        lines += [fmt % row for row in sys_.classes.entries]
    return "\n".join(lines) + "\n"


def parse_int_matrix(text: str) -> IntMatrix:
    """Parse a plain integer matrix file: one row per logical line, same
    comment and blank-line rules as diagrams."""
    rows = []
    width = None
    for number, content in _logical_lines(text):
        row = _int_row(content, content.split(), number)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DiagramParseError(f"expected {width} entries, found {len(row)}", number)
        rows.append(row)
    return IntMatrix(rows, cols=width or 0)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _load_diagram(path: str) -> TrisectionDiagram:
    return parse_diagram(_read(path))


def _fmt_matrix(m: IntMatrix) -> str:
    fmt = _row_format(m.cols)
    return "[" + "; ".join([fmt % row for row in m.entries]) + "]"


def _fmt_move(move: SlideMove) -> str:
    sign = "+" if move.sign > 0 else "-"
    return (
        f"slide --system {move.system} --target {move.target + 1} "
        f"--source {move.source + 1} --sign {sign}"
    )


def _text(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _cmd_validate(args) -> tuple[int, str]:
    report = validate(_load_diagram(args.file))
    return (0 if report.valid else 1), _text(*report.lines())


def _cmd_invariants(args) -> tuple[int, str]:
    d = _load_diagram(args.file)
    report = require_valid(d)
    triple = report.triple
    return 0, _text(
        f"g={d.genus}",
        f"k={report.k}",
        f"chi={report.euler}",
        f"sigma={signature(d)}",
        f"H1={first_homology(d)}",
        f"handles={','.join(map(str, handle_counts(d)))}",
        f"Q_alpha_beta={_fmt_matrix(triple.q_ab)}",
        f"Q_beta_gamma={_fmt_matrix(triple.q_bc)}",
        f"Q_gamma_alpha={_fmt_matrix(triple.q_ca)}",
    )


def _cmd_stabilize(args) -> tuple[int, str]:
    d = _load_diagram(args.file)
    if args.n < 0:
        raise ValueError("-n must be nonnegative")
    if args.n:  # -n 0 prints the input unvalidated
        d = connect_sum(d, *[stabilization_block()] * args.n)
    return 0, serialize_diagram(d)


def _cmd_slide(args) -> tuple[int, str]:
    d = _load_diagram(args.file)
    if args.target < 1 or args.source < 1:
        raise ValueError("curve indices are 1-based")
    move = SlideMove(
        system=args.system,
        target=args.target - 1,
        source=args.source - 1,
        sign=1 if args.sign == "+" else -1,
    )
    return 0, serialize_diagram(handle_slide(d, move))


def _cmd_diffeo(args) -> tuple[int, str]:
    d = _load_diagram(args.file)
    s = parse_int_matrix(_read(args.matrix))
    return 0, serialize_diagram(apply_diffeomorphism(d, s))


def _cmd_sum(args) -> tuple[int, str]:
    d1 = _load_diagram(args.file1)
    d2 = _load_diagram(args.file2)
    return 0, serialize_diagram(connect_sum(d1, d2))


def _cmd_reverse(args) -> tuple[int, str]:
    return 0, serialize_diagram(reverse_orientation(_load_diagram(args.file)))


def _cmd_example(args) -> tuple[int, str]:
    return 0, serialize_diagram(builtin(args.name))


def _cmd_examples(args) -> tuple[int, str]:
    return 0, _text(*builtin_names())


def _cmd_compare(args) -> tuple[int, str]:
    d1 = _load_diagram(args.file1)
    d2 = _load_diagram(args.file2)
    if args.depth < 0 or args.nodes < 1:
        raise ValueError("--depth must be >= 0 and --nodes >= 1")
    verdict = compare(d1, d2, max_depth=args.depth, max_nodes=args.nodes)
    if verdict.kind == IDENTICAL:
        return 0, _text("identical")
    if verdict.kind == SLIDE_EQUIVALENT:
        cert = verdict.certificate
        return 0, _text(f"slide-equivalent ({len(cert)} moves)", *map(_fmt_move, cert))
    if verdict.kind == DISTINCT:
        facts = f"{verdict.invariant} ({verdict.left} vs {verdict.right})"
        return 1, _text(f"distinct-by-invariant: {facts}")
    return 3, _text("unknown (search budget exhausted; no conclusion)")


def _cmd_params(args) -> tuple[int, str]:
    if args.family == "fiber-s1":
        p = mapping_torus_params(args.genus)
    else:
        p = bundle_over_s2_params(args.fiber_genus)
    return 0, _text(f"g={p.genus} k={p.k} chi={p.chi}")


@functools.cache  # built on the first run(); parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisect",
        description="Homology-level toolkit for trisection diagrams of closed 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all homological checks on a diagram file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="print g, k, chi, signature, H1, handle counts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("stabilize", help="print the diagram stabilized n times")
    p.add_argument("file")
    p.add_argument("-n", type=int, default=1, help="number of stabilizations (default 1)")
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("slide", help="print the diagram after one handle slide")
    p.add_argument("file")
    p.add_argument("--system", required=True, choices=LABELS)
    p.add_argument("--target", type=int, required=True, help="curve to change, 1-based")
    p.add_argument("--source", type=int, required=True, help="curve slid over, 1-based")
    p.add_argument("--sign", required=True, choices=("+", "-"))
    p.set_defaults(func=_cmd_slide)

    p = sub.add_parser("diffeo", help="apply a symplectic matrix from a file")
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help="file with 2g rows of 2g integers")
    p.set_defaults(func=_cmd_diffeo)

    p = sub.add_parser("sum", help="print the connected sum of two diagrams")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("reverse", help="print the orientation-reversed diagram")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reverse)

    p = sub.add_parser("example", help="print a built-in atlas diagram")
    p.add_argument("name")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("examples", help="list atlas entry names")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("compare", help="bounded slide-equivalence check")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--depth", type=int, default=3, help="maximum certificate length")
    p.add_argument("--nodes", type=int, default=10000, help="maximum visited diagrams")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("params", help="closed-form fibration trisection parameters")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("fiber-s1", help="fibered over the circle")
    q.add_argument("--genus", type=int, required=True, help="Heegaard genus of the fiber")
    q.set_defaults(func=_cmd_params)
    q = fam.add_parser("bundle-s2", help="surface bundle over the sphere")
    q.add_argument("--fiber-genus", type=int, required=True, dest="fiber_genus")
    q.set_defaults(func=_cmd_params)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, execute, and return the exit code.

    The command builds its whole stdout text first, and run writes it
    once, after the command has finished, so a command that fails writes
    nothing on stdout: only its message on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, out = args.func(args)
        print(out, end="")  # print skips a None sys.stdout (fd 1 closed)
        return code
    except DiagramParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidDiagramError as exc:
        for failure in exc.report.failures:
            print(f"invalid: {failure}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader stopped early; main() handles it
        raise
    except (OSError, ValueError, IndexError, TypeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # carries no message
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # exit as a writer killed by SIGPIPE would, and point stdout at
        # devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
