"""Byte-identity check of the command line on a stored corpus.

``data/cli_outputs.json`` holds input files and, for each case, the
argv, exit code, stdout and stderr that ``trisect.cli.run`` gave when the
corpus was written.  The test writes the inputs under a temporary
directory and runs every case in-process, so any change to what the
commands print fails here.  A change that alters output on purpose
regenerates the corpus:

    PYTHONPATH=src python tests/test_cli_outputs.py

The test imports whichever ``trisect`` is on the path, so it checks an
installed package as well as the checkout.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from trisect import (
    SlideMove,
    apply_diffeomorphism,
    builtin,
    builtin_names,
    handle_slide,
    random_symplectic,
    stabilize,
)
from trisect.cli import _build_parser, run, serialize_diagram

DATA = Path(__file__).resolve().parent / "data" / "cli_outputs.json"


def _cli(argv, inputs, workdir):
    """Run argv with each input name replaced by its file under workdir."""
    argv = [str(workdir / a) if a in inputs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _write_inputs(inputs, workdir):
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")


def _corpus():
    """The stored corpus; none before its first generation, which the
    coverage test then reports."""
    if not DATA.exists():
        return {"inputs": {}, "cases": []}
    with DATA.open(encoding="utf-8") as fh:
        return json.load(fh)


_CORPUS = _corpus()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_outputs")
    _write_inputs(_CORPUS["inputs"], path)
    return path


@pytest.mark.parametrize("case", _CORPUS["cases"], ids=lambda c: " ".join(c["argv"]))
def test_output_matches_corpus(case, workdir):
    code, out, err = _cli(case["argv"], _CORPUS["inputs"], workdir)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_corpus_covers_every_command():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert {c["argv"][0] for c in _CORPUS["cases"]} == set(subparsers.choices)


def _inputs_and_argvs():
    """The corpus's input files and the argv of each case."""
    names = builtin_names()
    texts = {name: serialize_diagram(builtin(name)) for name in names}
    genus = {name: builtin(name).genus for name in names}
    inputs = {f"{name}.tris": text for name, text in texts.items()}
    for g in (1, 2, 3):
        rows = random_symplectic(g, g, 3).entries
        inputs[f"sym-g{g}.txt"] = "".join(" ".join(map(str, r)) + "\n" for r in rows)

    # two diagrams that parse but fail validation
    inputs["cp2-bad.tris"] = texts["cp2"].replace("gamma\n1 1\n", "gamma\n2 1\n")
    s4_lines = texts["s4-g3"].splitlines(keepends=True)
    alpha_row = s4_lines.index("alpha\n") + 1
    s4_lines[alpha_row] = s4_lines[alpha_row].replace("1", "2", 1)
    inputs["s4-g3-bad.tris"] = "".join(s4_lines)
    genus.update({"cp2-bad": 1, "s4-g3-bad": 3})

    # three gamma slides from s4-g3: compare finds it as the last node of
    # an 11871-node budget
    s4_gamma3 = builtin("s4-g3")
    for target, source in ((0, 1), (1, 2), (2, 0)):
        s4_gamma3 = handle_slide(s4_gamma3, SlideMove("gamma", target, source, 1))
    inputs["s4-g3-gamma3.tris"] = serialize_diagram(s4_gamma3)

    # validation's Gram product packed into 64-bit slots (genus 13), and
    # past 2**63 into wide slots (genus 4 with 48-bit entries)
    cp2_g13 = builtin("cp2")
    for _ in range(4):
        cp2_g13 = stabilize(cp2_g13)
    inputs["cp2-g13.tris"] = serialize_diagram(cp2_g13)
    cp2_g4 = apply_diffeomorphism(stabilize(builtin("cp2")), random_symplectic(4, 1, 60))
    inputs["cp2-g4-wide.tris"] = serialize_diagram(cp2_g4)

    cp2 = texts["cp2"]
    malformed = {
        "bad-header": cp2.replace("tris v1", "tri v1"),
        "bad-version": cp2.replace("tris v1", "tris v2"),
        "bad-genus": cp2.replace("genus 1", "genus one"),
        "short-row": cp2.replace("beta\n0 1\n", "beta\n0\n"),
        "bad-integer": cp2.replace("alpha\n1 0\n", "alpha\n1 x0\n"),
        "trailing": cp2 + "gamma\n",
        "truncated": "".join(cp2.splitlines(keepends=True)[:-1]),
    }
    inputs.update({f"{name}.tris": text for name, text in malformed.items()})

    def diagram_commands(name):
        f = f"{name}.tris"
        argvs = [
            ["validate", f], ["invariants", f], ["reverse", f],
            ["stabilize", f, "-n", "0"], ["stabilize", f, "-n", "1"],
        ]
        if genus[name] >= 2:
            argvs.append(
                ["slide", f, "--system", "beta", "--target", "1", "--source", "2", "--sign", "-"]
            )
        if 1 <= genus[name] <= 3:
            argvs.append(["diffeo", f, "--matrix", f"sym-g{genus[name]}.txt"])
        return argvs

    argvs = []
    for name in names:
        argvs += diagram_commands(name)
    for left in names:
        for right in names:
            argvs.append(["sum", f"{left}.tris", f"{right}.tris"])
            argvs.append(["compare", f"{left}.tris", f"{right}.tris"])
    for bad in ("cp2-bad", "s4-g3-bad"):
        argvs += diagram_commands(bad)
        if genus[bad] < 2:
            argvs.append(
                ["slide", f"{bad}.tris", "--system", "beta", "--target", "1",
                 "--source", "2", "--sign", "-"]
            )
        for cmd in ("sum", "compare"):
            argvs.append([cmd, f"{bad}.tris", "cp2.tris"])
            argvs.append([cmd, "cp2.tris", f"{bad}.tris"])
    for name in malformed:
        argvs.append(["validate", f"{name}.tris"])
    argvs += [
        ["stabilize", "cp2.tris", "-n", "-1"],
        ["compare", "cp2.tris", "cp2.tris", "--depth", "-1"],
        ["compare", "cp2.tris", "cp2.tris", "--nodes", "0"],
        ["slide", "s4-g3.tris", "--system", "beta", "--target", "0", "--source", "2",
         "--sign", "-"],
        ["example", "k3"],
        ["compare", "s4-g3.tris", "s4-g3-gamma3.tris", "--depth", "3", "--nodes", "11871"],
        ["compare", "s4-g3.tris", "s4-g3-gamma3.tris", "--depth", "3", "--nodes", "11870"],
        ["examples"],
        ["params", "fiber-s1", "--genus", "2"],
        ["params", "bundle-s2", "--fiber-genus", "1"],
        ["params", "fiber-s1", "--genus", "-1"],
        ["invariants", "cp2-g13.tris"],
        ["invariants", "cp2-g4-wide.tris"],
    ]
    return inputs, argvs


def _regenerate():
    """Run every case with the trisect on the path and rewrite DATA."""
    inputs, argvs = _inputs_and_argvs()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _write_inputs(inputs, workdir)
        for argv in argvs:
            code, out, err = _cli(argv, inputs, workdir)
            if tmp in out or tmp in err:  # a file path is not part of the corpus
                continue
            cases.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    DATA.parent.mkdir(exist_ok=True)
    with DATA.open("w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
