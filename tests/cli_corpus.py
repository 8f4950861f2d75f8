"""The stored CLI corpus and its runner, on the standard library alone.

``data/cli_outputs.json`` holds input files and, for each case, the
argv, exit code, stdout and stderr that ``trisect.cli.run`` gave when the
corpus was written.  ``test_cli_outputs.py`` checks the corpus under
pytest; this module holds what that test and a replay without pytest
share, so that the corpus can be checked on any Python the package
supports.  Run as a script to replay every case in-process and report
each mismatch, with which of exit code, stdout and stderr differ:

    PYTHONPATH=src python tests/cli_corpus.py
    PYTHONPATH=src python -O tests/cli_corpus.py

It exits 1 if any case differs.  Like the test, it imports whichever
``trisect`` is on the path.
"""

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

from trisect.cli import run

DATA = Path(__file__).resolve().parent / "data" / "cli_outputs.json"
# what run_case returns, in its order
PARTS = ("exit code", "stdout", "stderr")


def run_case(argv, inputs, workdir):
    """Run argv with each input name replaced by its file under workdir."""
    argv = [str(workdir / a) if a in inputs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def write_inputs(inputs, workdir):
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")


def load_corpus():
    """The stored corpus; none before its first generation, which the
    coverage test then reports."""
    if not DATA.exists():
        return {"inputs": {}, "cases": []}
    with DATA.open(encoding="utf-8") as fh:
        return json.load(fh)


def replay() -> int:
    """Run every stored case, print each mismatch and a summary; the
    number of mismatches."""
    corpus = load_corpus()
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(corpus["inputs"], workdir)
        for case in corpus["cases"]:
            got = run_case(case["argv"], corpus["inputs"], workdir)
            stored = (case["code"], case["stdout"], case["stderr"])
            if got != stored:
                mismatches += 1
                differ = [part for part, a, b in zip(PARTS, got, stored) if a != b]
                print(f"mismatch: {' '.join(case['argv'])}: differs in {', '.join(differ)}; "
                      f"exit {got[0]}, stored {case['code']}")
    print(f"Python {platform.python_version()} optimize={sys.flags.optimize}: "
          f"{len(corpus['cases'])} cases, {mismatches} mismatches")
    return mismatches


if __name__ == "__main__":
    sys.exit(1 if replay() else 0)
