"""A reader that stops early is normal: the CLI exits 141 (128 + SIGPIPE,
what a shell shows for a writer killed by SIGPIPE) with nothing on
stderr, and every other failure keeps its exit code.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trisect
from trisect import builtin
from trisect.cli import serialize_diagram


def closed_stdout_cli(*argv):
    """Run the CLI with its stdout pipe closed before it writes; (code, stderr)."""
    src = str(Path(trisect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-m", "trisect.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=60), err


@pytest.fixture
def cp2(tmp_path):
    path = tmp_path / "cp2.tris"
    path.write_text(serialize_diagram(builtin("cp2")))
    return str(path)


@pytest.mark.parametrize("command", ["invariants", "validate", "reverse", "stabilize"])
def test_a_closed_stdout_exits_141_quietly(cp2, command):
    assert closed_stdout_cli(command, cp2) == (141, b"")


def test_a_missing_file_is_still_a_usage_error(tmp_path):
    code, err = closed_stdout_cli("invariants", str(tmp_path / "missing.tris"))
    assert code == 2
    assert err.startswith(b"error: ")
