"""A reader that stops early is normal: the CLI exits 141 (128 + SIGPIPE,
what a shell shows for a writer killed by SIGPIPE) with nothing on
stderr, and every other failure keeps its exit code.  Started with no
stdout at all (fd 1 closed, `trisect ... >&-`), the CLI prints nothing
and exits 0, as `print` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trisect
from trisect import builtin
from trisect.cli import serialize_diagram


def _cli_env():
    """The environment of a child that imports this checkout's trisect."""
    src = str(Path(trisect.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def closed_stdout_cli(*argv):
    """Run the CLI with its stdout pipe closed before it writes; (code, stderr)."""
    child = subprocess.Popen(
        [sys.executable, "-m", "trisect.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
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


def no_stdout_cli(*argv):
    """Run the CLI started with fd 1 closed, as `trisect ... >&-` does; (code, stderr)."""
    child = subprocess.run(
        [sys.executable, "-m", "trisect.cli", *argv],
        stderr=subprocess.PIPE,
        env=_cli_env(),
        preexec_fn=lambda: os.close(1),
        timeout=60,
    )
    return child.returncode, child.stderr


@pytest.mark.parametrize(
    "command",
    [
        ["stabilize", "{cp2}"],
        ["slide", "{s4}", "--system", "gamma", "--target", "1", "--source", "2", "--sign", "+"],
        ["diffeo", "{cp2}", "--matrix", "{identity}"],
        ["sum", "{cp2}", "{cp2}"],
        ["reverse", "{cp2}"],
        ["example", "cp2"],
    ],
    ids=lambda command: command[0],
)
def test_a_diagram_command_without_stdout_exits_0_quietly(cp2, tmp_path, command):
    s4 = tmp_path / "s4.tris"
    s4.write_text(serialize_diagram(builtin("s4-g3")))
    identity = tmp_path / "identity.txt"
    identity.write_text("1 0\n0 1\n")
    argv = [arg.format(cp2=cp2, s4=s4, identity=identity) for arg in command]
    assert no_stdout_cli(*argv) == (0, b"")
