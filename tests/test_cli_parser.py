"""The argparse tree is built once per process and keeps no state between runs."""

import argparse
import contextlib
import io

from trisect import cli


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_two_runs_build_the_parser_once(monkeypatch):
    getattr(cli._build_parser, "cache_clear", lambda: None)()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "trisect":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert _run(["examples"])[0] == 0
    assert _run(["example", "cp2"])[0] == 0
    assert len(built) == 1


def test_repeated_usage_error_is_identical():
    first = _run(["bogus"])
    second = _run(["bogus"])
    assert first[0] == 2
    assert first[2].startswith("usage: trisect")
    assert first == second


def test_runs_do_not_share_parsed_values():
    fiber = _run(["params", "fiber-s1", "--genus", "2"])
    bundle = _run(["params", "bundle-s2", "--fiber-genus", "3"])
    assert fiber[0] == bundle[0] == 0
    assert fiber[1] != bundle[1]
    assert _run(["params", "fiber-s1", "--genus", "2"]) == fiber
