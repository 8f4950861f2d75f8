"""``compare`` sizes its packed slots by the closed form of its docstring,
so generous budgets cost what the nodes they let the walk visit cost,
and a goal beyond the walk's reach is answered at once.

One system's slides "row 0 += row 1" and "row 1 += row 0" generate a
free monoid, so layers 0 .. d of the walk hold at least 2^(d + 1) - 1
nodes and the slot width grows with log2 of ``max_nodes``.  A width
grown from a weaker bound makes the generous calls here slow, or never
return; a time limit, the subprocess's timeout and a check on the width
of the packed rows turn that into a failure.
"""

import contextlib
import io
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect.moves as moves
from trisect import (
    LABELS,
    SLIDE_EQUIVALENT,
    UNKNOWN,
    SlideMove,
    builtin,
    compare,
    handle_slide,
)
from trisect.cli import run, serialize_diagram

from test_broken_pipe import _cli_env
from test_tree_walk import CAP, _base, _counting, _slide_word, oracle_compare
from test_packed_states import _with_alpha_transition

# four slides in gamma: the pair is `unknown` at the default budgets
SLIDES = (("gamma", 0, 1, 1), ("gamma", 2, 0, -1), ("gamma", 1, 2, 1), ("gamma", 0, 2, 1))


def _pair():
    d = builtin("s4-g3")
    e = d
    for move in SLIDES:
        e = handle_slide(e, SlideMove(*move))
    return d, e


def test_a_generous_budget_costs_what_a_small_one_does():
    d, e = _pair()
    assert compare(d, e).kind == UNKNOWN
    want = compare(d, e, max_depth=4, max_nodes=10**6)
    assert want.kind == SLIDE_EQUIVALENT and len(want.certificate) == 4
    start = time.perf_counter()
    verdict = compare(d, e, max_depth=10**9, max_nodes=10**15)
    assert time.perf_counter() - start < 0.5
    assert verdict == want


def test_the_cli_answers_at_budgets_of_ten_to_the_forty(tmp_path):
    paths = []
    for name, diagram in zip("ab", _pair()):
        path = tmp_path / f"{name}.tris"
        path.write_text(serialize_diagram(diagram))
        paths.append(str(path))
    budget = str(10**40)
    child = subprocess.run(
        [sys.executable, "-m", "trisect.cli", "compare", *paths, "--depth", budget,
         "--nodes", budget],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=30,
    )
    assert child.returncode == 0, child.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["compare", *paths, "--depth", "4", "--nodes", str(10**6)]) == 0
    assert child.stdout == out.getvalue()
    assert child.stdout.startswith("slide-equivalent (4 moves)\n")


def _narrow(d1, d2, **budget):
    """compare(d1, d2, **budget), failing at once if a state it slides has
    a packed row wider than g slots of max_nodes.bit_length() + 1 bits,
    the widest slot the closed form gives at that node budget."""
    slid_rows = moves._slid_rows
    bits = budget["max_nodes"].bit_length() + 1

    def checked(rows):
        assert all(abs(r).bit_length() <= len(rows) * bits for r in rows)
        return slid_rows(rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(moves, "_slid_rows", checked)
        return compare(d1, d2, **budget)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 5),
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.sampled_from((None,) + LABELS),
)
def test_generous_budgets_give_the_oracles_verdict(seed, genus, other, length, system):
    d = _base(seed, genus)
    e = _slide_word(d, random.Random(other), length, system)
    for a, b in ((d, e), (e, d)):
        found = oracle_compare(a, b, max_depth=length, max_nodes=CAP)
        if found.kind != SLIDE_EQUIVALENT:
            continue
        for nodes in (10**12, 10**18, 10**40):
            assert _narrow(a, b, max_depth=10**6, max_nodes=nodes) == found


def test_a_goal_beyond_reach_is_unknown_without_a_slide():
    # at (2, 10000) the slots are 4 bits wide, and the walk's states have
    # entries of magnitude at most 4; an entry of 8 does not fit a slot
    d = _base(7, 2)
    e = _with_alpha_transition(d, [[1, 8], [0, 1]])
    verdict, calls = _counting(compare, d, e, max_depth=2, max_nodes=10000)
    assert verdict == oracle_compare(d, e, max_depth=2, max_nodes=10000)
    assert verdict.kind == UNKNOWN
    assert calls == 0
