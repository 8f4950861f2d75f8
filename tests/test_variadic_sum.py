"""A direct sum of any number of diagrams is built in one pass and equals
the left fold of two-summand sums, and the commands that sum many
diagrams make one ``direct_sum`` call.

The oracle is the two-summand block embedding written out here (each
class of the left summand keeps the first x and y blocks, each class of
the right summand moves to the complementary ones), folded from the
genus-0 diagram.  Reports are checked against ``validate`` run on the
same sum.
"""

import contextlib
import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    InvalidDiagramError,
    TorusTriple,
    TrisectionDiagram,
    builtin,
    connect_sum,
    direct_sum,
    parameters,
    split_diagram,
    stabilization_block,
    validate,
)
from trisect.cli import run, serialize_diagram

from helpers import random_valid_diagram
from test_carried_report import _count, assert_carries_validate, carried
from test_triple import corrupt

EMPTY = TrisectionDiagram.from_rows(0, [], [], [])

# how a summand is made: validated, fresh, corrupted and then validated
# (its report is cached, valid or not), or corrupted and fresh
KINDS = ("validated", "fresh", "corrupted-validated", "corrupted-fresh")


def oracle_sum(d1, d2):
    g1, g2 = d1.genus, d2.genus
    systems = []
    for s1, s2 in zip(d1.systems, d2.systems):
        rows = [r[:g1] + (0,) * g2 + r[g1:] + (0,) * g2 for r in s1.classes.entries]
        rows += [(0,) * g1 + r[:g2] + (0,) * g1 + r[g2:] for r in s2.classes.entries]
        systems.append(rows)
    return TrisectionDiagram.from_rows(g1 + g2, *systems)


def summand(seed, kind):
    d = random_valid_diagram(seed, max_genus=4)
    if kind.startswith("corrupted"):
        d = corrupt(d, seed % 3, seed % d.genus, seed % 4, seed // 7, 2 + seed % 3)
    if kind.endswith("validated"):
        _ = d._report  # cached, whether valid or not
    return d


summands = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(KINDS)), min_size=0, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(summands)
def test_variadic_sum_is_the_left_fold_and_carries_iff_every_summand_is_valid(spec):
    ds = [summand(seed, kind) for seed, kind in spec]
    expected_carry = all(carried(d) is not None and carried(d).valid for d in ds)
    total = direct_sum(*ds)
    assert total == functools.reduce(oracle_sum, ds, EMPTY)
    assert total.genus == sum(d.genus for d in ds)
    if ds:
        assert total == functools.reduce(direct_sum, ds)
    assert (carried(total) is not None) == expected_carry
    if expected_carry:
        assert_carries_validate(total)


def test_empty_sums_are_the_valid_genus0_diagram():
    for total in (direct_sum(), connect_sum()):
        assert total == builtin("s4-g0")
        assert_carries_validate(total)
    d = builtin("cp2")
    assert direct_sum(d, EMPTY) == direct_sum(EMPTY, d) == direct_sum(d) == d


def test_connect_sum_requires_each_input_in_argument_order():
    good = builtin("cp2")
    first = corrupt(builtin("s2xs2-g2-model"), 0, 0, 1, 0, 2)
    second = corrupt(builtin("s2xs2-g2-model"), 1, 1, 1, 0, 3)
    assert not validate(second).valid
    with pytest.raises(InvalidDiagramError) as exc:
        connect_sum(good, first, second)
    assert exc.value.report == validate(first)
    assert carried(second) is None  # never reached


def test_stabilize_command_makes_one_direct_sum(monkeypatch, tmp_path):
    path = tmp_path / "cp2.tris"
    path.write_text(serialize_diagram(builtin("cp2")))
    calls = _count(monkeypatch, trisect.moves, "direct_sum")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["stabilize", str(path), "-n", "12"]) == 0
    assert out.getvalue().startswith("tris v1\ngenus 37\n")
    assert [len(args) for args in calls] == [13]


def test_split_diagram_makes_one_direct_sum(monkeypatch):
    pieces = [
        TorusTriple((1, 0), (0, 1), (-1, 0)),
        TorusTriple((1, 0), (0, 1), (0, -1)),
        TorusTriple((-1, 0), (1, 0), (0, 1)),
    ]
    calls = _count(monkeypatch, trisect.moves, "direct_sum")
    assert split_diagram(pieces) == stabilization_block()
    assert [len(args) for args in calls] == [3]


def test_the_stabilization_block_carries_its_report(monkeypatch):
    calls = _count(monkeypatch, trisect.diagram, "validate")
    assert parameters(stabilization_block()) == (3, 1)
    assert calls == []


def test_stabilize_zero_times_prints_an_invalid_input_unchanged(tmp_path):
    bad = corrupt(builtin("s2xs2-g2-model"), 0, 0, 1, 0, 2)
    assert not validate(bad).valid
    path = tmp_path / "bad.tris"
    path.write_text(serialize_diagram(bad))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["stabilize", str(path), "-n", "0"]) == 0
    assert out.getvalue() == serialize_diagram(bad)
    assert err.getvalue() == ""
