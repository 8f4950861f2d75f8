"""Direct sums of validated diagrams carry their report instead of being
validated again, and the carried report is the one ``validate`` gives.

The oracle is ``validate`` itself, run on the same diagram: every field of
the carried report, its triple and its ``lines()`` must agree.  Sums with
an unvalidated or invalid summand must carry nothing, so that they are
validated in full and keep every diagnostic.
"""

import contextlib
import dataclasses
import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    TorusTriple,
    builtin,
    connect_sum,
    direct_sum,
    euler_characteristic,
    first_homology,
    parameters,
    require_valid,
    signature,
    split_diagram,
    stabilization_block,
    stabilize,
    validate,
)
from trisect.cli import run, serialize_diagram

from helpers import random_valid_diagram
from test_triple import corrupt

seeds = st.integers(min_value=0, max_value=10**6)


def carried(d):
    """The report cached on d, or None if d was never validated."""
    return vars(d).get("_report")


def assert_carries_validate(d):
    report = carried(d)
    assert report is not None
    expected = validate(d)
    for f in dataclasses.fields(expected):
        assert getattr(report, f.name) == getattr(expected, f.name), f.name
    assert report.triple == expected.triple
    assert report.lines() == expected.lines()


def validated(d):
    require_valid(d)
    return d


def _count(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("trisect") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(seeds, seeds)
def test_direct_and_connected_sums_carry_the_validate_report(s1, s2):
    d1 = validated(random_valid_diagram(s1, max_genus=4))
    d2 = validated(random_valid_diagram(s2, max_genus=5))
    assert_carries_validate(direct_sum(d1, d2))
    assert_carries_validate(connect_sum(d2, d1))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 2))
def test_stabilization_chains_carry_the_validate_report(seed, n):
    d = random_valid_diagram(seed, max_genus=3)
    for _ in range(n):
        d = stabilize(d)
        assert_carries_validate(d)


def test_genus_zero_and_atlas_sums_carry_the_validate_report():
    for name in trisect.builtin_names():
        d = builtin(name)
        if d.genus <= 3:
            assert_carries_validate(stabilize(d))
        assert_carries_validate(connect_sum(d, builtin("s4-g0")))


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, st.booleans())
def test_sums_with_an_unvalidated_summand_carry_nothing(s1, s2, left):
    fresh = random_valid_diagram(s1, max_genus=4)
    other = validated(random_valid_diagram(s2, max_genus=5))
    total = direct_sum(fresh, other) if left else direct_sum(other, fresh)
    assert carried(total) is None
    assert carried(fresh) is None  # direct_sum validates nothing
    assert validate(total).valid


def test_split_diagram_pieces_keep_full_diagnostics():
    # the stabilization block splits into three triples, none valid alone
    d = split_diagram(
        [
            TorusTriple((1, 0), (0, 1), (-1, 0)),
            TorusTriple((1, 0), (0, 1), (0, -1)),
            TorusTriple((-1, 0), (1, 0), (0, 1)),
        ]
    )
    assert d == stabilization_block()
    assert carried(d) is None
    assert validate(d).valid
    bad = split_diagram([TorusTriple((1, 0), (1, 0), (0, 1))])
    assert carried(bad) is None
    assert validate(bad).failures


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, st.integers(0, 2), st.integers(0, 3), st.integers(0, 20))
def test_sums_with_an_invalid_summand_carry_nothing(s1, s2, system, kind, other):
    good = validated(random_valid_diagram(s2, max_genus=4))
    base = random_valid_diagram(s1, max_genus=4)
    bad = corrupt(base, system, other % base.genus, kind, other, 2)
    bad_report = bad._report  # cached, whether valid or not
    total = direct_sum(good, bad)
    if bad_report.valid:
        assert_carries_validate(total)
        return
    assert carried(total) is None
    report = validate(total)
    assert not report.valid and report.failures


def test_stabilize_command_validates_once(monkeypatch, tmp_path):
    path = tmp_path / "cp2.tris"
    path.write_text(serialize_diagram(builtin("cp2")))
    calls = _count(monkeypatch, trisect.diagram, "validate")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["stabilize", str(path), "-n", "12"]) == 0
    assert out.getvalue().startswith("tris v1\ngenus 37\n")
    assert len(calls) == 1


def test_invariants_of_a_sum_of_validated_diagrams_validate_nothing(monkeypatch):
    d = validated(builtin("cp2-sum-cp2mirror"))
    calls = _count(monkeypatch, trisect.diagram, "validate")
    total = connect_sum(stabilize(d), d)
    assert parameters(total) == (7, 1)
    assert euler_characteristic(total) == 6
    assert signature(total) == 0
    assert str(first_homology(total)) == "0"
    assert calls == []


def test_a_pair_with_one_lagrangian_system_skips_the_stacked_smith_form(monkeypatch):
    d = builtin("s2xs2-g2-model")
    bad = corrupt(d, 0, 0, 1, 0, 2)  # alpha_1 doubled: alpha fails, beta and gamma pass
    calls = _count(monkeypatch, trisect.intlin, "snf")
    report = validate(bad)
    assert not report.system("alpha").ok
    assert report.system("beta").ok and report.system("gamma").ok
    assert [m.rows for (m,) in calls if m.rows == 2 * d.genus] == []
