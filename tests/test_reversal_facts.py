"""Orientation reversal keeps the validation facts of any diagram.

Reversal negates the y block of every class, so it negates omega: each
system's class matrix changes by a unimodular column operation, every
pairing changes sign, and so every invariant factor stays.  The reversed
diagram therefore has the input's system factors and pair reports, each
non-isotropic pair at the same (i, j) with its value negated, and the
negated triple, whether or not the input is valid.  That is why
``reverse_orientation`` validates nothing, as the other moves of one
diagram do: a check before reversing would decide nothing that the
result's own validation does not.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import IntersectionTriple, builtin, reverse_orientation, validate
from trisect.cli import parse_diagram, run, serialize_diagram

from helpers import random_valid_diagram
from test_carried_report import _count, carried
from test_system_factors import diagrams
from test_triple import corrupt

any_diagrams = st.one_of(
    diagrams(), st.integers(0, 10**6).map(lambda seed: random_valid_diagram(seed, max_genus=5))
)


@settings(max_examples=150, deadline=None)
@given(any_diagrams)
def test_reversal_keeps_the_facts_of_any_diagram(d):
    r = reverse_orientation(d)
    before, after = validate(d), validate(r)
    assert after.genus == before.genus
    assert after.pairs == before.pairs
    for s, t in zip(before.systems, after.systems):
        assert (t.label, t.factors) == (s.label, s.factors)
        if s.nonisotropic is None:
            assert t.nonisotropic is None
        else:
            i, j, val = s.nonisotropic
            assert t.nonisotropic == (i, j, -val)
    q = before.triple
    assert after.triple == IntersectionTriple(-q.q_ab, -q.q_bc, -q.q_ca)
    assert reverse_orientation(r) == d


def test_reversing_validates_nothing(monkeypatch, tmp_path):
    bad = corrupt(builtin("s4-g3"), 0, 0, 1, 0, 2)  # alpha_1 doubled
    good = builtin("cp2-sum-cp2mirror")
    path = tmp_path / "bad.tris"
    path.write_text(serialize_diagram(bad))
    calls = _count(monkeypatch, trisect.diagram, "validate")
    for d in (bad, good):
        r = reverse_orientation(d)
        assert reverse_orientation(r) == d
        assert carried(r) is None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["reverse", str(path)]) == 0
    assert parse_diagram(out.getvalue()) == reverse_orientation(bad)
    assert calls == []
    assert not validate(bad).valid
