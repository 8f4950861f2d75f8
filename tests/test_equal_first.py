"""``compare`` answers equal diagrams after validating the first, before
any other work.

Equal class matrices share every fact ``validate`` measures, so an equal
copy is neither validated nor given a report, and neither the invariant
checks nor the transition solve run: one validation of six Smith forms
(three systems, three pairs) is the whole cost.  An invalid first
diagram still raises with its own report.  Every diagram here is parsed
from text, so none carries a report before ``compare``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import IDENTICAL, InvalidDiagramError, compare, validate
from trisect.cli import parse_diagram, serialize_diagram

from helpers import random_valid_diagram
from test_kernels import _count_calls

DATA = Path(__file__).resolve().parent / "data"
TORSION = [f"torsion-z{p}.tris" for p in (2, 3, 4, 5)]


def _check_equal_copy(monkeypatch, text):
    d1, d2 = parse_diagram(text), parse_diagram(text)
    assert d1 == d2 and d1 is not d2
    validations = _count_calls(monkeypatch, trisect.diagram, "validate")
    snfs = _count_calls(monkeypatch, trisect.intlin, "snf")
    transitions = _count_calls(monkeypatch, trisect.moves, "_transition")
    assert compare(d1, d2).kind == IDENTICAL
    assert [args[0] for args in validations] == [d1]
    assert len(snfs) == 6
    assert transitions == []
    assert "_report" not in vars(d2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_an_equal_copy_is_validated_once(seed):
    text = serialize_diagram(random_valid_diagram(seed, max_genus=6))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_equal_copy(monkeypatch, text)


@pytest.mark.parametrize("name", TORSION)
def test_an_equal_torsion_copy_is_validated_once(monkeypatch, name):
    _check_equal_copy(monkeypatch, (DATA / name).read_text())


@pytest.mark.parametrize("seed", [3, 11, 40])
def test_an_invalid_diagram_against_its_copy_raises_with_the_first_report(seed):
    good = random_valid_diagram(seed, max_genus=6)
    gamma = [list(r) for r in good.gamma.classes.entries]
    gamma[0] = [2 * e for e in gamma[0]]  # an index-2 sublattice: invalid
    bad = trisect.TrisectionDiagram.from_rows(
        good.genus, good.alpha.classes.entries, good.beta.classes.entries, gamma
    )
    text = serialize_diagram(bad)
    d1, d2 = parse_diagram(text), parse_diagram(text)
    with pytest.raises(InvalidDiagramError) as exc:
        compare(d1, d2)
    assert exc.value.report is vars(d1)["_report"]
    assert exc.value.report == validate(bad) and not exc.value.report.valid
    assert "_report" not in vars(d2)
