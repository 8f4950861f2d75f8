"""``compare`` gives a second diagram whose systems span the first's
lattices the first diagram's validation facts instead of validating it.

Slides, a negated row and a swap of two rows multiply a system's class
matrix on the left by a unimodular matrix, so they keep the lattice it
spans, and every fact ``validate`` measures.  Each pair is built three
times: ``compare`` runs first, on its own fresh objects; the carried
report must equal ``validate`` of a second copy of the second diagram,
and the verdict must equal ``oracle_compare`` on a third pair.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    LABELS,
    UNKNOWN,
    IntMatrix,
    InvalidDiagramError,
    SlideMove,
    TrisectionDiagram,
    compare,
    handle_slide,
    validate,
)
from trisect.cli import run, serialize_diagram
from trisect.symplectic import triple_homology

from helpers import random_valid_diagram
from test_kernels import _count_calls
from test_tree_walk import _slide_word, oracle_compare

seeds = st.integers(min_value=0, max_value=10**6)


def _with_rows(d, system, change):
    """d with the class rows of ``system`` replaced by change(rows)."""
    return TrisectionDiagram._from_classes(
        d.genus,
        (
            IntMatrix(change(list(s.classes.entries)), cols=2 * d.genus)
            if s.label == system
            else s.classes
            for s in d.systems
        ),
    )


def _negated(rows, i):
    rows[i] = tuple(-e for e in rows[i])
    return rows


def _swapped(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]
    return rows


def _unimodular(d, rng, flip):
    """d with one row negated (flip 1) or two rows swapped (flip 2), each a
    left factor of determinant -1; flip 0, or a swap at genus 1, keeps d."""
    system, i = rng.choice(LABELS), rng.randrange(d.genus)
    if flip == 1:
        return _with_rows(d, system, lambda rows: _negated(rows, i))
    if flip == 2 and d.genus >= 2:
        j = (i + 1 + rng.randrange(d.genus - 1)) % d.genus
        return _with_rows(d, system, lambda rows: _swapped(rows, i, j))
    return d


def _pair(seed, other, length, system, flip):
    """A fresh valid diagram of genus at most 6 and its image under a
    slide word and an optional determinant -1 factor."""
    d = random_valid_diagram(seed, max_genus=6)
    rng = random.Random(other)
    e = _slide_word(d, rng, length, system) if d.genus >= 2 else d
    return d, _unimodular(e, rng, flip)


@settings(max_examples=80, deadline=None)
@given(
    seeds,
    seeds,
    st.integers(0, 4),
    st.sampled_from((None,) + LABELS),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(1, 300),
)
def test_carried_report_is_the_validated_one(seed, other, length, system, flip, depth, nodes):
    args = (seed, other, length, system, flip)
    d1, d2 = _pair(*args)
    verdict = compare(d1, d2, max_depth=depth, max_nodes=nodes)
    _, copy = _pair(*args)
    fresh, carried = validate(copy), d2._report
    assert carried.genus == fresh.genus
    assert carried.systems == fresh.systems
    assert carried.pairs == fresh.pairs
    assert carried.triple == fresh.triple
    triple = fresh.triple
    assert carried.triple._homology == triple_homology(triple.q_ab, triple.q_bc, triple.q_ca)
    if d1 != d2:  # the report is d1's, with d2's own triple
        assert carried.systems is d1._report.systems
        assert carried.triple._homology is d1._report.triple._homology
    if flip and d2.genus >= flip:  # a factor of determinant -1 leaves the orbit
        assert verdict.kind == UNKNOWN
    assert verdict == oracle_compare(*_pair(*args), max_depth=depth, max_nodes=nodes)


def _doubled(d):
    """d with its first gamma row doubled: gamma's span is then an index-2
    sublattice of d's, a transition of determinant 2, and d is invalid."""
    return _with_rows(d, "gamma", lambda rows: [tuple(2 * e for e in rows[0])] + rows[1:])


@pytest.mark.parametrize("seed", [3, 11, 40])
def test_a_sublattice_is_validated_and_raises_with_its_own_report(seed):
    d1 = random_valid_diagram(seed, max_genus=6)
    bad = _doubled(d1)
    want = validate(_doubled(d1))
    assert not want.valid
    with pytest.raises(InvalidDiagramError) as exc:
        compare(d1, bad)
    assert exc.value.report == want
    assert exc.value.report.failures == want.failures


def test_compare_prints_a_sublattice_files_own_failures(tmp_path):
    good = random_valid_diagram(3, max_genus=6)
    bad = _doubled(good)
    paths = []
    for name, d in (("good", good), ("bad", bad)):
        paths.append(tmp_path / f"{name}.tris")
        paths[-1].write_text(serialize_diagram(d))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["compare", *map(str, paths)])
    assert code == 1
    want = [f"invalid: {f}" for f in validate(_doubled(good)).failures]
    assert want and err.getvalue().splitlines() == want


def test_a_second_diagram_that_carries_a_report_keeps_it():
    d1 = random_valid_diagram(8, max_genus=6)
    d2 = handle_slide(d1, SlideMove("beta", 0, 1, 1))  # d1 has genus 2 or more
    report = d2._report
    compare(d1, d2, max_depth=0)
    assert d2._report is report
    assert report.systems is not d1._report.systems


def test_compare_of_a_slid_image_validates_once_and_takes_seven_smith_forms(monkeypatch):
    d1 = random_valid_diagram(8, max_genus=6)
    d2 = handle_slide(handle_slide(d1, SlideMove("alpha", 1, 0, -1)), SlideMove("gamma", 0, 1, 1))
    assert d1.genus >= 2 and "_report" not in vars(d1)
    validations = _count_calls(monkeypatch, trisect.diagram, "validate")
    snfs = _count_calls(monkeypatch, trisect.intlin, "snf")
    verdict = compare(d1, d2, max_depth=0)
    assert verdict.kind == UNKNOWN and verdict.invariant is None
    assert [args[0] for args in validations] == [d1]
    assert len(snfs) == 7
