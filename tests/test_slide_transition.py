"""``compare`` solves each system for its slide transition matrix, answers
goals outside the slide orbit at once, and searches transition matrices
in one table shared by the three systems.

The solve is checked against a Gauss-Jordan elimination over the
rationals kept here; the shortcut against the diagram-per-node search of
``test_compare_search``.  A genus must be an exact int.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect.moves
from trisect import (
    UNKNOWN,
    CurveSystem,
    IntMatrix,
    TrisectionDiagram,
    apply_diffeomorphism,
    builtin,
    compare,
    handle_slide,
    random_symplectic,
)
from trisect.moves import _transition

from helpers import random_slide, random_valid_diagram
from test_compare_search import _three_gamma_slides_apart, reference_compare

MAX_GENUS = 6


def oracle_transition(x1: IntMatrix, x2: IntMatrix):
    """The integral M with M @ x1 == x2 by Gauss-Jordan elimination over Q on
    [x1^T | x2^T], or None when the rational solution is missing or not
    integral.  x1 has rank g, so a solution is unique when it exists."""
    g = x1.rows
    work = [[Fraction(e) for e in a + b] for a, b in zip(zip(*x1.entries), zip(*x2.entries))]
    for col in range(g):
        pivot = next(i for i in range(col, len(work)) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [e / work[col][col] for e in work[col]]
        for i, row in enumerate(work):
            if i != col and row[col]:
                work[i] = [e - row[col] * p for e, p in zip(row, work[col])]
    if any(e for row in work[g:] for e in row):
        return None  # inconsistent: x2 does not vanish on the kernel of x1
    m_t = [row[g:] for row in work[:g]]
    if any(e.denominator != 1 for row in m_t for e in row):
        return None
    return IntMatrix(zip(*([int(e) for e in row] for row in m_t)), cols=g)


def _slid(d, rng, count):
    for _ in range(count if d.genus >= 2 else 0):
        d = handle_slide(d, random_slide(rng, d.genus))
    return d


def _unrelated(genus, seed):
    """The first valid diagram of the given genus among 200 seeds, or None."""
    for s in range(seed, seed + 200):
        e = random_valid_diagram(s, max_genus=MAX_GENUS)
        if e.genus == genus:
            return e
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 7))
def test_transition_matches_the_rational_solve(seed, other, slides):
    d = random_valid_diagram(seed, max_genus=MAX_GENUS)
    rng = random.Random(other)
    partners = [
        _slid(d, rng, slides),
        apply_diffeomorphism(d, random_symplectic(d.genus, other, rng.randrange(1, 5))),
        _unrelated(d.genus, other),
    ]
    for e in partners:
        if e is None:
            continue
        for s, t in zip(d.systems, e.systems):
            m, expected = _transition(s.classes, t.classes), oracle_transition(s.classes, t.classes)
            assert (m is None) == (expected is None)
            if m is not None:
                assert m == expected and m @ s.classes == t.classes
    slid = partners[0]
    for s, t in zip(d.systems, slid.systems):  # slides have determinant 1
        assert _transition(s.classes, t.classes).det() == 1


def _count_slides(monkeypatch, d, e, **budget):
    counted = []
    slid_rows = trisect.moves._slid_rows

    def counting(rows):
        counted.append(rows)
        return slid_rows(rows)

    with monkeypatch.context() as m:
        m.setattr(trisect.moves, "_slid_rows", counting)
        verdict = compare(d, e, **budget)
    return verdict, len(counted)


def _negated_gamma_curve(d):
    rows = list(d.gamma.classes.entries)
    rows[-1] = tuple(-e for e in rows[-1])
    return TrisectionDiagram.from_rows(d.genus, d.alpha.classes.entries,
                                       d.beta.classes.entries, rows)


def test_a_goal_outside_the_slide_orbit_is_unknown_at_once(monkeypatch):
    # the search computed slides for 198 states on each pair before it ran out
    d = builtin("s4-g3")
    for e in (_negated_gamma_curve(d), apply_diffeomorphism(d, random_symplectic(3, 5, 3))):
        verdict, computed = _count_slides(monkeypatch, d, e)
        assert verdict == reference_compare(d, e)
        assert verdict.kind == UNKNOWN and computed == 0


def test_the_systems_share_one_table_of_transition_matrices(monkeypatch):
    # per-system tables of class rows computed slides for 261 states
    d, b = _three_gamma_slides_apart()
    verdict, computed = _count_slides(monkeypatch, d, b, max_depth=3, max_nodes=100000)
    assert verdict == reference_compare(d, b, max_depth=3, max_nodes=100000)
    assert len(verdict.certificate) == 3
    assert computed == 121


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 2),
    st.sampled_from((1, 10, 100)),
)
def test_non_members_agree_with_the_diagram_per_node_search(seed, other, depth, budget):
    d = random_valid_diagram(seed, max_genus=4)
    rng = random.Random(other)
    image = apply_diffeomorphism(d, random_symplectic(d.genus, other, rng.randrange(1, 5)))
    for e in (_negated_gamma_curve(d), _slid(image, rng, 2)):
        for a, b in ((d, e), (e, d)):
            expected = reference_compare(a, b, max_depth=depth, max_nodes=budget)
            assert compare(a, b, max_depth=depth, max_nodes=budget) == expected


@pytest.mark.parametrize("genus", [1.0, True])
def test_genus_must_be_an_exact_int(genus):
    with pytest.raises(TypeError, match="genus must be int"):
        TrisectionDiagram.from_rows(genus, [[1, 0]], [[0, 1]], [[1, 1]])
    with pytest.raises(TypeError, match="genus must be int"):
        CurveSystem(genus, IntMatrix([[1, 0]]), "alpha")
    systems = [CurveSystem(1, IntMatrix([r]), label)
               for r, label in zip(([1, 0], [0, 1], [1, 1]), ("alpha", "beta", "gamma"))]
    with pytest.raises(TypeError, match="genus must be int"):
        TrisectionDiagram(genus, *systems)
