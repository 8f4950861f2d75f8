"""`validate` reads each invariant-factor tuple off a widened matrix X @ W.

For a matrix X and any integer W with a right inverse R, X @ W has the
same column lattice as X (X = (X @ W) @ R), hence the same invariant
factors.  A system X is reduced as [q(X, next) | q(prev, X)^T | X], and
the stacked classes S of a pair in which both systems fail as
[q(S, A) | q(S, B) | q(S, C) | S].  The oracle here is the reduction of
X and S themselves, on arbitrary (not Lagrangian) systems.
"""

import importlib.util
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import (
    SystemReport,
    TrisectionDiagram,
    builtin,
    invariant_factors,
    pairing_matrix,
    validate,
)
from trisect.cli import serialize_diagram
from trisect.diagram import _hstack
from trisect.symplectic import first_nonisotropic

from helpers import random_valid_diagram
from test_lazy_transforms import dense_diagram, recorded_smith_forms

PAIR_INDICES = ((0, 1), (1, 2), (2, 0))
BIG = 2**64


@st.composite
def systems(draw, genus):
    """A g x 2g row list mixing random, zero, scaled and dependent rows."""
    rows = []
    for _ in range(genus):
        kind = draw(st.sampled_from(("random", "random", "zero", "scaled", "dependent")))
        if kind == "zero":
            rows.append([0] * (2 * genus))
        elif kind == "scaled" and rows:
            row, c = draw(st.sampled_from(rows)), draw(st.integers(-BIG, BIG))
            rows.append([c * x for x in row])
        elif kind == "dependent" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, e = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
            rows.append([c * x + e * y for x, y in zip(a, b)])
        else:
            bound = draw(st.sampled_from((1, 9, BIG)))
            entry = st.integers(-bound, bound)
            rows.append(draw(st.lists(entry, min_size=2 * genus, max_size=2 * genus)))
    return rows


@st.composite
def diagrams(draw):
    genus = draw(st.integers(0, 8))
    return TrisectionDiagram.from_rows(genus, *(draw(systems(genus)) for _ in range(3)))


def class_matrix_factors(d: TrisectionDiagram):
    """(system factors, double factors) reduced from the class matrices:
    each g x 2g system, and the stacked 2g x 2g pair where both systems
    fail.  ``transpose`` reduces the stacked matrix's transpose, which
    has the same invariant factors."""
    systems = [
        SystemReport(s.label, invariant_factors(s.classes), first_nonisotropic(s.classes))
        for s in d.systems
    ]
    doubles = []
    for l, r in PAIR_INDICES:
        if systems[l].ok or systems[r].ok:
            q = pairing_matrix(d.systems[l].classes, d.systems[r].classes)
            doubles.append(invariant_factors(q))
        else:
            stacked = d.systems[l].classes.vstack(d.systems[r].classes)
            doubles.append(invariant_factors(stacked.transpose()))
    return tuple(s.factors for s in systems), tuple(doubles)


def measured_factors(d: TrisectionDiagram):
    report = validate(d)
    return (
        tuple(s.factors for s in report.systems),
        tuple(p.double_factors for p in report.pairs),
    )


@settings(max_examples=150, deadline=None)
@given(diagrams())
def test_report_factors_match_class_matrix_forms(d):
    assert measured_factors(d) == class_matrix_factors(d)


@settings(max_examples=150, deadline=None)
@given(diagrams())
def test_every_widened_stacked_pair_keeps_the_invariant_factors(d):
    """validate widens a pair only when both systems fail; the identity
    holds for every pair."""
    a, b, c = (s.classes for s in d.systems)
    for l, r in PAIR_INDICES:
        s = d.systems[l].classes.vstack(d.systems[r].classes)
        widened = _hstack(pairing_matrix(s, a), pairing_matrix(s, b), pairing_matrix(s, c), s)
        assert invariant_factors(widened) == invariant_factors(s)


def shapes_of(seen):
    return [m.shape for m, _ in seen]


def test_valid_diagram_reduces_g_by_4g_system_matrices(monkeypatch):
    for d in (dense_diagram(3), random_valid_diagram(11), builtin("s4-g3")):
        g = d.genus
        with recorded_smith_forms(monkeypatch) as (seen, _):
            assert validate(d).valid
        assert shapes_of(seen) == [(g, 4 * g)] * 3 + [(g, g)] * 3


def test_pair_of_failing_systems_reduces_a_2g_by_5g_matrix(monkeypatch):
    valid = dense_diagram(5)
    rows = [[list(r) for r in s.classes.entries] for s in valid.systems]
    for i in (0, 1):  # doubling alpha_1 and beta_1 makes both systems imprimitive
        rows[i][0] = [2 * x for x in rows[i][0]]
    d = TrisectionDiagram.from_rows(valid.genus, *rows)
    g = d.genus
    with recorded_smith_forms(monkeypatch) as (seen, _):
        report = validate(d)
    assert [s.ok for s in report.systems] == [False, False, True]
    assert shapes_of(seen) == [(g, 4 * g)] * 3 + [(g, g), (2 * g, 5 * g), (g, g), (g, g)]
    assert measured_factors(d) == class_matrix_factors(d)


def _load_recipes():
    path = Path(__file__).resolve().parents[1] / "bench" / "recipes.py"
    spec = importlib.util.spec_from_file_location("bench_recipes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dense_genus_17_pair_of_failing_systems():
    """The benchmark's dense recipe at genus 17, with alpha_1 and beta_1
    broken by x -> 2x + 1 in their first entry.  Reducing the stacked
    34 x 34 matrix row-first blows up (about 40 s); its transpose, and
    the widened matrix, take well under a second."""
    recipes = _load_recipes()
    atlas = {n: recipes.from_text(serialize_diagram(builtin(n))) for n in recipes.PIECES}
    rng = random.Random("bf:2:17")
    dense, _ = recipes.assemble(recipes.shuffled_pieces(rng, 17), atlas)
    dense = recipes.apply_transvections(dense, recipes.random_transvections(rng, 17, 40))
    rows = [[list(r) for r in s] for s in dense.systems]
    for i in (0, 1):
        rows[i][0][0] = 2 * rows[i][0][0] + 1
    d = TrisectionDiagram.from_rows(17, *rows)
    report = validate(d)
    assert [s.ok for s in report.systems] == [False, False, True]
    assert measured_factors(d) == class_matrix_factors(d)
    assert not any(p.ok for p in report.pairs)
