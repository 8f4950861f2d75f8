"""`validate` reads every pairing off one Gram product of the stacked
systems, and its reports equal those of the version it replaced.

The oracle keeps the replaced `validate` verbatim: three `pairing_matrix`
products for the triple (kept below as `oracle_intersection_triple`),
three isotropy scans through `first_nonisotropic`, and three more
pairings for each pair whose two systems fail.  Reports are compared
field by field on valid diagrams of genus 0-14, on diagrams with one or
two failing systems, on a non-isotropic pair late in a system's triangle,
and on classes scaled to 2**31 and 2**40, where the Gram product takes
the wide-slot path.
"""

import dataclasses
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    IntMatrix,
    TrisectionDiagram,
    builtin,
    connect_sum,
    direct_sum,
    intersection_triple,
    random_symplectic,
    validate,
)
from trisect.diagram import (
    PAIRS,
    IntersectionTriple,
    PairReport,
    SystemReport,
    ValidationReport,
    _hstack,
)
from trisect.intlin import invariant_factors
from trisect.symplectic import first_nonisotropic, pairing_matrix

from helpers import random_valid_diagram, shuffle_diagram
from test_kernels import _count_calls, seeds


def oracle_intersection_triple(d: TrisectionDiagram) -> IntersectionTriple:
    """The pairwise intersection matrices; defined for any diagram."""
    return IntersectionTriple(
        pairing_matrix(d.alpha.classes, d.beta.classes),
        pairing_matrix(d.beta.classes, d.gamma.classes),
        pairing_matrix(d.gamma.classes, d.alpha.classes),
    )


def oracle_validate(d: TrisectionDiagram) -> ValidationReport:
    """Measure every homological check and return the report of the facts.

    The triple comes first: each class matrix is reduced with its
    intersection numbers in front, which keeps its invariant factors
    (module docstring) and spares the Smith form the classes' blow-up.
    """
    triple = oracle_intersection_triple(d)
    qs = (triple.q_ab, triple.q_bc, triple.q_ca)
    systems = tuple(
        SystemReport(
            s.label,
            invariant_factors(_hstack(qs[i], qs[i - 1].transpose(), s.classes)),
            first_nonisotropic(s.classes),
        )
        for i, s in enumerate(d.systems)
    )
    pairs = []
    for pair, (l, r), q in zip(PAIRS, ((0, 1), (1, 2), (2, 0)), qs):
        q_factors = invariant_factors(q)
        if systems[l].ok or systems[r].ok:  # the double's H_1 is coker(q)
            double_factors = q_factors
        else:
            stacked = d.systems[l].classes.vstack(d.systems[r].classes)
            paired = (pairing_matrix(stacked, s.classes) for s in d.systems)
            double_factors = invariant_factors(_hstack(*paired, stacked))
        pairs.append(PairReport(pair, q_factors, double_factors))
    return ValidationReport(d.genus, systems, tuple(pairs), triple)


def assert_same_report(d: TrisectionDiagram) -> ValidationReport:
    got, want = validate(d), oracle_validate(d)
    for f in dataclasses.fields(ValidationReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert intersection_triple(d) == want.triple
    return got


def valid_of_genus(genus: int, seed: int) -> TrisectionDiagram:
    """A shuffled valid diagram of exactly this genus."""
    rng = random.Random(seed)
    d = random_valid_diagram(seed, max_genus=genus) if genus >= 2 else direct_sum()
    while d.genus < genus:
        d = connect_sum(d, builtin(rng.choice(("cp2", "cp2-mirror", "s1xs3"))))
    return shuffle_diagram(d, rng)


def with_classes(d: TrisectionDiagram, classes) -> TrisectionDiagram:
    return TrisectionDiagram.from_rows(d.genus, *classes)


def bend(rows, rng: random.Random, scale: int = 1) -> list[list[int]]:
    """A copy of the rows with one entry moved."""
    rows = [list(r) for r in rows]
    if rows:
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += scale * rng.choice(
            (-3, -1, 1, 2)
        )
    return rows


KINDS = ("valid", "one-fails", "pair-fails", "all-fail", "scaled", "one-scaled")
SCALES = (2**31, 2**40)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), seeds, st.sampled_from(KINDS), st.sampled_from(SCALES))
@example(0, 1, "valid", 2**31)
@example(14, 2, "valid", 2**31)
@example(10, 3, "pair-fails", 2**31)
@example(12, 4, "scaled", 2**40)  # every pair fails, wide slots
@example(7, 5, "one-scaled", 2**31)
def test_reports_match_the_three_pairing_version(genus, seed, kind, scale):
    d = valid_of_genus(genus, seed)
    rng = random.Random(seed)
    classes = [s.classes.entries for s in d.systems]
    k = rng.randrange(3)
    if kind == "one-fails":
        classes[k] = bend(classes[k], rng)
    elif kind == "pair-fails":
        classes[k] = bend(classes[k], rng)
        classes[k - 1] = bend(classes[k - 1], rng)
    elif kind == "all-fail":
        classes = [bend(c, rng) for c in classes]
    elif kind == "scaled":  # no system is primitive, so every pair is reduced
        classes = [[[scale * e for e in r] for r in c] for c in classes]
    elif kind == "one-scaled":  # and one pair of failing systems is mixed
        classes[k] = [[scale * e for e in r] for r in classes[k]]
        classes[k - 1] = bend(classes[k - 1], rng)
    report = assert_same_report(with_classes(d, classes))
    if kind == "valid":
        assert report.valid


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 14), seeds, st.integers(0, 2), st.integers(0, 40))
@example(14, 1, 0, 30)
def test_a_late_non_isotropic_pair_is_found(genus, seed, rotate, count):
    # the atlas pieces' alpha rows are +-x_i, so adding y_(g-1) to the last
    # row pairs it with the row before it and with no other
    rng = random.Random(seed)
    d = builtin("cp2")
    while d.genus < genus:
        d = connect_sum(d, builtin(rng.choice(("cp2", "cp2-mirror", "s1xs3"))))
    classes = [[list(r) for r in s.classes.entries] for s in d.systems]
    classes[0][-1][2 * genus - 2] += 1
    s = random_symplectic(genus, seed, count)
    classes = [(IntMatrix(c) @ s).entries for c in classes]
    classes = classes[rotate:] + classes[:rotate]
    report = assert_same_report(with_classes(d, classes))
    i, j, val = report.systems[-rotate].nonisotropic
    assert (i, j) == (genus - 2, genus - 1) and val in (-1, 1)


def test_validate_forms_one_product(monkeypatch):
    rng = random.Random(6)
    for genus in (0, 1, 3, 4, 10, 14):
        d = valid_of_genus(genus, rng.randrange(10**6))
        for classes in (
            [s.classes.entries for s in d.systems],
            [[[2**40 * e for e in r] for r in s.classes.entries] for s in d.systems],
        ):
            bent = with_classes(d, classes)
            monkeypatch.undo()
            dots = _count_calls(monkeypatch, trisect.intlin, "_dots")
            validate(bent)
            assert len(dots) == 1, genus
