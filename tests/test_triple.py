"""Invariants read off the intersection triple agree with the stacked-class
formulas they replaced, and each diagram is validated once per command.

The oracle keeps the stacked formulas: H_1 from the 3g x 2g stack of all
classes, each pair's double from its 2g x 2g stack, and the Maslov index
from the left kernel of [b1; b2; b3].
"""

import contextlib
import io
import itertools
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    IntMatrix,
    TrisectionDiagram,
    builtin,
    compare,
    first_homology,
    invariant_factors,
    lagrangian_triple,
    left_kernel_basis,
    maslov_index,
    omega,
    pairing_matrix,
    signature,
    symmetric_signature,
    validate,
)
from trisect.cli import run, serialize_diagram

from helpers import random_valid_diagram

MAX_GENUS = 9


def _rank(facs):
    return sum(1 for e in facs if e)


def _fmt(facs):
    return "(" + ", ".join(str(f) for f in facs) + ")"


def oracle_first_homology(d):
    stacked = d.alpha.classes.vstack(d.beta.classes).vstack(d.gamma.classes)
    facs = invariant_factors(stacked)
    return (2 * d.genus - _rank(facs), tuple(e for e in facs if e > 1))


def oracle_maslov(b1, b2, b3):
    g = b1.rows
    if g == 0:
        return 0
    ker = left_kernel_basis(b1.vstack(b2).vstack(b3))
    if ker.rows == 0:
        return 0
    part_a = ker.submatrix(0, ker.rows, 0, g)
    part_b = ker.submatrix(0, ker.rows, g, 2 * g)
    gram = part_a @ pairing_matrix(b1, b2) @ part_b.transpose()
    assert gram == gram.transpose()
    n_pos, n_neg, _ = symmetric_signature(gram)
    return n_pos - n_neg


def oracle_lines(d):
    """The report lines of the stacked-matrix validation."""
    g = d.genus
    lines, failures, ok = [f"genus {g}"], [], True
    for sys_ in d.systems:
        facs = invariant_factors(sys_.classes)
        rows = sys_.classes.entries
        bad = next(
            (
                (i, j, omega(rows[i], rows[j]))
                for i in range(g)
                for j in range(i + 1, g)
                if omega(rows[i], rows[j])
            ),
            None,
        )
        full, prim = _rank(facs) == g, all(e == 1 for e in facs)
        ok = ok and full and prim and bad is None
        lines.append(
            f"system {sys_.label}: "
            + ("full rank" if full else "RANK DEFICIENT")
            + (", primitive" if prim else ", NOT PRIMITIVE")
            + (", isotropic" if bad is None else ", NOT ISOTROPIC")
        )
        if not full:
            failures.append(f"{sys_.label}: rows are dependent (rank {_rank(facs)} of {g})")
        elif not prim:
            failures.append(f"{sys_.label}: span is not primitive (invariant factors {_fmt(facs)})")
        if bad is not None:
            i, j, val = bad
            failures.append(
                f"{sys_.label}: not isotropic, "
                f"omega({sys_.label}_{i + 1}, {sys_.label}_{j + 1}) = {val}"
            )
    ks = []
    for left, right in ((d.alpha, d.beta), (d.beta, d.gamma), (d.gamma, d.alpha)):
        pair = f"{left.label}-{right.label}"
        qfacs = invariant_factors(pairing_matrix(left.classes, right.classes))
        k = g - _rank(qfacs)
        unit = all(e in (0, 1) for e in qfacs)
        sfacs = invariant_factors(left.classes.vstack(right.classes))
        torsion = tuple(e for e in sfacs if e > 1)
        rank = 2 * g - _rank(sfacs)
        pair_ok = unit and not torsion and rank == k
        ok = ok and pair_ok
        ks.append((pair, k))
        lines.append(
            f"pair {pair}: q factors ({','.join(map(str, qfacs)) or '-'}), double rank {rank}"
            f"{' with torsion' if torsion else ''}, k {k}: {'ok' if pair_ok else 'FAIL'}"
        )
        if not unit:
            failures.append(f"{pair}: intersection matrix has non-unit invariant factors {_fmt(qfacs)}")
        if torsion:
            failures.append(f"{pair}: double has torsion {_fmt(torsion)}")
        elif rank != k:
            failures.append(f"{pair}: double has rank {rank}, expected k = {k}")
    if len({k for _, k in ks}) > 1:
        lines.append("per-pair k values disagree")
        failures.append(
            "per-pair k values disagree: " + ", ".join(f"{p} gives {k}" for p, k in ks)
        )
        ok = False
    if ok:
        k = ks[0][1]
        lines.append(f"result: VALID, (g, k) = ({g}, {k}), chi = {2 + g - 3 * k}")
    else:
        lines.append("result: INVALID")
        lines.extend(f"  fail: {f}" for f in failures)
    lines.append(
        "scope: homological necessary conditions only; geometric "
        "standardness of the pieces is not certified"
    )
    return lines


def corrupt(d, system, row, kind, other, coef):
    """A near-valid diagram: one row of one system changed."""
    g = d.genus
    rows = [[list(r) for r in s.classes.entries] for s in d.systems]
    target = rows[system]
    donor = rows[(system + 1 + other % 2) % 3][(row + other) % g]
    if kind == 0:
        target[row][(row + other) % (2 * g)] += coef
    elif kind == 1:
        target[row] = [coef * e for e in target[row]]
    elif kind == 2:
        target[row] = list(donor)
    else:
        target[row] = [a + coef * b for a, b in zip(target[row], donor)]
    return TrisectionDiagram.from_rows(g, *rows)


seeds = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_valid_diagrams_match_the_stacked_oracle(seed):
    d = random_valid_diagram(seed, max_genus=MAX_GENUS)
    assert validate(d).lines() == oracle_lines(d)
    h1 = first_homology(d)
    assert (h1.free_rank, h1.torsion) == oracle_first_homology(d)
    b = [s.classes for s in d.systems]
    assert signature(d) == oracle_maslov(*b)
    ls = lagrangian_triple(d)
    orders = list(itertools.permutations(range(3))) + [(0, 0, 1), (1, 2, 2), (2, 2, 2)]
    for order in orders:
        assert maslov_index(*(ls[i] for i in order)) == oracle_maslov(*(b[i] for i in order))


corruptions = st.tuples(
    st.integers(0, 2),
    st.integers(0, MAX_GENUS - 1),
    st.integers(0, 3),
    st.integers(0, 20),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
)


# Two corruptions can break both systems of a pair, the only case in which
# the double's H_1 differs from coker(q).
@settings(max_examples=80, deadline=None)
@given(seeds, st.lists(corruptions, min_size=1, max_size=2))
def test_corrupted_diagrams_report_the_stacked_oracle(seed, changes):
    bad = random_valid_diagram(seed, max_genus=MAX_GENUS)
    if bad.genus == 0:
        return
    for system, row, kind, other, coef in changes:
        bad = corrupt(bad, system, row % bad.genus, kind, other, coef)
    assert validate(bad).lines() == oracle_lines(bad)


def test_genus_zero_and_atlas_match_the_oracle():
    for name in trisect.builtin_names():
        d = builtin(name)
        assert validate(d).lines() == oracle_lines(d)
        assert signature(d) == oracle_maslov(*(s.classes for s in d.systems))
    empty = IntMatrix([], cols=0)
    assert maslov_index(empty, empty, empty) == oracle_maslov(empty, empty, empty) == 0


def _count_validations(monkeypatch):
    calls = []
    original = trisect.diagram.validate

    def counting(d):
        calls.append(d)
        return original(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("trisect") and getattr(module, "validate", None) is original:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def test_invariants_command_validates_once(monkeypatch, tmp_path):
    path = tmp_path / "d.tris"
    path.write_text(serialize_diagram(builtin("cp2-sum-cp2mirror")))
    calls = _count_validations(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["invariants", str(path)]) == 0
    assert len(calls) == 1


def test_compare_validates_each_input_once(monkeypatch):
    d1, d2 = builtin("s4-g3"), builtin("s4-g3")
    assert d1 == d2 and d1 is not d2
    calls = _count_validations(monkeypatch)
    assert compare(d1, d2).kind == trisect.IDENTICAL
    assert len(calls) == 1
