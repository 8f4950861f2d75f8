"""Valid diagrams with torsion in H_1, stored under ``tests/data``.

Each fixture is the homology-level construction from handle data at g =
3 with two 2-handles and one 1-handle: alpha = (x1, x2, x3), beta = (y1,
y2, x3) and gamma_i = x_i + sum_j M_ij y_j for the symmetric M = [[L, A],
[A^T, 0]].  Then H_1 is Z modulo the gcd of A's entries, and sigma is the
signature of L on the kernel of A^T.  The fixtures exercise the non-unit
factors of the H_1 Smith form; they are homology-level only and claim no
manifold.  They stay out of the atlas, so ``trisect examples`` is
unchanged.
"""

import contextlib
import io
from pathlib import Path

import pytest

from trisect import (
    DISTINCT,
    TrisectionDiagram,
    compare,
    connect_sum,
    euler_characteristic,
    first_homology,
    handle_counts,
    parameters,
    reverse_orientation,
    signature,
    stabilize,
    validate,
)
from trisect.cli import parse_diagram, run

DATA = Path(__file__).resolve().parent / "data"

# the order of H_1 -> (L, A)
RECIPES = {
    2: (((-2, -1), (-1, 0)), (2, 0)),
    4: (((-2, -1), (-1, 0)), (4, 0)),
    3: (((-2, -2), (-2, 0)), (3, 0)),
    5: (((-2, -2), (-2, 0)), (5, 0)),
}


def fixture(p: int) -> TrisectionDiagram:
    return parse_diagram((DATA / f"torsion-z{p}.tris").read_text())


def _from_handles(lam, a) -> TrisectionDiagram:
    m = [list(lam[0]) + [a[0]], list(lam[1]) + [a[1]], [a[0], a[1], 0]]
    unit = [[int(i == j) for j in range(3)] for i in range(3)]
    zero = [0, 0, 0]
    alpha = [row + zero for row in unit]
    beta = [zero + unit[0], zero + unit[1], unit[2] + zero]
    gamma = [unit[i] + m[i] for i in range(3)]
    return TrisectionDiagram.from_rows(3, alpha, beta, gamma)


@pytest.mark.parametrize("p", sorted(RECIPES))
def test_a_fixture_is_its_recipe(p):
    assert fixture(p) == _from_handles(*RECIPES[p])


@pytest.mark.parametrize("p", sorted(RECIPES))
def test_a_fixture_is_valid_with_cyclic_first_homology(p):
    d = fixture(p)
    assert validate(d).valid
    assert parameters(d) == (3, 1)
    assert euler_characteristic(d) == 2
    assert signature(d) == 0
    assert handle_counts(d) == (1, 1, 2, 1, 1)
    h = first_homology(d)
    assert (h.free_rank, h.torsion) == (0, (p,))
    assert str(h) == f"Z/{p}"


@pytest.mark.parametrize("p", sorted(RECIPES))
def test_invariants_prints_the_torsion(p):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["invariants", str(DATA / f"torsion-z{p}.tris")]) == 0
    lines = out.getvalue().splitlines()
    assert f"H1=Z/{p}" in lines
    assert "handles=1,1,2,1,1" in lines
    assert lines[:4] == ["g=3", "k=1", "chi=2", "sigma=0"]


@pytest.mark.parametrize(
    "orders, want",
    [((2, 3), "Z/6"), ((2, 2), "Z/2 + Z/2"), ((2, 4), "Z/2 + Z/4"), ((3, 2), "Z/6")],
)
def test_sums_combine_the_torsion(orders, want):
    total = connect_sum(*map(fixture, orders))
    assert str(first_homology(total)) == want
    assert parameters(total) == (6, 2)


def test_compare_tells_z2_from_z4_by_first_homology():
    verdict = compare(fixture(2), fixture(4))
    assert verdict.kind == DISTINCT
    assert verdict.invariant == "first homology"
    assert (str(verdict.left), str(verdict.right)) == ("Z/2", "Z/4")


@pytest.mark.parametrize("p", sorted(RECIPES))
def test_stabilization_and_reversal_keep_the_torsion(p):
    d = fixture(p)
    assert str(first_homology(stabilize(d))) == f"Z/{p}"
    assert str(first_homology(reverse_orientation(d))) == f"Z/{p}"
    assert signature(reverse_orientation(d)) == 0
