"""Matrix entries are checked once, where they enter the package.

The public `IntMatrix` constructor checks every entry: outside data (the
parser, `from_rows`, `parse_int_matrix`, `LagrangianSublattice.span`,
library callers) comes in through it.  Results fixed by matrices that
were already checked are built through the private `IntMatrix._of`,
which trusts its rows.  The oracle here: every such result equals, and
hashes like, the same rows passed through the public constructor, and
its rows are tuples of exact ints of the stated width.  Producers whose
shape or values come from caller arguments (`identity`, `zeros`,
`submatrix`, scalar `*`) and `SlideMove` keep their checks.
"""

import contextlib
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import (
    IntMatrix,
    LagrangianSublattice,
    SlideMove,
    SymplecticLattice,
    TrisectionDiagram,
    apply_diffeomorphism,
    builtin,
    connect_sum,
    direct_sum,
    handle_slide,
    left_kernel_basis,
    pairing_matrix,
    random_symplectic,
    random_unimodular,
    reverse_orientation,
    snf,
)
from trisect.cli import run, serialize_diagram
from trisect.diagram import _block_diagonal, _hstack
from trisect.intlin import _hermite

from helpers import random_slide, random_valid_diagram, shuffle_diagram
from test_kernels import matrices, seeds


def assert_like_checked(m: IntMatrix) -> None:
    """m is stored exactly as the public constructor would store its rows."""
    assert type(m.rows) is int and type(m.cols) is int
    assert type(m.entries) is tuple and len(m.entries) == m.rows
    for row in m.entries:
        assert type(row) is tuple and len(row) == m.cols
        assert all(type(e) is int for e in row)
    checked = IntMatrix([list(r) for r in m.entries], cols=m.cols)
    assert m == checked and hash(m) == hash(checked)


def same_shape(m: IntMatrix, seed: int) -> IntMatrix:
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(m.cols)] for _ in range(m.rows)]
    return IntMatrix(rows, cols=m.cols)


EMPTY_ROWS = IntMatrix([], cols=3)
EMPTY_COLS = IntMatrix([[], []], cols=0)


@settings(max_examples=150, deadline=None)
@given(matrices(), seeds)
@example(EMPTY_ROWS, 0)
@example(EMPTY_COLS, 0)
@example(IntMatrix([], cols=0), 0)
def test_elementwise_producers_build_what_the_checked_path_builds(m, seed):
    other = same_shape(m, seed)
    for result in (m + other, m - other, -m, m.transpose(), m.vstack(other)):
        assert_like_checked(result)
    assert (m - other).entries == (m + -other).entries
    assert m.transpose().shape == (m.cols, m.rows)
    assert m.transpose().transpose() == m


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_matmul_builds_what_the_checked_path_builds(a, data):
    b = data.draw(matrices(rows=a.cols))
    product = a @ b
    assert_like_checked(product)
    assert product.shape == (a.rows, b.cols)


@pytest.mark.parametrize("a, b", [(EMPTY_ROWS, IntMatrix.zeros(3, 2)), (EMPTY_COLS, EMPTY_ROWS)])
def test_matmul_of_empty_factors_builds_what_the_checked_path_builds(a, b):
    assert_like_checked(a @ b)


@settings(max_examples=150, deadline=None)
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLS)
def test_smith_form_parts_build_what_the_checked_path_builds(m):
    dec = snf(m)
    for part in (dec.d, dec.u, dec.v):
        assert_like_checked(part)
    assert dec.u @ m @ dec.v == dec.d
    kernel = left_kernel_basis(m)  # through _hermite
    assert_like_checked(kernel)
    assert (kernel @ m).is_zero()
    assert_like_checked(_hermite(dec.u.entries[dec.rank :], m.rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), seeds, st.integers(0, 12))
def test_generators_and_pairings_build_what_the_checked_path_builds(genus, seed, count):
    assert_like_checked(SymplecticLattice(genus).form_matrix())
    s = random_symplectic(genus, seed, count)
    assert_like_checked(s)
    assert_like_checked(pairing_matrix(s, s))
    rng = random.Random(seed)
    half = IntMatrix([list(r) for r in s.entries[: rng.randrange(2 * genus + 1)]], cols=2 * genus)
    assert_like_checked(pairing_matrix(half, s))
    assert_like_checked(pairing_matrix(s, half))
    if genus:
        assert_like_checked(random_unimodular(genus, seed, count))


@settings(max_examples=80, deadline=None)
@given(st.lists(matrices(max_side=4), max_size=4), seeds)
def test_stacking_helpers_build_what_the_checked_path_builds(blocks, seed):
    assert_like_checked(_block_diagonal(blocks))
    if blocks:
        rows = blocks[0].rows
        side = [same_shape(IntMatrix.zeros(rows, b.cols), seed) for b in blocks]
        assert_like_checked(_hstack(*side))
    assert_like_checked(_block_diagonal([]))


def assert_diagram_like_checked(d: TrisectionDiagram) -> None:
    for system in d.systems:
        assert_like_checked(system.classes)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_moves_build_what_the_checked_path_builds(seed, other):
    d = random_valid_diagram(seed)
    e = random_valid_diagram(other, max_genus=3)
    rng = random.Random(seed)
    assert_diagram_like_checked(direct_sum(d, e))
    assert_diagram_like_checked(direct_sum(d))
    assert_diagram_like_checked(direct_sum())
    assert_diagram_like_checked(reverse_orientation(d))
    if d.genus >= 2:
        assert_diagram_like_checked(handle_slide(d, random_slide(rng, d.genus)))
    s = random_symplectic(d.genus, rng.randrange(10**6), rng.randrange(1, 5))
    assert_diagram_like_checked(apply_diffeomorphism(d, s))


def test_the_genus_zero_moves_build_empty_matrices():
    empty = direct_sum()
    assert empty.genus == 0
    assert_diagram_like_checked(reverse_orientation(empty))
    assert_diagram_like_checked(apply_diffeomorphism(empty, IntMatrix.identity(0)))


# --- the boundary keeps every check it had ---------------------------------


@pytest.mark.parametrize(
    "rows, cols, error, message",
    [
        ([[1, True]], None, TypeError, "matrix entries must be int, got bool"),
        ([[1, 2.0]], None, TypeError, "matrix entries must be int, got float"),
        ([[1, 2], [3]], None, ValueError, "ragged rows"),
        ([[1, 2]], 3, ValueError, "cols=3 does not match row length 2"),
        ([], -1, ValueError, "cols must be nonnegative"),
    ],
)
def test_the_public_constructor_keeps_its_checks(rows, cols, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        IntMatrix(rows, cols=cols)


def test_sized_constructors_reject_a_negative_size():
    with pytest.raises(ValueError):
        IntMatrix.identity(-1)
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, -1)


def test_outside_rows_are_checked_where_they_enter():
    with pytest.raises(TypeError, match="got float"):
        TrisectionDiagram.from_rows(1, [[1, 0]], [[0, 1.0]], [[1, 1]])
    with pytest.raises(TypeError, match="got float"):
        LagrangianSublattice.span((1.0, 0))
    with pytest.raises(TypeError, match="got bool"):
        LagrangianSublattice.span((True, 0))


@pytest.mark.parametrize(
    "target, source, sign",
    [(0, 1, 1.0), (0, 1, True), (0.0, 1, 1), (0, 1.0, 1), (0, False, -1)],
)
def test_slide_moves_take_exact_ints_only(target, source, sign):
    with pytest.raises(TypeError, match="must be int"):
        SlideMove("alpha", target, source, sign)


# --- checked constructions per command -------------------------------------


@pytest.fixture
def checked_builds(monkeypatch):
    calls = []
    original = IntMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
    return calls


def quiet_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return run(argv)


def test_invariants_checks_only_the_parsed_matrices_and_its_two_slices(tmp_path, checked_builds):
    d = connect_sum(*map(builtin, ("cp2", "s1xs3", "cp2-mirror", "s2xs2-g2-model", "cp2")))
    d = shuffle_diagram(d, random.Random(3), slides=6)
    assert d.genus == 6
    path = tmp_path / "g6.tris"
    path.write_text(serialize_diagram(d))
    checked_builds.clear()
    assert quiet_run(["invariants", str(path)]) == 0
    assert len(checked_builds) <= 5


def test_stabilize_checks_only_the_parsed_matrices(tmp_path, checked_builds):
    path = tmp_path / "cp2.tris"
    path.write_text(serialize_diagram(builtin("cp2")))
    checked_builds.clear()
    assert quiet_run(["stabilize", str(path), "-n", "12"]) == 0
    assert len(checked_builds) == 3
