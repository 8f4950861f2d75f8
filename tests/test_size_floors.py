"""Every size, count and budget at a public entry point is an exact int
no lower than its floor.

A genus, a matrix width, a generator's count, a slide index and a
search budget all follow one rule: a bool or a float is a `TypeError`
and a value below the floor is a `ValueError`, and either message names
the argument.  The table below holds one row per argument; each row is
tried with `True`, `1.5` and the value one below its floor.  The floor
itself is accepted.  Scalar `*` takes an exact int too.
"""

import pytest

from trisect import (
    IDENTICAL,
    UNKNOWN,
    CurveSystem,
    FibrationParams,
    IntMatrix,
    LagrangianSublattice,
    SlideMove,
    SymplecticLattice,
    TrisectionDiagram,
    builtin,
    bundle_over_s2_params,
    compare,
    handle_slide,
    mapping_torus_params,
    random_symplectic,
    random_unimodular,
)

EMPTY = IntMatrix([], cols=0)
S4 = builtin("s4-g3")
# not a trisection diagram: alpha is not primitive
INVALID = TrisectionDiagram.from_rows(1, [[2, 0]], [[0, 1]], [[1, 1]])


def _genus_zero_diagram(genus):
    systems = (CurveSystem(0, EMPTY, label) for label in ("alpha", "beta", "gamma"))
    return TrisectionDiagram(genus, *systems)


# each row: the argument's name, its floor, and a call with the value in its place
FLOORS = [
    pytest.param("cols", 0, lambda x: IntMatrix([], cols=x), id="IntMatrix.cols"),
    pytest.param("size", 0, lambda x: IntMatrix.identity(x), id="identity.size"),
    pytest.param("rows", 0, lambda x: IntMatrix.zeros(x, 2), id="zeros.rows"),
    pytest.param("cols", 0, lambda x: IntMatrix.zeros(2, x), id="zeros.cols"),
    pytest.param("size", 1, lambda x: random_unimodular(x, 5, 0), id="unimodular.size"),
    pytest.param("op_count", 0, lambda x: random_unimodular(2, 5, x), id="unimodular.op_count"),
    pytest.param("genus", 0, lambda x: SymplecticLattice(x), id="SymplecticLattice.genus"),
    pytest.param("genus", 0, lambda x: LagrangianSublattice(x, EMPTY), id="Lagrangian.genus"),
    pytest.param("genus", 0, lambda x: random_symplectic(x, 5, 0), id="symplectic.genus"),
    pytest.param("count", 0, lambda x: random_symplectic(0, 5, x), id="symplectic.count"),
    pytest.param("genus", 0, lambda x: CurveSystem(x, EMPTY, "alpha"), id="CurveSystem.genus"),
    pytest.param("genus", 0, _genus_zero_diagram, id="TrisectionDiagram.genus"),
    pytest.param("genus", 0, lambda x: TrisectionDiagram.from_rows(x, [], [], []), id="from_rows"),
    pytest.param("genus", 0, lambda x: FibrationParams(genus=x, k=0, chi=2), id="Fibration.genus"),
    pytest.param("k", 0, lambda x: FibrationParams(genus=0, k=x, chi=2), id="Fibration.k"),
    pytest.param("Heegaard genus", 0, mapping_torus_params, id="mapping_torus_params"),
    pytest.param("fiber genus", 0, bundle_over_s2_params, id="bundle_over_s2_params"),
    pytest.param("target", 0, lambda x: SlideMove("alpha", x, 1, 1), id="SlideMove.target"),
    pytest.param("source", 0, lambda x: SlideMove("alpha", 0, x, 1), id="SlideMove.source"),
    pytest.param("max_depth", 0, lambda x: compare(S4, S4, max_depth=x), id="compare.max_depth"),
    pytest.param("max_nodes", 1, lambda x: compare(S4, S4, max_nodes=x), id="compare.max_nodes"),
]


@pytest.mark.parametrize("name, least, call", FLOORS)
@pytest.mark.parametrize("value", [True, 1.5], ids=["bool", "float"])
def test_a_size_that_is_not_an_exact_int_is_a_type_error(name, least, call, value):
    kind = type(value).__name__
    with pytest.raises(TypeError, match=f"^{name} must be int, got {kind}$"):
        call(value)


@pytest.mark.parametrize("name, least, call", FLOORS)
def test_a_size_below_its_floor_is_a_value_error(name, least, call):
    floor = "nonnegative" if least == 0 else f">= {least}"
    with pytest.raises(ValueError, match=f"^{name} must be {floor}$"):
        call(least - 1)


def test_compare_checks_its_budgets_before_the_diagrams():
    with pytest.raises(ValueError, match="^max_depth must be nonnegative$"):
        compare(INVALID, INVALID, max_depth=-1)
    with pytest.raises(ValueError, match="^max_nodes must be >= 1$"):
        compare(INVALID, INVALID, max_nodes=0)


def test_every_floor_is_accepted():
    assert IntMatrix.zeros(0, 0).shape == (0, 0)
    assert IntMatrix.identity(0).shape == (0, 0)
    assert random_unimodular(1, 5, 0) == IntMatrix.identity(1)
    assert random_symplectic(0, 5, 0) == IntMatrix.identity(0)
    assert TrisectionDiagram.from_rows(0, [], [], []).genus == 0
    assert mapping_torus_params(0) == FibrationParams(genus=1, k=1, chi=0)
    assert SlideMove("alpha", 0, 1, 1).target == 0
    slid = handle_slide(S4, SlideMove("alpha", 0, 1, 1))
    assert compare(S4, slid, max_depth=0).kind == UNKNOWN
    assert compare(S4, S4, max_depth=0).kind == IDENTICAL
    assert compare(S4, S4, max_nodes=1).kind == IDENTICAL


@pytest.mark.parametrize("scalar", [True, False])
def test_scalar_multiplication_takes_an_exact_int(scalar):
    m = IntMatrix([[1, 2]])
    with pytest.raises(TypeError):
        m * scalar
    with pytest.raises(TypeError):
        scalar * m
    assert m * 1 == 1 * m == m
