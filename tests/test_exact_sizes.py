"""A size (a genus, a column count, a fibration genus) is an exact int
wherever it is stored, like a matrix entry: a float or a bool is a
`TypeError` naming the size, raised before the size is used.
"""

import pytest

from trisect import IntMatrix, LagrangianSublattice, SymplecticLattice
from trisect.atlas import FibrationParams, bundle_over_s2_params, mapping_torus_params

NOT_INTS = [1.0, True, 2.5]


@pytest.mark.parametrize("cols", NOT_INTS)
def test_an_empty_matrix_takes_an_exact_int_width(cols):
    with pytest.raises(TypeError, match=f"^cols must be int, got {type(cols).__name__}$"):
        IntMatrix([], cols=cols)


@pytest.mark.parametrize("cols", NOT_INTS)
def test_a_width_beside_rows_is_only_compared(cols):
    # the rows fix the stored width, so only a mismatch is an error
    with pytest.raises(ValueError, match="does not match row length"):
        IntMatrix([[1, 0]], cols=cols)
    assert type(IntMatrix([[1, 0]], cols=2.0).cols) is int


@pytest.mark.parametrize("genus", NOT_INTS)
def test_lattices_take_an_exact_int_genus(genus):
    with pytest.raises(TypeError, match="^genus must be int"):
        SymplecticLattice(genus)
    with pytest.raises(TypeError, match="^genus must be int"):
        LagrangianSublattice(genus, IntMatrix([[1, 0]]))


@pytest.mark.parametrize("genus", NOT_INTS)
def test_fibration_parameters_take_an_exact_int_genus(genus):
    with pytest.raises(TypeError, match="^Heegaard genus must be int"):
        mapping_torus_params(genus)
    with pytest.raises(TypeError, match="^fiber genus must be int"):
        bundle_over_s2_params(genus)


@pytest.mark.parametrize("size", ["genus", "k", "chi"])
@pytest.mark.parametrize("value", NOT_INTS)
def test_fibration_params_take_exact_int_sizes(size, value):
    sizes = {"genus": 1, "k": 0, "chi": 3}
    sizes[size] = value
    with pytest.raises(TypeError, match=f"^{size} must be int, got {type(value).__name__}$"):
        FibrationParams(**sizes)
