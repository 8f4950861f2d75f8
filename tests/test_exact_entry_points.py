"""The public entry points that take raw values accept only exact ones, as
the `IntMatrix` constructor does: a form's entries are exact ints or
Fractions, a vector's coordinates and a basis index are exact ints, and
so is every size of a generated or constructed matrix.  Anything else is
a `TypeError` that names its type, raised before the value is used.
"""

import pytest

from trisect import (
    IntMatrix,
    SymplecticLattice,
    omega,
    random_symplectic,
    random_unimodular,
    symmetric_signature,
)

NOT_INTS = [1.0, True, 2.5, "1"]


@pytest.mark.parametrize("entry", ["1", 0.5, True, 1.0, None])
def test_a_form_takes_exact_int_or_fraction_entries(entry):
    want = f"^form entries must be int or Fraction, got {type(entry).__name__}$"
    with pytest.raises(TypeError, match=want):
        symmetric_signature([[entry]])
    with pytest.raises(TypeError, match=want):
        symmetric_signature([[1, 0], [0, entry]])


@pytest.mark.parametrize("coordinate", NOT_INTS)
def test_omega_takes_exact_int_coordinates(coordinate):
    want = f"^coordinates must be int, got {type(coordinate).__name__}$"
    with pytest.raises(TypeError, match=want):
        omega((coordinate, 0), (0, 1))
    with pytest.raises(TypeError, match=want):
        omega((1, 0), (0, coordinate))
    assert omega((3, 0), (0, 1)) == 3


@pytest.mark.parametrize("index", [0.5, 0.0, True, "0"])
def test_basis_vectors_take_an_exact_int_index(index):
    lat = SymplecticLattice(2)
    for name in ("x", "y"):
        with pytest.raises(TypeError, match=f"^{name} index must be int, got {type(index).__name__}$"):
            getattr(lat, name)(index)
    assert lat.x(1) == (0, 1, 0, 0) and lat.y(1) == (0, 0, 0, 1)
    with pytest.raises(IndexError, match="^x index out of range$"):
        lat.x(2)


@pytest.mark.parametrize("size", NOT_INTS)
def test_generated_matrices_take_an_exact_int_size(size):
    name = type(size).__name__
    with pytest.raises(TypeError, match=f"^size must be int, got {name}$"):
        random_unimodular(size, 0, 3)
    with pytest.raises(TypeError, match=f"^genus must be int, got {name}$"):
        random_symplectic(size, 0, 1)
    assert random_unimodular(1, 0, 3).shape == (1, 1)
    assert random_symplectic(1, 0, 1).shape == (2, 2)


@pytest.mark.parametrize("size", NOT_INTS)
def test_identity_and_zeros_take_exact_int_sizes(size):
    name = type(size).__name__
    with pytest.raises(TypeError, match=f"^size must be int, got {name}$"):
        IntMatrix.identity(size)
    with pytest.raises(TypeError, match=f"^rows must be int, got {name}$"):
        IntMatrix.zeros(size, 2)
    with pytest.raises(TypeError, match=f"^cols must be int, got {name}$"):
        IntMatrix.zeros(2, size)
    assert IntMatrix.zeros(2, 1).shape == (2, 1)
    assert IntMatrix.identity(1) == IntMatrix([[1]])
