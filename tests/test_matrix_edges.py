"""A matrix with no rows keeps its width through repr, and `submatrix`
takes only bounds inside the matrix."""

import pytest

from trisect import IntMatrix, snf
from trisect.intlin import SmithDecomposition

NAMES = {"IntMatrix": IntMatrix, "SmithDecomposition": SmithDecomposition}
NO_ROWS = [IntMatrix([], cols=k) for k in range(4)] + [IntMatrix.zeros(0, 5)]


@pytest.mark.parametrize("m", NO_ROWS, ids=lambda m: f"0x{m.cols}")
def test_the_repr_of_a_matrix_with_no_rows_evaluates_back_to_it(m):
    again = eval(repr(m), NAMES)
    assert again == m and again.shape == (0, m.cols)
    dec = snf(m)
    assert eval(repr(dec), NAMES) == dec


M = IntMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "bounds, error, message",
    [
        ((2, 2, 0, 10), IndexError, r"submatrix \[2:2, 0:10\] out of range for shape \(2, 2\)"),
        ((0, 5, 0, 2), IndexError, r"submatrix \[0:5, 0:2\] out of range for shape \(2, 2\)"),
        ((0, 1, 0, 10), IndexError, r"submatrix \[0:1, 0:10\] out of range for shape \(2, 2\)"),
        ((-1, 2, 0, 2), ValueError, "r0 must be nonnegative"),
        ((0, 2, 1, 0), ValueError, "c1 must be >= 1"),
        ((1, 0, 0, 2), ValueError, "r1 must be >= 1"),
        ((0, 2, -1, 1), ValueError, "c0 must be nonnegative"),
        ((0, 2.0, 0, 2), TypeError, "r1 must be int, got float"),
        ((0, 2, True, 2), TypeError, "c0 must be int, got bool"),
    ],
)
def test_submatrix_refuses_bounds_outside_the_matrix(bounds, error, message):
    with pytest.raises(error, match=message):
        M.submatrix(*bounds)


@pytest.mark.parametrize(
    "bounds, entries",
    [((2, 2, 0, 2), ()), ((0, 2, 2, 2), ((), ())), ((1, 1, 1, 1), ())],
)
def test_submatrix_takes_empty_slices_at_the_edge(bounds, entries):
    r0, r1, c0, c1 = bounds
    sub = M.submatrix(*bounds)
    assert sub.entries == entries and sub.shape == (r1 - r0, c1 - c0)
