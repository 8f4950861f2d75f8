"""A Smith decomposition is built from (d, u, v), by position or by
keyword, so its repr evaluates back to an equal decomposition."""

import pytest

from trisect import IntMatrix, snf
from trisect.intlin import SmithDecomposition

from test_kernels import oracle_snf

GRIDS = [
    [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
    [[0, 3], [6, 9], [1, 0]],
    [[5]],
]


@pytest.mark.parametrize("grid", GRIDS)
def test_keyword_construction_names_the_transforms(grid):
    want = oracle_snf(IntMatrix(grid))
    dec = SmithDecomposition(d=want.d, u=want.u, v=want.v)
    assert (dec.d, dec.u, dec.v) == (want.d, want.u, want.v)
    assert dec == SmithDecomposition(want.d, want.u, want.v) == snf(IntMatrix(grid))


@pytest.mark.parametrize("grid", GRIDS)
def test_the_repr_of_a_smith_form_evaluates_back_to_it(grid):
    dec = snf(IntMatrix(grid))
    again = eval(repr(dec), {"SmithDecomposition": SmithDecomposition, "IntMatrix": IntMatrix})
    assert type(again) is SmithDecomposition
    assert again == dec and hash(again) == hash(dec)
