"""`-` is entrywise subtraction in its own right: it equals adding the
negation, and a shape mismatch names `-`, not the `+` it used to route
through."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisect import IntMatrix

entries = st.integers(-(10**30), 10**30)


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    grid = st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return IntMatrix(draw(grid), cols=cols), IntMatrix(draw(grid), cols=cols)


@given(same_shape_pairs())
def test_subtraction_adds_the_negation(pair):
    m, n = pair
    assert m - n == m + (-n)
    assert (m - n).shape == m.shape


def test_a_shape_mismatch_names_the_subtraction():
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 2\) - \(2, 1\)"):
        IntMatrix([[1, 2]]) - IntMatrix([[1], [2]])
    with pytest.raises(ValueError, match=r"shape mismatch \(1, 2\) \+ \(2, 1\)"):
        IntMatrix([[1, 2]]) + IntMatrix([[1], [2]])


def test_an_int_operand_is_refused_on_either_side():
    m = IntMatrix([[1, 2]])
    with pytest.raises(TypeError):
        m - 1
    with pytest.raises(TypeError):
        1 - m
