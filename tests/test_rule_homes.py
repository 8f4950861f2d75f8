"""The slide row operation and omega's dual each have one home, and the
home agrees with the coordinate formula that every caller used to spell
out: row[target] += sign * row[source], and omega(u, v) = sum over i of
u_i v_(g+i) - u_(g+i) v_i.
"""

from hypothesis import given
from hypothesis import strategies as st

from trisect import IntMatrix, SlideMove, builtin, handle_slide, omega, pairing_matrix
from trisect.moves import _slid_row
from trisect.symplectic import _dual

ints = st.integers(-(10**20), 10**20)


@st.composite
def row_pairs(draw):
    n = draw(st.integers(0, 8))
    return draw(st.tuples(*[ints] * n)), draw(st.tuples(*[ints] * n))


@given(row_pairs(), st.sampled_from((1, -1)))
def test_a_slid_row_is_the_row_plus_sign_times_the_other(rows, sign):
    row, other = rows
    assert _slid_row(row, other, sign) == tuple(a + sign * b for a, b in zip(row, other))


@st.composite
def even_pairs(draw):
    n = 2 * draw(st.integers(0, 5))
    return draw(st.lists(ints, min_size=n, max_size=n)), draw(st.lists(ints, min_size=n, max_size=n))


@given(even_pairs())
def test_omega_is_the_coordinate_formula(vectors):
    u, v = vectors
    g = len(u) // 2
    assert omega(u, v) == sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))
    assert sum(a * b for a, b in zip(u, _dual(v))) == omega(u, v)
    assert pairing_matrix(IntMatrix([u]), IntMatrix([v])) == IntMatrix([[omega(u, v)]])


def test_handle_slide_changes_the_target_row_only():
    d = builtin("s4-g3")
    e = handle_slide(d, SlideMove("beta", 0, 2, -1))
    rows, slid = d.beta.classes.entries, e.beta.classes.entries
    assert slid[0] == tuple(a - b for a, b in zip(rows[0], rows[2]))
    assert slid[1:] == rows[1:]
    assert (e.alpha, e.gamma) == (d.alpha, d.gamma)
