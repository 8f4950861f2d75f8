"""The fraction-free step has one home, `intlin._bareiss`, and both of its
callers are right: `IntMatrix.det` equals sympy's determinant on sparse
matrices whose zero pivots force row swaps, rank-deficient ones included,
and on a symmetric matrix `det` and `symmetric_signature` agree: det = 0
exactly when n_zero > 0, and otherwise sign(det) = (-1)**n_minus.
"""

import random

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import IntMatrix, intlin, symmetric_signature

from test_kernels import _count_calls, seeds

# mostly zeros, so that pivots vanish and rows swap; a few wide entries
ENTRIES = (0,) * 8 + (1, -1, 2, -2, 3, -5, 7, 2**40, -(2**70))


@st.composite
def sparse_squares(draw, symmetric=False):
    """An n x n matrix, n <= 8, of mostly-zero entries; when drawn
    deficient, one row (and for a symmetric matrix the matching column) is
    a combination of the others, so the rank is below n."""
    n = draw(st.integers(0, 8))
    rng = random.Random(draw(seeds))
    m = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()):
        k = rng.randrange(n)
        coeffs = [0 if i == k else rng.choice((0, 0, 1, -1, 2)) for i in range(n)]
        if symmetric:
            # clear row and column k, then take the congruence by
            # P = I + e_k coeffs^T: P m P^T is symmetric and degenerate
            m = [[0 if k in (i, j) else x for j, x in enumerate(r)] for i, r in enumerate(m)]
            p = [[int(i == j) + (coeffs[j] if i == k else 0) for j in range(n)] for i in range(n)]
            pm = [[sum(a * b for a, b in zip(r, col)) for col in zip(*m)] for r in p]
            m = [[sum(a * b for a, b in zip(r, q)) for q in p] for r in pm]
        else:
            m[k] = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(n)]
    return m


@settings(max_examples=300, deadline=None)
@given(sparse_squares())
@example([[0, 1], [1, 0]])  # a zero first pivot: one swap
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 2, 3], [0, 4, 5], [0, 6, 7]])  # a zero column: no pivot
@example([[1, 2, 3], [2, 4, 6], [1, 1, 1]])  # a zero pivot after one step
def test_det_is_sympys(m):
    assert IntMatrix(m, cols=len(m)).det() == sympy.Matrix(m).det(method="berkowitz")


@settings(max_examples=300, deadline=None)
@given(sparse_squares(symmetric=True))
@example([[0, 1], [1, 0]])  # a hyperbolic plane: one of each sign
@example([[0, 0], [0, 0]])
@example([[1, 1], [1, 1]])
def test_det_and_signature_agree_on_symmetric_forms(m):
    n = len(m)
    assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
    det = IntMatrix(m, cols=n).det()
    n_pos, n_neg, n_zero = symmetric_signature(m)
    assert n_pos + n_neg + n_zero == n
    assert (det == 0) == (n_zero > 0)
    if det:
        assert (det > 0) == (n_neg % 2 == 0)


def test_both_eliminations_step_through_one_home(monkeypatch):
    steps = _count_calls(monkeypatch, intlin, "_bareiss")
    m = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    assert m.det() == 18
    assert len(steps) == 2  # one per pivot but the last
    assert symmetric_signature(m) == (3, 0, 0)
    assert len(steps) == 5  # one per pivot
