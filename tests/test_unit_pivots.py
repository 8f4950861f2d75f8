"""A unit pivot's column pass is recorded as one ``clear`` op, and the
transforms built from the record equal those of the eager elimination.

A pivot of 1 divides its whole row, which the elimination deletes with
column 0 right after, so `snf` records that row once for v instead of
clearing it entry by entry.  The oracle is `oracle_snf` in
test_kernels.py, which carries u and v through the elimination it
replaced.  The matrices are rich in unit pivots: the g x 4g system
matrices that `validate` reduces, and grids of -1, 0 and 1.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisect import IntMatrix, intersection_triple, snf
from trisect.diagram import _hstack
from trisect.intlin import SmithDecomposition, _replay

from helpers import random_valid_diagram
from test_kernels import oracle_snf, seeds


def system_matrices(seed: int) -> list[IntMatrix]:
    """[q(X, next) | q(prev, X)^T | X] for each system X of a valid diagram."""
    d = random_valid_diagram(seed, max_genus=9)
    t = intersection_triple(d)
    qs = (t.q_ab, t.q_bc, t.q_ca)
    return [_hstack(qs[i], qs[i - 1].transpose(), s.classes) for i, s in enumerate(d.systems)]


def sign_grid(rng: random.Random) -> IntMatrix:
    nr, nc = rng.randint(0, 12), rng.randint(0, 12)
    density = rng.choice((0.2, 0.5, 1.0))
    rows = [[rng.choice((-1, 1)) * (rng.random() < density) for _ in range(nc)] for _ in range(nr)]
    return IntMatrix(rows, cols=nc)


def assert_matches_the_eager_elimination(m: IntMatrix) -> list:
    """Check snf(m) against the oracle and return its column record."""
    dec = snf(m)
    col_ops = list(dec._col_ops)
    want = oracle_snf(m)
    for part in "duv":
        got, exp = getattr(dec, part), getattr(want, part)
        assert (got.shape, got.entries) == (exp.shape, exp.entries), part
    assert dec.d == dec.u @ m @ dec.v
    again = eval(repr(snf(m)), {"SmithDecomposition": SmithDecomposition, "IntMatrix": IntMatrix})
    assert again == dec
    return col_ops


@settings(max_examples=80, deadline=None)
@given(seeds)
@example(3)
def test_system_matrices_clear_unit_pivots_in_one_op(seed):
    for m in system_matrices(seed):
        col_ops = assert_matches_the_eager_elimination(m)
        # a valid diagram's system matrix has g unit invariant factors
        assert sum(op[0] == "clear" for op in col_ops) == m.rows


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_sign_grids_match_the_eager_elimination(seed):
    assert_matches_the_eager_elimination(sign_grid(random.Random(seed)))


def test_a_clear_op_replays_as_the_additions_it_stands_for():
    coefficients = (3, 0, -2, 1)
    cleared = _replay(6, [("swap", 0, 1), ("clear", 1, coefficients), ("neg", 5)])
    added = _replay(
        6,
        [("swap", 0, 1)]
        + [("add", 2 + k, 1, -c) for k, c in enumerate(coefficients) if c]
        + [("neg", 5)],
    )
    assert cleared == added
