"""A zero row of a symmetric form is also a zero column, so a radical
vector: `symmetric_signature` counts each one in n_zero before it
eliminates, and spends no fraction-free step on it.

The oracle is the rational elimination of test_lazy_transforms.py, run on
the form before its zero rows and columns are inserted.
"""

import random

from trisect import IntMatrix, intlin, symmetric_signature

from test_kernels import _count_calls
from test_lazy_transforms import oracle_symmetric_signature, symmetric_forms


def with_zero_rows(grid, rng, z):
    """``grid`` with z zero rows and columns inserted at random places,
    and the set of their indices."""
    n = len(grid) + z
    zeros = set(rng.sample(range(n), z))
    old = iter(range(len(grid)))
    where = [None if i in zeros else next(old) for i in range(n)]
    padded = [[0 if a is None or b is None else grid[a][b] for b in where] for a in where]
    return padded, zeros


def test_zero_rows_are_counted_and_take_no_elimination_step(monkeypatch):
    calls = _count_calls(monkeypatch, intlin, "_bareiss")
    rng = random.Random(36)
    steps = 0
    for _ in range(200):
        n, z = rng.randint(1, 12), rng.randint(1, 5)
        for grid in symmetric_forms(rng, n):
            n_pos, n_neg, n_zero = oracle_symmetric_signature(grid)
            padded, zeros = with_zero_rows(grid, rng, z)
            for form in (padded, IntMatrix(padded)):
                calls.clear()
                assert symmetric_signature(form) == (n_pos, n_neg, n_zero + z)
                # one step per pivot, none of them over an inserted row
                assert len(calls) == n_pos + n_neg
                assert all(zeros.isdisjoint(rest) for _, _, rest, _ in calls)
                steps += len(calls)
    assert steps > 1000
