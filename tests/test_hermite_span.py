"""``intlin._hermite`` takes dependent rows: its result is the Hermite
form of the lattice the rows span.

``moves._transition`` passes the 2g columns of two rank-g class
matrices, so half of its rows, or more, depend on the others.  Here r
independent rows R, the first rows of a random unimodular matrix, are
mixed with integer combinations of them, zero rows and repeats, and
shuffled; the result must be the Hermite form of R alone.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import SlideMove, builtin, handle_slide, random_unimodular
from trisect.intlin import _hermite


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_dependent_rows_give_the_form_of_their_span(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    r = rng.randint(0, n)
    independent = [list(row) for row in random_unimodular(n, seed, rng.randint(0, 12)).entries[:r]]
    rows = [list(row) for row in independent]
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.randrange(3)
        if kind == 0 and r:  # an integer combination
            coefs = [rng.randint(-3, 3) for _ in range(r)]
            rows.append([sum(c * row[j] for c, row in zip(coefs, independent)) for j in range(n)])
        elif kind == 1:  # a zero row
            rows.append([0] * n)
        elif rows:  # a repeat
            rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    want = _hermite(independent, n)
    assert want.rows == r
    assert _hermite(rows, n) == want


def test_a_transition_solve_passes_dependent_rows():
    d1 = builtin("s4-g3")
    d2 = handle_slide(d1, SlideMove("alpha", 0, 1, 1))
    x1, x2 = d1.alpha.classes, d2.alpha.classes
    rows = [a + b for a, b in zip(zip(*x1.entries), zip(*x2.entries))]
    assert len(rows) == 6 and sum(not any(row) for row in rows) == 3
    h = _hermite(rows, 6)
    assert h.rows == 3
    assert [row[:3] for row in h.entries] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
