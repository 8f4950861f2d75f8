"""A slide index decodes through `moves._move` to the slide that
`moves._slid_rows` makes at that index.

The tree walk of `compare` stores each state's move as its index among
the `_slid_rows` outputs, and `_certificate` decodes it through `_move`;
`_all_moves` enumerates `_move`.  So these checks pin the one move order
(system, target, source, sign) that the walk, its certificates and the
reference enumeration share, directly and at every index, up to genus 6.
"""

import random

import pytest

from trisect.diagram import LABELS
from trisect.moves import SlideMove, _all_moves, _move, _slid_row, _slid_rows


def seeded_rows(g: int, seed: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(seed)
    return tuple(tuple(rng.randint(-9, 9) for _ in range(2 * g)) for _ in range(g))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("g", range(2, 7))
def test_the_kth_slid_rows_are_the_rows_after_move_k(g, seed):
    rows = seeded_rows(g, seed)
    out = list(_slid_rows(rows))
    assert len(out) == 2 * g * (g - 1)
    # distinct outputs, so a wrong target, source or sign cannot match
    assert len(set(out)) == len(out)
    for system in LABELS:
        for k, want in enumerate(out):
            move = _move(system, k, g)
            assert move.system == system
            got = list(rows)
            got[move.target] = _slid_row(rows[move.target], rows[move.source], move.sign)
            assert tuple(got) == want


@pytest.mark.parametrize("g", range(7))
def test_all_moves_lists_every_slide_once_in_move_order(g):
    want = [
        SlideMove(system, target, source, sign)
        for system in LABELS
        for target in range(g)
        for source in range(g)
        if target != source
        for sign in (1, -1)
    ]
    assert list(_all_moves(g)) == want
