"""``compare``'s goals at the edges of the slot width it takes.

The width is b = max(3, min(max_depth + 2, max_nodes.bit_length() + 1)),
the closed form of ``compare``'s docstring.  A goal whose largest entry
is 2^(b-1) - 1 fits the slots, so ``compare`` searches for it and gives
the oracle's verdict; one with an entry of 2^(b-1) does not, so it is
``unknown`` before any slide.  ``test_packed_states`` pins the edges of
an earlier width, which at the first two budgets here is not ``compare``'s.
"""

import pytest

from trisect import UNKNOWN, builtin, compare
from trisect.moves import _transition

from test_packed_states import DEEP, _slid_over, slot_bits
from test_tree_walk import _counting, oracle_compare

# (max_depth, max_nodes), each with b at most 8: a wider b makes a goal of
# 2^(b-1) slides, which is slow to build
BUDGETS = ((DEEP, 4), (DEEP, 60), (2, 10000), (3, 10000), (DEEP, 30), (5, 1000))


def width(max_depth, max_nodes):
    return max(3, min(max_depth + 2, max_nodes.bit_length() + 1))


def test_the_widths_and_where_the_earlier_one_differs():
    assert [width(*b) for b in BUDGETS] == [4, 7, 4, 5, 6, 7]
    assert [slot_bits(*b) for b in BUDGETS[:2]] == [3, 8]


@pytest.mark.parametrize("budget", BUDGETS, ids=str)
def test_the_largest_entry_is_searched_and_the_next_is_not(budget):
    depth, nodes = budget
    top = 1 << width(depth, nodes) - 1
    d = builtin("s4-g3")
    inside, outside = _slid_over(d, top - 1), _slid_over(d, top)
    assert _transition(d.alpha.classes, outside.alpha.classes).entries[:2] == (
        (1, top, 0),
        (0, 1, 0),
    )
    verdict, calls = _counting(compare, d, inside, max_depth=depth, max_nodes=nodes)
    assert verdict == oracle_compare(d, inside, max_depth=depth, max_nodes=nodes)
    assert calls >= 1
    verdict, calls = _counting(compare, d, outside, max_depth=depth, max_nodes=nodes)
    assert verdict.kind == UNKNOWN
    assert calls == 0
