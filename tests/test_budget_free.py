"""When every node within ``max_depth`` slides fits the node budget,
``compare`` answers by depth alone: it grows the per-system tree a layer
at a time and places each goal one layer short of it, by the goal's own
slides, instead of walking the product tree.

B bounds those nodes: sum((3w)^l for l = 0 .. max_depth), w = 2g(g - 1)
being the slides per system.  At max_nodes = B + 1 ``compare`` takes
this path, and at max_nodes = B it walks.  Both must give the verdict
and certificate of ``test_tree_walk.oracle_compare``, and this path
must slide no more states than the walk.  A pair whose oracle passes
``CAP`` nodes, too many to search here, is checked against the walk
instead, which ``test_tree_walk`` checks against the oracle.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import LABELS, SLIDE_EQUIVALENT, UNKNOWN, SlideMove, builtin, compare, handle_slide
from trisect.moves import _transition

from test_packed_states import _slid_over, _with_alpha_transition
from test_tree_walk import CAP, _base, _counting, _slide_word, oracle_compare


def bound(genus, max_depth):
    """B: the most nodes within max_depth slides at this genus."""
    fan = 6 * genus * (genus - 1)
    return sum(fan**layer for layer in range(max_depth + 1))


def _both(d, e, depth):
    """compare at B + 1 and at B, each against the oracle at its budget;
    returns the verdict at B + 1."""
    nodes = bound(d.genus, depth)
    free, free_calls = _counting(compare, d, e, max_depth=depth, max_nodes=nodes + 1)
    walk, walk_calls = _counting(compare, d, e, max_depth=depth, max_nodes=nodes)
    assert free_calls <= walk_calls
    count = []
    oracle_compare(d, e, max_depth=depth, max_nodes=CAP, count=count)
    if count and count[0] >= CAP:
        assert free == walk
    else:
        assert free == oracle_compare(d, e, max_depth=depth, max_nodes=nodes + 1)
        assert walk == oracle_compare(d, e, max_depth=depth, max_nodes=nodes)
    return free


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 4),
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.sampled_from((None,) + LABELS),
    st.integers(0, 4),
)
def test_depth_alone_gives_the_oracles_verdict(seed, genus, other, length, system, depth):
    d = _base(seed, genus)
    e = _slide_word(d, random.Random(other), length, system)
    for a, b in ((d, e), (e, d)):
        _both(a, b, depth)


WORDS = {
    "gamma only": (("gamma", 0, 1, 1), ("gamma", 1, 2, 1), ("gamma", 2, 0, 1)),
    "all three systems": (("gamma", 2, 1, -1), ("alpha", 0, 1, 1), ("beta", 1, 0, -1)),
    "beta only": (("beta", 0, 2, 1), ("beta", 2, 1, 1)),
    "two systems": (("alpha", 1, 0, -1), ("gamma", 0, 2, 1), ("alpha", 2, 1, 1),
                    ("gamma", 1, 0, -1)),
}


def _slid(d, word):
    for move in word:
        d = handle_slide(d, SlideMove(*move))
    return d


def test_the_path_begins_one_node_past_the_bound():
    # three gamma slides at genus 3: the walk slides 121 states at B, and
    # at B + 1 compare grows layers 0 and 1 and slides the goal once
    d = builtin("s4-g3")
    e = _slid(d, WORDS["gamma only"])
    assert bound(3, 3) == 47989
    calls = [_counting(compare, d, e, max_depth=3, max_nodes=n)[1] for n in (47989, 47990)]
    assert calls == [121, 14]
    # one slide in each system: layer 0 has one state, fewer than the
    # three goals, so compare grows it instead of sliding each goal
    e = _slid(d, WORDS["all three systems"])
    assert _counting(compare, d, e, max_depth=3, max_nodes=47990)[1] == 1


@pytest.mark.parametrize("word", WORDS.values(), ids=WORDS.keys())
def test_a_goal_at_max_depth_is_found_and_one_slide_deeper_is_not(word):
    d = builtin("s4-g3")
    e = _slid(d, word)
    for a, b in ((d, e), (e, d)):
        found = _both(a, b, len(word))
        assert found.kind == SLIDE_EQUIVALENT and len(found.certificate) == len(word)
        assert _both(a, b, len(word) - 1).kind == UNKNOWN


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_goal_whose_slides_pass_the_slot_edge(depth):
    # the walk's slots hold entries below 2^(b - 1); the goal [[1, n], [0, 1]]
    # with n = 2^(b - 1) - 1 fits them, and its slide "row 0 += row 1"
    # has the entry n + 1, which does not
    bits = max(3, min(depth + 2, (bound(2, depth) + 1).bit_length() + 1))
    n = (1 << bits - 1) - 1
    d = _base(7, 2)
    e = _slid_over(d, n)
    assert _transition(d.alpha.classes, e.alpha.classes).entries == ((1, n), (0, 1))
    assert _both(d, e, depth).kind == UNKNOWN


def _within(depth):
    """The matrices of SL(2, Z) that at most depth slides of rows make
    from the identity."""
    layer = seen = {((1, 0), (0, 1))}
    for _ in range(depth):
        layer = {
            m[:t] + (tuple(x + sign * y for x, y in zip(m[t], m[1 - t])),) + m[t + 1 :]
            for m in layer
            for t in (0, 1)
            for sign in (1, -1)
        } - seen
        seen = seen | layer
    return seen


@pytest.mark.parametrize("depth", [1, 2])
def test_every_goal_below_the_slot_edge_at_genus_two(depth):
    # every alpha transition in SL(2, Z) whose entries fit the slots, so
    # that its slides reach twice the slot's largest entry; those found are
    # the transitions within depth slides, the identity aside
    top = 1 << max(3, depth + 2) - 1
    entries = range(1 - top, top)
    d = _base(11, 2)
    found = set()
    for m in itertools.product(entries, repeat=4):
        if m[0] * m[3] - m[1] * m[2] == 1 and m != (1, 0, 0, 1):
            rows = (m[:2], m[2:])
            if _both(d, _with_alpha_transition(d, rows), depth).kind == SLIDE_EQUIVALENT:
                found.add(rows)
    assert found == _within(depth) - {((1, 0), (0, 1))}
