"""``compare`` stores each row of a transition matrix as one int with
signed b-bit slots; the search it runs is the interned-product search
of ``test_tree_walk.oracle_compare``, verdict and certificate, at every
budget.

``slot_bits`` keeps an earlier width, grown from a cubic lower bound on
the layer sizes: b = top + 3, top the last loop index that bound lets
the walk enter.  ``compare`` now takes the closed form of its docstring,
never narrower at these budgets, so the pinned goals sit at the edges of
the earlier width, where ``compare`` must still give the oracle's
verdicts, and one would pack, were it packed, onto a state the walk
reaches.
"""

import random
import time
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import (
    LABELS,
    SLIDE_EQUIVALENT,
    UNKNOWN,
    IntMatrix,
    SlideMove,
    TrisectionDiagram,
    builtin,
    compare,
    connect_sum,
    handle_slide,
)
from trisect.moves import _transition

from test_tree_walk import CAP, _base, _slide_word, oracle_compare

DEEP = 10**6  # a depth the node budgets, not max_depth, bound


def slot_bits(max_depth, max_nodes):
    """top + 3, top the largest d with d < max_depth and d = 0 or
    C(d + 3, 3) < max_nodes."""
    top = 0
    while top + 1 < max_depth and comb(top + 4, 3) < max_nodes:
        top += 1
    return top + 3


def _same(d, e, **budget):
    verdict = compare(d, e, **budget)
    assert verdict == oracle_compare(d, e, **budget)
    return verdict


def _slid_over(d, n, system="alpha"):
    """d with row 0 of ``system`` slid over row 1, n times: transition
    [[1, n], [0, 1]] on the first two rows."""
    for _ in range(n):
        d = handle_slide(d, SlideMove(system, 0, 1, 1))
    return d


def _with_alpha_transition(d, m):
    """d with its alpha classes multiplied on the left by m."""
    return TrisectionDiagram.from_rows(
        d.genus, (IntMatrix(m) @ d.alpha.classes).entries, d.beta.classes.entries,
        d.gamma.classes.entries,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 5),
    st.integers(0, 10**6),
    st.integers(1, 6),
    st.sampled_from((None,) + LABELS),
    st.sampled_from((1, 2, 3, 4, DEEP)),
)
def test_packed_compare_matches_the_oracle(seed, genus, other, length, system, depth):
    d = _base(seed, genus)
    e = _slide_word(d, random.Random(other), length, system)
    for a, b in ((d, e), (e, d)):
        count = []
        oracle_compare(a, b, max_depth=depth, max_nodes=CAP, count=count)
        t = count[0] if count else CAP
        for budget in {1, max(1, t - 1), t, t + 1}:
            _same(a, b, max_depth=depth, max_nodes=budget)


# (max_depth, max_nodes): b from max_depth, from max_nodes, and the least b
BUDGETS = ((2, 10000), (3, 10000), (DEEP, 30), (DEEP, 4), (1, 10000))


def test_the_widths_the_pinned_budgets_take():
    assert [slot_bits(*b) for b in BUDGETS] == [4, 5, 6, 3, 3]


def test_the_largest_entry_that_packs_and_the_first_that_does_not():
    d = _base(7, 2)
    for budget in BUDGETS:
        bits = slot_bits(*budget)
        for n in ((1 << bits - 1) - 1, 1 << bits - 1):
            e = _slid_over(d, n)
            assert _transition(d.alpha.classes, e.alpha.classes).entries == ((1, n), (0, 1))
            depth, nodes = budget
            verdict = _same(d, e, max_depth=depth, max_nodes=nodes)
            assert verdict.kind == UNKNOWN


def test_a_goal_that_would_alias_a_reached_state_is_not_found():
    # [[1 + B, -1], [1 + B + B^2, -B]] has determinant 1, and with B = 2^b
    # its rows pack to 1 and 1 + B, as do the rows of [[1, 0], [1, 1]],
    # which the walk reaches at layer 1; checked for every width near the
    # budgets' own
    d = _base(11, 2)
    reached = _with_alpha_transition(d, [[1, 0], [1, 1]])
    for depth, nodes in BUDGETS:
        assert _same(d, reached, max_depth=depth, max_nodes=nodes).kind == SLIDE_EQUIVALENT
        for bits in range(2, 12):
            big = 1 << bits
            e = _with_alpha_transition(d, [[1 + big, -1], [1 + big + big * big, -big]])
            assert _same(d, e, max_depth=depth, max_nodes=nodes).kind == UNKNOWN


def test_a_goal_at_the_deepest_layer_the_budget_allows():
    # alternate slides of row 0 over row 1 and back: Fibonacci entries
    for genus, length in ((2, 4), (3, 3)):
        d = _base(3, genus)
        e = d
        for k in range(length):
            e = handle_slide(e, SlideMove("beta", k % 2, 1 - k % 2, 1))
        count = []
        found = oracle_compare(d, e, max_depth=length, max_nodes=10**6, count=count)
        assert found.kind == SLIDE_EQUIVALENT and len(found.certificate) == length
        # found at the last layer max_depth allows, then at the last node
        # max_nodes allows, with max_depth no bound
        assert _same(d, e, max_depth=length, max_nodes=10**6) == found
        assert _same(d, e, max_depth=DEEP, max_nodes=count[0]) == found
        assert _same(d, e, max_depth=length - 1, max_nodes=10**6).kind == UNKNOWN
        assert _same(d, e, max_depth=DEEP, max_nodes=count[0] - 1).kind == UNKNOWN


def test_a_huge_depth_costs_what_the_node_budget_lets_the_walk_reach():
    # the width comes from the layers max_nodes lets the walk enter, not
    # from max_depth, which would give a million bits a slot; with
    # min(max_depth, max_nodes), 100,002 bits, the call takes about 90
    # times as long as with a bound from max_nodes (1.8 s against 0.02 s
    # on a 3.11 interpreter)
    d = connect_sum(builtin("cp2"), builtin("s4-g3"))
    rng = random.Random(4)
    e = d
    for _ in range(12):
        target, source = rng.sample(range(4), 2)
        e = handle_slide(e, SlideMove(rng.choice(LABELS), target, source, rng.choice((1, -1))))
    want = compare(d, e, max_depth=50, max_nodes=100_000)
    start = time.perf_counter()
    verdict = compare(d, e, max_depth=10**6, max_nodes=100_000)
    assert time.perf_counter() - start < 0.5
    assert verdict == want
