"""The slide search of ``compare`` on interned per-system states agrees with
the diagram-per-node breadth-first search it replaced, and expanding a node
builds no matrices.

The oracle keeps the replaced search verbatim: every move at every node
applies ``handle_slide`` and the visited set holds whole diagrams.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import trisect.moves
from trisect import (
    IDENTICAL,
    SLIDE_EQUIVALENT,
    UNKNOWN,
    IntMatrix,
    SlideMove,
    builtin,
    compare,
    connect_sum,
    handle_slide,
)
from trisect.moves import (
    DISTINCT,
    EquivalenceVerdict,
    _INVARIANT_CHECKS,
    _all_moves,
)

from helpers import random_slide, random_valid_diagram

MAX_GENUS = 4
ATLAS = ("s4-g3", "cp2-sum-cp2mirror", "s2xs2-g2-model")


def reference_compare(d1, d2, *, max_depth=3, max_nodes=10000):
    for name, fn in _INVARIANT_CHECKS:  # the first check requires validity
        a, b = fn(d1), fn(d2)
        if a != b:
            return EquivalenceVerdict(DISTINCT, invariant=name, left=a, right=b)
    if d1 == d2:
        return EquivalenceVerdict(IDENTICAL)

    visited = {d1}
    frontier = [(d1, ())]
    nodes = 1
    for _ in range(max_depth):
        next_frontier = []
        for d, path in frontier:
            for move in _all_moves(d.genus):
                nd = handle_slide(d, move)
                if nd in visited:
                    continue
                visited.add(nd)
                nodes += 1
                if nd == d2:
                    return EquivalenceVerdict(
                        SLIDE_EQUIVALENT, certificate=path + (move,)
                    )
                if nodes >= max_nodes:
                    return EquivalenceVerdict(UNKNOWN)
                next_frontier.append((nd, path + (move,)))
        frontier = next_frontier
        if not frontier:
            break
    return EquivalenceVerdict(UNKNOWN)


def _base(source):
    kind, key = source
    if kind == "atlas":
        return builtin(key)
    d = random_valid_diagram(key, max_genus=MAX_GENUS)
    if d.genus < 2:  # genus 1 has no slides
        d = connect_sum(d, builtin("cp2"))
    return d


sources = st.one_of(
    st.tuples(st.just("atlas"), st.sampled_from(ATLAS)),
    st.tuples(st.just("random"), st.integers(0, 10**6)),
)


@settings(max_examples=120, deadline=None)
@given(
    sources,
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(0, 3),
    st.sampled_from((1, 2, 3, 10, 100, 1000)),
)
def test_search_matches_the_diagram_per_node_search(source, seed, slides, depth, budget):
    d = _base(source)
    rng = random.Random(seed)
    slid = d
    for _ in range(slides):
        slid = handle_slide(slid, random_slide(rng, d.genus))
    for a, b in ((slid, d), (d, slid)):
        expected = reference_compare(a, b, max_depth=depth, max_nodes=budget)
        assert compare(a, b, max_depth=depth, max_nodes=budget) == expected


@settings(max_examples=20, deadline=None)
@given(sources, st.integers(0, 10**6))
def test_every_budget_up_to_the_one_slide_certificate(source, seed):
    # one slide away, the goal is among the first 6g(g-1) new nodes, so
    # some budget in this range equals the node count at which it is found
    d = _base(source)
    slid = handle_slide(d, random_slide(random.Random(seed), d.genus))
    for budget in range(1, 6 * d.genus * (d.genus - 1) + 3):
        expected = reference_compare(slid, d, max_depth=2, max_nodes=budget)
        assert compare(slid, d, max_depth=2, max_nodes=budget) == expected


def _three_gamma_slides_apart():
    d = builtin("s4-g3")
    b = d
    for move in (
        SlideMove("gamma", 0, 1, 1),
        SlideMove("gamma", 1, 2, 1),
        SlideMove("gamma", 2, 0, 1),
    ):
        b = handle_slide(b, move)
    return d, b


def _count_work(monkeypatch, max_nodes):
    d, b = _three_gamma_slides_apart()  # fresh objects: no cached report
    counts = {"slides": 0, "matrices": 0}
    slide, init = trisect.moves.handle_slide, IntMatrix.__init__

    def counting_slide(*args, **kwargs):
        counts["slides"] += 1
        return slide(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["matrices"] += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(trisect.moves, "handle_slide", counting_slide)
        m.setattr(IntMatrix, "__init__", counting_init)
        verdict = compare(d, b, max_depth=3, max_nodes=max_nodes)
    return verdict, counts


def test_node_expansion_builds_no_matrices(monkeypatch):
    small, small_counts = _count_work(monkeypatch, 10)
    large, large_counts = _count_work(monkeypatch, 100000)
    assert small.kind == UNKNOWN
    assert large.kind == SLIDE_EQUIVALENT and len(large.certificate) == 3
    assert small_counts == large_counts
