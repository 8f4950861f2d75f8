"""``compare`` walks the breadth-first tree of the slide search by counting
nodes; it agrees with the interned-product search it replaced, computes
no more slides, and certifies with the lexicographically first shortest
slide word.

The oracle keeps the replaced search verbatim, with one addition: it
reports its node count (``len(parent)``) when it returns, so that the
budgets around the goal can be named.  The certificate order is checked
against a brute-force search over slide words on the class rows, which
uses neither the transition matrices nor the search's table.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect.moves as moves
from trisect import (
    LABELS,
    SLIDE_EQUIVALENT,
    UNKNOWN,
    SlideMove,
    builtin,
    compare,
    connect_sum,
    handle_slide,
)
from trisect.moves import (
    DISTINCT,
    IDENTICAL,
    EquivalenceVerdict,
    _INVARIANT_CHECKS,
    _all_moves,
    _transition,
)

from helpers import random_slide, random_valid_diagram, shuffle_diagram

# the oracle stops at this many nodes; a goal past it is tested at the
# budgets around the cap instead of around its node count
CAP = 3000


def oracle_compare(d1, d2, *, max_depth=3, max_nodes=10000, count=None):
    """The interned-product search replaced by the tree walk, verbatim
    apart from ``count``, which receives the node count at the return."""
    for name, fn in _INVARIANT_CHECKS:  # the first check requires validity
        a, b = fn(d1), fn(d2)
        if a != b:
            return EquivalenceVerdict(DISTINCT, invariant=name, left=a, right=b)
    if d1 == d2:
        return EquivalenceVerdict(IDENTICAL)
    # validity makes each system of d1 primitive of rank g
    transitions = [
        _transition(s.classes, t.classes) for s, t in zip(d1.systems, d2.systems)
    ]
    if any(m is None or m.det() != 1 for m in transitions):
        return EquivalenceVerdict(UNKNOWN)

    ids = {}
    states = []
    slid = []

    def intern(m):
        i = ids.get(m)
        if i is None:
            i = ids[m] = len(states)
            states.append(m)
            slid.append(None)
        return i

    def successors(i):
        out = slid[i]
        if out is None:
            out = slid[i] = [intern(m) for m in moves._slid_rows(states[i])]
        return out

    g = d1.genus
    one = intern(tuple(tuple(int(i == j) for j in range(g)) for i in range(g)))
    start = (one, one, one)
    goal = tuple(intern(m.entries) for m in transitions)
    # each visited node maps to (the node it was first reached from, move index)
    parent = {start: None}
    frontier = [start]
    for _ in range(max_depth):
        next_frontier = []
        for node in frontier:
            a, b, c = node
            children = (
                [(x, b, c) for x in successors(a)]
                + [(a, x, c) for x in successors(b)]
                + [(a, b, x) for x in successors(c)]
            )
            for k, nd in enumerate(children):
                if nd in parent:
                    continue
                parent[nd] = (node, k)
                if nd == goal:
                    if count is not None:
                        count.append(len(parent))
                    return EquivalenceVerdict(
                        SLIDE_EQUIVALENT, certificate=_oracle_certificate(parent, nd, g)
                    )
                if len(parent) >= max_nodes:
                    if count is not None:
                        count.append(len(parent))
                    return EquivalenceVerdict(UNKNOWN)
                next_frontier.append(nd)
        frontier = next_frontier
    if count is not None:
        count.append(len(parent))
    return EquivalenceVerdict(UNKNOWN)


def _oracle_certificate(parent, node, g):
    all_moves = tuple(_all_moves(g))
    path = []
    step = parent[node]
    while step is not None:
        node, k = step
        path.append(all_moves[k])
        step = parent[node]
    return tuple(reversed(path))


def _counting(search, *args, **kwargs):
    """search(*args, **kwargs) and the number of ``_slid_rows`` calls it made."""
    calls = []
    slid_rows = moves._slid_rows

    def counted(rows):
        calls.append(rows)
        return slid_rows(rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(moves, "_slid_rows", counted)
        verdict = search(*args, **kwargs)
    return verdict, len(calls)


def _base(seed, genus):
    """A random valid diagram of the given genus, at least 2."""
    d = random_valid_diagram(seed, max_genus=genus)
    while d.genus < genus:
        d = connect_sum(d, builtin("cp2"))
    return shuffle_diagram(d, random.Random(seed))


def _slide_word(d, rng, length, system):
    """d after ``length`` random slides, all in ``system`` unless it is None."""
    for _ in range(length):
        move = random_slide(rng, d.genus)
        if system is not None:
            move = SlideMove(system, move.target, move.source, move.sign)
        d = handle_slide(d, move)
    return d


systems = st.sampled_from((None,) + LABELS)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 5),
    st.integers(0, 10**6),
    st.integers(1, 4),
    systems,
    st.integers(0, 4),
)
def test_walk_matches_the_interned_product_search(
    seed, genus, other, length, system, depth
):
    d = _base(seed, genus)
    e = _slide_word(d, random.Random(other), length, system)
    for a, b in ((d, e), (e, d)):
        count = []
        found = oracle_compare(a, b, max_depth=depth, max_nodes=CAP, count=count)
        t = count[0] if count else CAP
        for budget in range(max(1, t - 2), t + 3):
            expected, oracle_calls = _counting(
                oracle_compare, a, b, max_depth=depth, max_nodes=budget
            )
            verdict, calls = _counting(compare, a, b, max_depth=depth, max_nodes=budget)
            assert verdict == expected
            assert calls <= oracle_calls
        if found.kind == SLIDE_EQUIVALENT:
            assert compare(a, b, max_depth=depth, max_nodes=t).certificate == found.certificate


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), systems)
def test_small_budgets_at_genus_two(seed, other, system):
    # at genus 2 a node has 12 moves, so budgets 1-40 cross the first
    # two layers node by node
    d = _base(seed, 2)
    e = _slide_word(d, random.Random(other), 2, system)
    for a, b in ((d, e), (e, d)):
        for budget in range(1, 41):
            assert compare(a, b, max_depth=2, max_nodes=budget) == oracle_compare(
                a, b, max_depth=2, max_nodes=budget
            )


def _rows(d):
    return tuple(s.classes.entries for s in d.systems)


def _brute_force_word(d1, d2, max_depth):
    """The lexicographically first shortest word of move indices in
    ``_all_moves`` order carrying d1's class rows onto d2's, by depth-first
    enumeration of every word of each length in turn; None past max_depth."""
    g = d1.genus
    table = [(LABELS.index(m.system), m.target, m.source, m.sign) for m in _all_moves(g)]
    goal = _rows(d2)

    def slide(rows, move):
        system, target, source, sign = move
        sys = list(rows[system])
        sys[target] = tuple(x + sign * y for x, y in zip(sys[target], sys[source]))
        out = list(rows)
        out[system] = tuple(sys)
        return tuple(out)

    def search(rows, left, word):
        if not left:
            return word if rows == goal else None
        for k, move in enumerate(table):
            hit = search(slide(rows, move), left - 1, word + (k,))
            if hit is not None:
                return hit
        return None

    for length in range(max_depth + 1):
        word = search(_rows(d1), length, ())
        if word is not None:
            return word
    return None


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.integers(0, 10**6),
    st.integers(1, 3),
    systems,
)
def test_certificate_is_the_lexicographically_first_shortest_word(
    seed, genus, other, length, system
):
    d = _base(seed, genus)
    e = _slide_word(d, random.Random(other), length, system)
    verdict = compare(d, e, max_depth=3, max_nodes=10**6)
    word = _brute_force_word(d, e, length)
    if d == e:
        assert word == ()
        return
    assert verdict.kind == SLIDE_EQUIVALENT
    all_moves = tuple(_all_moves(d.genus))
    assert verdict.certificate == tuple(all_moves[k] for k in word)
    order = [LABELS.index(m.system) for m in verdict.certificate]
    assert order == sorted(order)  # alpha moves, then beta, then gamma
