"""Equivalence moves on trisection diagrams and a bounded equivalence search.

The moves that preserve the presented 4-manifold are:

  * handle slides of one curve over another within a single system,
    which act on the class matrices as integer row operations;
  * stabilization, connected sum with the standard genus-3 diagram of
    the 4-sphere, taking (g, k) to (g + 3, k + 1);
  * surface diffeomorphisms fixing the orientation, which act on
    homology through Sp(2g, Z) on the right;
  * connected sum of any number of diagrams, built as one block direct
    sum, and orientation reversal.

One validity rule covers them.  A move of one diagram validates nothing
and is defined for any diagram: ``handle_slide``,
``apply_diffeomorphism`` and ``reverse_orientation`` act on the classes
whatever they present, and so does stabilizing zero times.
``connect_sum`` (and ``stabilize``, which calls it) is the one move that
validates: it validates each input that carries no report yet, once,
because the sum carries its inputs' reports.  Commands that read facts
validate where they read them, with one carry: ``compare`` validates
its first diagram, answers an equal second diagram at once, and gives
any other second diagram of the same genus whose three systems span the
first's three lattices, every slid image among them, the first's report
with its own triple, so it validates the second only when the lattices
differ.

Each move builds its result through ``TrisectionDiagram._from_classes``
from the result's three class matrices, so a move's output carries no
atlas name.  ``direct_sum`` lives in ``diagram``, beside the report it
carries, and is re-exported here.

``compare`` searches the handle-slide orbit only, breadth-first with a
bounded budget: it never stabilizes and never searches the
diffeomorphism orbit, so its negative answers are "distinct by
invariant" (a certificate) or "unknown" (budget exhausted, or the
second diagram outside the first's slide orbit or beyond what the
budgets let the search reach), never a claim of inequivalence.  A slide
touches the classes of one system only and acts on them on the left, by
an elementary matrix E of SL(g, Z), so the slide orbit is a product of
three per-system orbits.  A system X of the
first diagram is primitive of rank g, so its slide images are the
products M @ X for M in SL(g, Z), and M is determined by M @ X.  The
search therefore runs on triples of g x g transition matrices, all
three starting at the identity.  Slides in different systems commute,
so the lexicographically first shortest slide word of a triple is its
alpha word, then its beta word, then its gamma word, each the path to
the matrix in one breadth-first tree of a single system.  The search
walks the product's breadth-first tree from that lemma alone: it grows
the one per-system tree that the systems share, counts the nodes of the
product tree instead of storing them, and finds the same nodes in the
same order as a search over diagrams would, so verdicts and
certificates are the same.  It stores each row of a transition matrix
as one int, its entries in signed slots of a width the budgets bound,
so a slide is one integer addition and a state hashes g ints.  The
width is one closed form that grows with log2 of the node budget, so a
generous budget costs what the nodes it lets the search visit cost.
When every node within max_depth slides fits the node budget, no budget
check can fire and the verdict depends on max_depth alone; the search
then skips the product walk, grows the shared tree a layer at a time,
and places each system's goal one layer short of it, by the goal's own
slides: the tree parent is the slid goal of the smallest id in the last
layer.  ``compare``'s docstring shows that those slides need no wider
slot.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import add, sub
from typing import Any, Iterator

from .diagram import (
    LABELS,
    TrisectionDiagram,
    _carry_report,
    direct_sum,
    first_homology,
    parameters,
    require_valid,
    signature,
)
from .intlin import IntMatrix, _hermite, _require_int
from .symplectic import is_symplectic


@dataclass(frozen=True)
class SlideMove:
    """Slide curve ``target`` over curve ``source`` in one system.

    Row operation: row[target] += sign * row[source], with sign +1 or -1.
    Indices are 0-based here; the CLI converts from 1-based.
    """

    system: str
    target: int
    source: int
    sign: int

    def __post_init__(self):
        if self.system not in LABELS:
            raise ValueError(f"system must be one of {LABELS}")
        _require_int(self.target, "target", 0)
        _require_int(self.source, "source", 0)
        _require_int(self.sign, "sign")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.target == self.source:
            raise ValueError("cannot slide a curve over itself")

    def inverse(self) -> "SlideMove":
        return dataclasses.replace(self, sign=-self.sign)


def handle_slide(d: TrisectionDiagram, move: SlideMove) -> TrisectionDiagram:
    """Apply one slide; the inverse move restores the diagram exactly.

    Validates nothing; defined for any diagram.
    """
    g = d.genus
    if move.target >= g or move.source >= g:
        raise IndexError(f"slide indices out of range for genus {g}")
    sys = d.system(move.system)
    rows = list(sys.classes.entries)
    rows[move.target] = _slid_row(rows[move.target], rows[move.source], move.sign)
    slid = IntMatrix._of(tuple(rows), 2 * g)
    return TrisectionDiagram._from_classes(
        g, [slid if s is sys else s.classes for s in d.systems]
    )


def _slid_row(row: tuple[int, ...], other: tuple[int, ...], sign: int) -> tuple[int, ...]:
    """row + sign * other, for sign +1 or -1: the target's row after one slide."""
    return tuple(map(add if sign > 0 else sub, row, other))


def connect_sum(*diagrams: TrisectionDiagram) -> TrisectionDiagram:
    """Connected sum of any number of valid diagrams; (g, k) and chi behave
    additively: g = g1 + ... + gn, k = k1 + ... + kn and
    chi = chi1 + ... + chin - 2(n - 1).

    Validates each input that carries no report yet, in argument order,
    then takes one direct sum; the sum carries its report, so it is never
    validated.
    """
    for d in diagrams:
        require_valid(d)
    return direct_sum(*diagrams)


# the standard genus-3 diagram of the 4-sphere, the sum of three genus-1
# diagrams (alpha, beta, gamma); validated once, at import, so that every
# stabilization carries a report
_BLOCK = direct_sum(
    TrisectionDiagram.from_rows(1, [(1, 0)], [(0, 1)], [(-1, 0)]),  # (x, y, -x)
    TrisectionDiagram.from_rows(1, [(1, 0)], [(0, 1)], [(0, -1)]),  # (x, y, -y)
    TrisectionDiagram.from_rows(1, [(-1, 0)], [(1, 0)], [(0, 1)]),  # (-x, x, y)
)
require_valid(_BLOCK)


def stabilization_block() -> TrisectionDiagram:
    """The standard genus-3 diagram of the 4-sphere used by stabilization.

    The direct sum of three genus-1 diagrams, in each of which two
    systems share a curve up to sign: coordinate 1 has alpha = -gamma,
    coordinate 2 has beta = -gamma and coordinate 3 has alpha = -beta.
    Classes: alpha = (x1, x2, -x3), beta = (y1, y2, x3),
    gamma = (-x1, -y2, y3).  Its intersection triple is exactly
    (diag(1,1,0), diag(1,0,1), diag(0,1,1)) and (g, k) = (3, 1).

    Every call returns the module's one block, built and validated once
    at import.  Diagrams are frozen values, so sharing it is safe, and it
    carries its report, so reading an invariant of it validates nothing.
    """
    return _BLOCK


def stabilize(d: TrisectionDiagram) -> TrisectionDiagram:
    """Connected sum with the standard genus-3 4-sphere diagram.

    Takes (g, k) to (g + 3, k + 1) and preserves chi, signature and
    first homology.  Validates d only if it carries no report yet; the
    result carries its report.  n stabilizations at once are one
    ``connect_sum(d, *[stabilization_block()] * n)``.
    """
    return connect_sum(d, _BLOCK)


def apply_diffeomorphism(d: TrisectionDiagram, s: IntMatrix) -> TrisectionDiagram:
    """Transform every class by a symplectic matrix acting on the right.

    Validates nothing; defined for any diagram.
    """
    if s.rows != 2 * d.genus or s.cols != 2 * d.genus:
        raise ValueError(
            f"matrix is {s.rows} x {s.cols}, diagram needs {2 * d.genus} x {2 * d.genus}"
        )
    if not is_symplectic(s):
        raise ValueError("matrix is not symplectic")
    return TrisectionDiagram._from_classes(d.genus, [sys.classes @ s for sys in d.systems])


def reverse_orientation(d: TrisectionDiagram) -> TrisectionDiagram:
    """Diagram of the oppositely oriented manifold: negate every y block.

    An involution; it negates the signature and preserves (g, k), chi
    and first homology.

    Validates nothing; defined for any diagram.  Reversal negates omega,
    so the reversed diagram has the input's system factors, pair reports
    and validity, with every non-isotropic value and the triple negated:
    a check before reversing would decide nothing that the result's own
    validation does not.
    """
    g = d.genus
    classes = []
    for sys in d.systems:
        rows = tuple(r[:g] + tuple(-e for e in r[g:]) for r in sys.classes.entries)
        classes.append(IntMatrix._of(rows, 2 * g))
    return TrisectionDiagram._from_classes(g, classes)


IDENTICAL = "identical"
SLIDE_EQUIVALENT = "slide-equivalent"
DISTINCT = "distinct-by-invariant"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a bounded comparison.

    kind is one of IDENTICAL, SLIDE_EQUIVALENT, DISTINCT, UNKNOWN.  For
    SLIDE_EQUIVALENT the certificate lists moves carrying the first
    diagram onto the second; for DISTINCT the invariant name and both
    values are recorded.  UNKNOWN means the search budget ran out, or the
    second diagram lies outside the first's slide orbit or beyond what
    the budgets let the search reach, and certifies nothing.
    """

    kind: str
    certificate: tuple[SlideMove, ...] = ()
    invariant: str | None = None
    left: Any = None
    right: Any = None


_INVARIANT_CHECKS = (
    ("(g, k)", parameters),
    ("signature", signature),
    ("first homology", first_homology),
)


def _move(system: str, k: int, g: int) -> SlideMove:
    """Slide k of one system at genus g, in ``_slid_rows`` order (target, source, sign)."""
    target, rest = divmod(k, 2 * (g - 1))
    source, minus = divmod(rest, 2)
    return SlideMove(system, target, source + (source >= target), 1 - 2 * minus)


def _all_moves(g: int) -> Iterator[SlideMove]:
    """Every slide at genus g, in move order (system, target, source, sign)."""
    return (_move(s, k, g) for s in LABELS for k in range(2 * g * (g - 1)))


def _slid_rows(rows: tuple[Any, ...]) -> Iterator[tuple[Any, ...]]:
    """The rows after each slide, in move order (target, source, sign).

    Rows are tuples of entries, or ints packing them as ``compare`` does;
    a packed row slides by one integer addition, which is ``_slid_row``
    applied slot by slot.
    """
    g = len(rows)
    for target in range(g):
        head, row, tail = rows[:target], rows[target], rows[target + 1 :]
        packed = type(row) is int
        for source in range(g):
            if target == source:
                continue
            other = rows[source]
            if packed:
                yield head + (row + other,) + tail
                yield head + (row - other,) + tail
            else:
                yield head + (_slid_row(row, other, 1),) + tail
                yield head + (_slid_row(row, other, -1),) + tail


def _transition(x1: IntMatrix, x2: IntMatrix) -> IntMatrix | None:
    """The g x g matrix M with M @ x1 == x2, or None if no integral M exists.

    x1 must be primitive of rank g, so its columns span Z^g.  The rows
    of [x1^T | x2^T] then span a lattice whose projection onto the first
    g coordinates is onto, so their Hermite form begins with the rows
    [I | N].  Row i of it is (x1 @ c, x2 @ c) for some c with x1 @ c =
    e_i, so an integral M exists iff those are all the rows, and then
    N = M^T.
    """
    g = x1.rows
    h = _hermite([a + b for a, b in zip(zip(*x1.entries), zip(*x2.entries))], 2 * g)
    if h.rows != g:
        return None
    return IntMatrix._of(tuple(zip(*(r[g:] for r in h.entries))), g)


def compare(
    d1: TrisectionDiagram,
    d2: TrisectionDiagram,
    *,
    max_depth: int = 3,
    max_nodes: int = 10000,
) -> EquivalenceVerdict:
    """Bounded equivalence check between two valid diagrams.

    After the budget checks d1 is validated, and equal diagrams are
    IDENTICAL at once, before the invariant checks and the
    lattice test below: equal classes share every fact ``validate``
    measures, so d2 is not validated and takes no report.  Otherwise
    compares invariants ((g, k), signature, first homology; chi =
    2 + g - 3k is fixed by (g, k)); any mismatch is a DISTINCT verdict.
    A signature or first-homology mismatch, or a (g, k) mismatch with
    unequal chi, certifies different manifolds, given that both diagrams
    are geometric.  A (g, k) mismatch with equal chi certifies only that
    no slides and surface diffeomorphisms relate the two diagrams: a
    stabilization changes (g, k) and keeps the manifold.  Otherwise a
    breadth-first search over handle slides from d1 looks for d2:
    max_depth bounds the certificate length and max_nodes bounds the
    number of distinct diagrams visited.  Exactly: when d2 is at most
    max_depth slides from d1, it is found iff its breadth-first index
    (d1's is 0) is below max_nodes, or max_nodes is 1 and d2 is d1's
    first child, d1 slid by ``SlideMove("alpha", 0, 1, 1)``.  The
    budgets are exact ints, max_depth at least 0 and max_nodes at least
    1, checked before anything else.  The search is deterministic, so
    equal inputs always give equal verdicts.

    When d1 and d2 differ and have the same genus, before the invariant
    checks each system of d2 is solved
    for the transition matrix M with M @ X1 == X2, X1 being d1's system.
    Then the rows of X2 span a sublattice of X1's of index |det M|.  If
    every M exists with |det M| = 1, the three lattices are d1's, and so
    are every fact ``validate`` measures and H_1 and the signature: a
    system's factors and isotropy are its lattice's, and each q becomes
    M_a @ q @ M_b^T.  A d2 that carries no report yet then takes d1's,
    with d2's own triple, whose ``_homology`` is d1's, so it is never
    validated and its invariants cost no Smith form; a d2 that does not
    span d1's lattices is validated by the checks as before.  Slides
    multiply X1 on the left by matrices of determinant 1, so if some
    system has no integral M, or an M of determinant other than +1, d2
    lies outside d1's slide orbit; the search could only run out, and
    the verdict is UNKNOWN once the invariants agree.

    A search node is a triple of g x g transition matrices, one per
    system, all three starting at the identity.  This is exact: a slide E
    takes M @ X1 to (E @ M) @ X1, and M -> M @ X1 is injective because
    X1 has rank g, so two nodes are equal iff their diagrams are, and a
    node's successors are the node with one matrix slid, in move order
    (system, target, source, sign).

    The search walks the breadth-first tree of these nodes without a
    visited set, by a lemma.  By induction on layers, breadth-first
    search finds the nodes of a layer in the lexicographic order of
    their lex-first shortest words of move indices.  Alpha moves come
    before beta moves and beta before gamma, and slides in different
    systems commute, so the word of a node (a, b, c) is w(a) w(b) w(c),
    w(x) being the path to x in the breadth-first tree of one system.
    So a node's tree parent is the node with its last move dropped, and
    its children are the tree children of its last coordinate off the
    identity, followed by the layer-1 states of each later system.  The
    three systems share one per-system tree, grown in discovery order as
    far as the walk asks for a state's children; that expands no state
    a breadth-first search keeping every visited triple would not.  The
    walk counts the nodes it finds (``seen``), stores a layer as runs of
    siblings, and only counts the last one.  The goal, looked up in the
    tree once its three matrices appear there, is found iff it is its
    parent's first child or ``seen`` plus its place among those
    children, its breadth-first index, is below max_nodes.  Every
    parent but the root is reached with ``seen`` below max_nodes, so the
    first-child clause matters only at the root, as the rule above says.
    The certificate is w(a) w(b) w(c) of the goal: the lexicographically
    first shortest slide word, alpha moves first.

    The walk stores a state's row (m_0, ..., m_(g-1)) as the int
    sum of m_j * 2^(b j), b-bit signed slots, so ``_slid_rows`` slides a
    row by one integer addition and a state hashes g ints.  Packing is
    linear, and injective on rows whose entries are below 2^(b - 1) in
    magnitude.  A slide at most doubles the largest entry, so a state at
    layer L of a system's tree has entries at most 2^L in magnitude.
    The walk starts only when some transition matrix is not the
    identity, so g >= 2: at g <= 1 a determinant-1 transition is the
    identity, and equal diagrams were answered above.  The slides "row 0
    += row 1" and "row 1 += row 0" of one system multiply its transition
    matrix by [[1, 1], [0, 1]] and [[1, 0], [1, 1]] on the first two
    rows, and these generate SL(2, N) as a free monoid (the Stern-Brocot
    tree; Graham, Knuth and Patashnik, Concrete Mathematics, section
    4.5), so their positive words are pairwise distinct matrices.  So
    layers 0 .. d of a system's tree hold at least 2^(d + 1) - 1 states,
    and product layers 0 .. d hold at least that many nodes.  The walk enters
    loop index d only with those nodes counted and ``seen`` below
    max_nodes, so only when d < max_depth and d = 0 or 2^(d + 1) <=
    max_nodes; there it expands states of layer at most d, whose
    children have entries at most 2^(d + 1).  Every such d is at most
    top = max(0, min(max_depth - 1, max_nodes.bit_length() - 2)), so b =
    top + 3, one closed form, packs every state the walk makes
    injectively, and however large max_depth is, b grows only with log2
    of max_nodes.  A goal with an entry of 2^(b - 1) or more in
    magnitude is beyond every state the walk makes, whose entries are at
    most 2^(b - 2), so the verdict is UNKNOWN at once, as for a goal
    outside the slide orbit; every other goal packs.

    The budget checks, ``seen + own + later`` and ``seen + pos``, count
    only nodes within max_depth slides, and product layer l holds at most
    (3w)^l of them, w = 2g(g - 1) being the slides per system.  So when B
    = sum((3w)^l for l = 0 .. max_depth) is below max_nodes, no check can
    fire and the verdict depends on max_depth alone: the goal is found
    iff the depths of its three matrices in the per-system tree sum to at
    most max_depth.  B is tested in closed form, and only when max_depth
    is below max_nodes.bit_length(), since B >= 2^max_depth, so a huge
    max_depth costs nothing.  Then ``compare`` does not walk.  It grows
    the shared tree one complete layer at a time, in discovery order as
    the walk does; with layers 0 .. d complete, a goal in the table is
    placed at its layer.  Otherwise a slide neighbour of the goal in the
    table lies in layer d, so the goal lies in layer d + 1; layers are
    expanded in id order, so its tree parent is its neighbour of the
    smallest id, and its move is that neighbour's index with the sign
    flipped, k ^ 1 in ``_slid_rows`` order.  A goal is slid once, and
    only while fewer goals are pending than layer d has states, and the
    verdict is UNKNOWN as soon as the placed depths plus d + 1 per
    pending goal (d + 2 once its neighbours missed) exceed max_depth;
    so no call slides more states than the walk would, and the growth
    stops one layer short of each goal.  The certificate is decoded as
    the walk's.  The goal's slides need no wider slot.  Their entries
    can reach twice the goal's, past the slots, but a row with entries
    below 2^b in magnitude packs to 0 only if it is 0, table states
    have entries of at most 2^(b - 2), and goals below 2^(b - 1).  So a
    row a slid goal shares with the goal packs like a table state's
    row only if equal to it.  Its target row is the goal's plus or minus
    one of those rows, so its entries are below 2^(b - 1) + 2^(b - 2),
    and the same holds: a slid goal packs like a table state only if it
    is that state.

    At g >= 2 the slide graph of SL(g, Z)^3 is infinite and connected
    with finite degrees, so every breadth-first layer is nonempty, and the search
    stops only at the goal, at max_nodes or at max_depth.
    """
    _require_int(max_depth, "max_depth", 0)
    _require_int(max_nodes, "max_nodes", 1)
    report = require_valid(d1)  # so each system of d1 is primitive of rank g
    if d1 == d2:  # equal classes: every fact validate measures is d1's
        return EquivalenceVerdict(IDENTICAL)
    if d1.genus == d2.genus:
        transitions = [
            _transition(s.classes, t.classes) for s, t in zip(d1.systems, d2.systems)
        ]
        dets = [None if m is None else m.det() for m in transitions]
        if all(t in (1, -1) for t in dets):
            _carry_report(report, d2)  # equal lattices: d1's facts are d2's
    for name, fn in _INVARIANT_CHECKS:  # the first check requires validity
        a, b = fn(d1), fn(d2)
        if a != b:
            return EquivalenceVerdict(DISTINCT, invariant=name, left=a, right=b)
    if any(t != 1 for t in dets):  # equal (g, k): the transitions were solved above
        return EquivalenceVerdict(UNKNOWN)

    g = d1.genus
    width = 2 * g * (g - 1)  # slides per system
    # the slot width: every state the walk makes has entries of magnitude at
    # most 2^(bits - 2), so a goal with an entry the slots cannot hold is
    # beyond its reach
    bits = max(3, min(max_depth + 2, max_nodes.bit_length() + 1))
    if any(abs(e) >= 1 << bits - 1 for m in transitions for r in m.entries for e in r):
        return EquivalenceVerdict(UNKNOWN)
    # no budget check can fire when the nodes within max_depth slides, at
    # most sum(fan^l) = (fan^(max_depth + 1) - 1) / (fan - 1), are fewer
    # than max_nodes; that sum is at least 2^max_depth
    fan = 3 * width  # a node's slides
    free = max_depth < max_nodes.bit_length() and fan ** (max_depth + 1) <= (fan - 1) * max_nodes

    def pack(rows):
        return tuple(sum(e << bits * j for j, e in enumerate(r)) for r in rows)

    one = tuple(1 << bits * i for i in range(g))  # the identity, packed
    ids = {one: 0}
    states = [one]
    up = [(0, 0)]  # per state: (tree parent, move index); the identity's is unused
    first = [1]  # an expanded state s has the children first[s] .. first[s + 1] - 1
    want = [pack(m.entries) for m in transitions]

    def grow(s):
        # expand states in discovery order through s: a state's tree parent
        # is the state whose slides found it first
        while len(first) <= s + 1:
            t = len(first) - 1
            for k, m in enumerate(_slid_rows(states[t])):
                if m not in ids:
                    ids[m] = len(states)
                    states.append(m)
                    up.append((t, k))
            first.append(len(states))

    if free:
        # the table holds layers 0 .. d, layer d from lo; at[j] is system
        # j's goal id, or (tree parent, move) one layer past the table
        at, near, reach, lo, d = [None] * 3, [None] * 3, 0, 0, 0
        while True:
            hi = len(states)
            for j, m in enumerate(want):
                if at[j] is None and m in ids:
                    at[j], reach = ids[m], reach + d
            pending = [j for j in range(3) if at[j] is None]
            if reach + len(pending) * (d + 1) > max_depth:
                return EquivalenceVerdict(UNKNOWN)
            checked = len(pending) < hi - lo  # fewer slides than the layer's
            for j in pending if checked else ():
                near[j] = near[j] or tuple(_slid_rows(want[j]))  # once per call
                hits = [(ids[m], k ^ 1) for k, m in enumerate(near[j]) if m in ids]
                if hits:  # in layer d: the first found is the tree parent
                    at[j], reach = min(hits), reach + d + 1
            pending = [j for j in pending if at[j] is None]
            if not pending:
                for j, s in enumerate(at):
                    if type(s) is tuple:
                        at[j] = len(up)
                        up.append(s)
                return EquivalenceVerdict(SLIDE_EQUIVALENT, certificate=_certificate(up, at, g))
            if reach + len(pending) * (d + 1 + checked) > max_depth:
                return EquivalenceVerdict(UNKNOWN)
            grow(hi - 1)
            lo, d = hi, d + 1

    goal = ()  # the goal's ids, once the table holds all three
    home, hx = None, -1  # the goal's tree parent: (i, base) of its run, and x

    def expand(s):
        nonlocal goal, home, hx
        grow(s)
        if not goal and all(m in ids for m in want):
            goal = tuple(ids[m] for m in want)
            p, gi = list(goal), _last(goal)
            p[gi] = up[goal[gi]][0]
            i = _last(p)
            hx, p[i] = p[i], 0
            home = (i, tuple(p))

    # A run (i, base, lo, hi) is the nodes base with coordinate i set to
    # x, for lo <= x < hi, in order; i is the nodes' last coordinate off
    # the identity, or 0 for the start, and base is 0 from coordinate i
    # on.  Such a node's children are the tree children of x in
    # coordinate i, then the layer-1 states in each later coordinate.
    seen = 1
    runs = [(0, (0, 0, 0), 0, 1)]
    for depth in range(max_depth):
        last = depth == max_depth - 1
        next_runs = []
        for i, base, lo, hi in runs:
            later = (2 - i) * width
            for x in range(lo, hi):
                if x + 1 >= len(first):
                    expand(x)
                own = first[x + 1] - first[x]
                if x == hx and home == (i, base):
                    gi = _last(goal)
                    if gi == i:
                        pos = goal[gi] - first[x]
                    else:
                        pos = own + (gi - i - 1) * width + goal[gi] - 1
                    if pos and seen + pos >= max_nodes:
                        return EquivalenceVerdict(UNKNOWN)
                    return EquivalenceVerdict(
                        SLIDE_EQUIVALENT, certificate=_certificate(up, goal, g)
                    )
                if seen + own + later >= max_nodes:
                    return EquivalenceVerdict(UNKNOWN)
                seen += own + later
                if last:
                    continue
                if own:
                    next_runs.append((i, base, first[x], first[x + 1]))
                if i < 2:
                    node = base[:i] + (x,) + base[i + 1 :]
                    next_runs += [(j, node, 1, width + 1) for j in range(i + 1, 3)]
        runs = next_runs
    return EquivalenceVerdict(UNKNOWN)


def _last(node) -> int:
    """The last coordinate of a node off the identity (state 0), or 0."""
    return 2 if node[2] else 1 if node[1] else 0


def _certificate(up, goal, g: int) -> tuple[SlideMove, ...]:
    """The lexicographically first shortest slide word reaching goal: each
    system's tree path from the identity, alpha's first, then beta's, then
    gamma's."""
    moves = []
    for system, s in zip(LABELS, goal):
        word = []
        while s:
            s, k = up[s]
            word.append(_move(system, k, g))
        moves += reversed(word)
    return tuple(moves)
