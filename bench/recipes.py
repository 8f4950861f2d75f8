"""Seeded diagram recipes and the output oracle, independent of ``trisect``.

A diagram here is a ``Diagram(genus, systems)`` whose three systems are
tuples of row tuples in the basis (x_1..x_g, y_1..y_g), the same
coordinates as the ``tris v1`` file format.  Everything the benchmark
checks is computed in this module from the recipe that built a diagram:

* (g, k, chi, sigma, H_1) are summed from the atlas pieces, using the
  atlas table of the project README (``PIECES``); slides and symplectic
  transvections preserve all of them;
* intersection matrices, slides, orientation reversal, block sums,
  stabilization and the right action of a matrix use plain integer
  arithmetic written here, never the library's.

Only the atlas pieces themselves come from the program under test, as
the text that ``trisect example <name>`` prints.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple, Sequence

Rows = tuple[tuple[int, ...], ...]
LABELS = ("alpha", "beta", "gamma")


class Invariants(NamedTuple):
    """g, k, signature and free rank of H_1; chi = 2 + g - 3k."""

    genus: int
    k: int
    sigma: int
    h1_rank: int

    @property
    def chi(self) -> int:
        return 2 + self.genus - 3 * self.k

    def __add__(self, other):
        return Invariants(*(a + b for a, b in zip(self, other)))


# The README atlas table; every H_1 there is torsion-free.
PIECES = {
    "cp2": Invariants(1, 0, 1, 0),
    "cp2-mirror": Invariants(1, 0, -1, 0),
    "s1xs3": Invariants(1, 1, 0, 1),
    "s2xs2-g2-model": Invariants(2, 0, 0, 0),
    "s4-g3": Invariants(3, 1, 0, 0),
}


class Diagram(NamedTuple):
    genus: int
    systems: tuple[Rows, Rows, Rows]


# The stabilization block as the README fixes it: alpha = (x1, x2, -x3),
# beta = (y1, y2, x3), gamma = (-x1, -y2, y3) at genus 3.
STAB_BLOCK = Diagram(3, (
    ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0)),
    ((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0)),
    ((-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0, 1)),
))


# ---- file format -------------------------------------------------------

def to_text(d: Diagram) -> str:
    """Canonical ``tris v1`` text: header, single spaces, trailing newline."""
    lines = ["tris v1", f"genus {d.genus}"]
    for label, rows in zip(LABELS, d.systems):
        lines.append(label)
        lines.extend(" ".join(map(str, r)) for r in rows)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Diagram:
    """Parse canonical or commented ``tris v1`` text; raise ValueError."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or lines[0].split() != ["tris", "v1"]:
        raise ValueError("missing 'tris v1' header")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "genus":
        raise ValueError("missing 'genus <g>' line")
    g = int(head[1])
    if len(lines) != 2 + 3 * (g + 1):
        raise ValueError(f"expected {3 * (g + 1)} lines after the header")
    systems = []
    for s, label in enumerate(LABELS):
        at = 2 + s * (g + 1)
        if lines[at] != label:
            raise ValueError(f"expected section {label!r}, found {lines[at]!r}")
        rows = tuple(tuple(int(t) for t in ln.split()) for ln in lines[at + 1:at + 1 + g])
        if any(len(r) != 2 * g for r in rows):
            raise ValueError(f"{label}: rows must have {2 * g} entries")
        systems.append(rows)
    return Diagram(g, tuple(systems))


def matrix_text(rows: Sequence[Sequence[int]]) -> str:
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


# ---- integer operations --------------------------------------------------

def omega(u: Sequence[int], v: Sequence[int]) -> int:
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def pairing(left: Rows, right: Rows) -> Rows:
    return tuple(tuple(omega(a, b) for b in right) for a in left)


def block_sum(d1: Diagram, d2: Diagram) -> Diagram:
    """d1's classes in the first x and y blocks, d2's in the second."""
    g1, g2 = d1.genus, d2.genus
    z1, z2 = (0,) * g1, (0,) * g2
    systems = tuple(
        tuple(r[:g1] + z2 + r[g1:] + z2 for r in s1)
        + tuple(z1 + r[:g2] + z1 + r[g2:] for r in s2)
        for s1, s2 in zip(d1.systems, d2.systems)
    )
    return Diagram(g1 + g2, systems)


def slide(d: Diagram, system: int, target: int, source: int, sign: int) -> Diagram:
    """row[target] += sign * row[source] in one system."""
    rows = list(d.systems[system])
    rows[target] = tuple(a + sign * b for a, b in zip(rows[target], rows[source]))
    systems = list(d.systems)
    systems[system] = tuple(rows)
    return Diagram(d.genus, tuple(systems))


def reverse(d: Diagram) -> Diagram:
    g = d.genus
    return Diagram(
        g, tuple(tuple(r[:g] + tuple(-e for e in r[g:]) for r in s) for s in d.systems)
    )


def act(d: Diagram, s: Sequence[Sequence[int]]) -> Diagram:
    """Every class times the matrix s, acting on the right."""
    cols = list(zip(*s))
    return Diagram(
        d.genus,
        tuple(
            tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in sys_)
            for sys_ in d.systems
        ),
    )


def transvect(v: Sequence[int], u: Sequence[int], c: int) -> tuple[int, ...]:
    """v -> v + c * omega(v, u) * u, a symplectic map of the lattice."""
    w = c * omega(v, u)
    return tuple(a + w * b for a, b in zip(v, u)) if w else v


def random_transvections(rng: random.Random, genus: int, count: int):
    """The recipe of ``trisect.random_symplectic``: u in {-1, 0, 1}^(2g),
    c in {1, 1, -1, -1, 2}."""
    dim = 2 * genus
    out = []
    for _ in range(count):
        u = [rng.randrange(-1, 2) for _ in range(dim)]
        if not any(u):
            u[rng.randrange(dim)] = 1
        out.append((tuple(u), rng.choice((1, 1, -1, -1, 2))))
    return out


def push(row: Sequence[int], moves) -> tuple[int, ...]:
    for u, c in moves:
        row = transvect(row, u, c)
    return tuple(row)


def apply_transvections(d: Diagram, moves) -> Diagram:
    return Diagram(d.genus, tuple(tuple(push(r, moves) for r in s) for s in d.systems))


def symplectic_matrix(genus: int, moves) -> Rows:
    """The matrix of a product of transvections: identity rows pushed through."""
    dim = 2 * genus
    return tuple(push([int(i == j) for j in range(dim)], moves) for i in range(dim))


def reachable(a: Diagram, b: Diagram, depth: int, systems: Sequence[int]) -> bool:
    """Whether slides in ``systems`` carry a onto b within ``depth`` moves."""
    g = a.genus
    moves = [(system, target, source, sign)
             for system, target, source, sign
             in itertools.product(systems, range(g), range(g), (1, -1)) if target != source]
    seen, frontier = {a}, [a]
    for _ in range(depth):
        nxt = []
        for d in frontier:
            for move in moves:
                nd = slide(d, *move)
                if nd not in seen:
                    seen.add(nd)
                    nxt.append(nd)
        frontier = nxt
    return b in seen


def random_slide(rng: random.Random, genus: int, systems: Sequence[int] = (0, 1, 2)):
    target = rng.randrange(genus)
    source = rng.randrange(genus - 1)
    source += source >= target
    return (rng.choice(systems), target, source, rng.choice((1, -1)))


# ---- recipes -------------------------------------------------------------

# The order in which pieces fill a genus: the largest first, so that
# small sums hold k > 0 pieces too.
PIECE_CYCLE = ("s4-g3", "s2xs2-g2-model", "s1xs3", "cp2", "cp2-mirror")


def shuffled_pieces(rng: random.Random, genus: int) -> list[str]:
    """Piece names whose genera add up to ``genus``, in an order drawn with
    the seed.  The pieces are taken from ``PIECE_CYCLE`` in turn, skipping
    one that does not fit, so a genus always gets the same pieces and
    cases of one size differ only in order, slides and transvections."""
    out, left = [], genus
    names = itertools.cycle(PIECE_CYCLE)
    while left:
        name = next(names)
        if PIECES[name].genus <= left:
            out.append(name)
            left -= PIECES[name].genus
    rng.shuffle(out)
    return out


def assemble(pieces: Sequence[str], atlas: dict[str, Diagram]):
    """Block sum of atlas pieces and its invariants summed from the table."""
    d = Diagram(0, ((), (), ()))
    inv = Invariants(0, 0, 0, 0)
    for name in pieces:
        d = block_sum(d, atlas[name])
        inv = inv + PIECES[name]
    return d, inv


def h1_text(rank: int) -> str:
    return "0" if rank == 0 else "Z" if rank == 1 else f"Z^{rank}"


def _fmt_matrix(rows: Rows) -> str:
    if not rows or not rows[0]:
        return "[]"
    return "[" + "; ".join(" ".join(map(str, r)) for r in rows) + "]"


def invariants_text(d: Diagram, inv: Invariants) -> str:
    """Expected stdout of ``trisect invariants`` for a valid diagram."""
    a, b, c = d.systems
    g, k = inv.genus, inv.k
    return "".join(
        line + "\n"
        for line in (
            f"g={g}",
            f"k={k}",
            f"chi={inv.chi}",
            f"sigma={inv.sigma}",
            f"H1={h1_text(inv.h1_rank)}",
            f"handles=1,{k},{g - k},{k},1",
            f"Q_alpha_beta={_fmt_matrix(pairing(a, b))}",
            f"Q_beta_gamma={_fmt_matrix(pairing(b, c))}",
            f"Q_gamma_alpha={_fmt_matrix(pairing(c, a))}",
        )
    )

