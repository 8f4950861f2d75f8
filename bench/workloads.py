"""The four benchmark workloads: seeded cases, each with its output check.

Operation ``i`` of a workload belongs to size class ``i % 3``, so the three
classes take equal shares of every run and the costs are ordered
class 0 < class 1 < class 2.  The run's median latency then falls inside
class 1 and its tail inside class 2, never on a class boundary.  Every
case of a class has the same size and atlas pieces; the seed chooses the
pieces' order, the slides and the transvections, so runs with different
seeds do about the same amount of work.

A case names its input files by key; the runner writes them and replaces
each key in ``argv`` by the file's path.  ``check(code, stdout)`` returns
None for a correct answer and a reason otherwise.  It works out the
expected output only when it is called, after the timed call, so that
the oracle's cost is part of neither an operation nor set-up.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

import recipes as R


class Case(NamedTuple):
    size_class: int
    files: dict[str, str]
    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]


def expect(code: int, stdout: Callable[[], str]):
    """Check for one exact exit code and byte-exact stdout, as ``stdout()``
    gives it."""

    def check(got_code: int, got: str):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        want = stdout()
        if got != want:
            return f"stdout differs from the recipe ({len(got)} vs {len(want)} chars)"
        return None

    return check


class Workload:
    """Cases of one workload, made from (workload name, seed, index)."""

    name = ""

    def __init__(self, seed: int, atlas: dict[str, R.Diagram]):
        self.seed = seed
        self.atlas = atlas

    def case(self, i: int) -> Case:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return self.make(rng, i % 3, i // 3)

    def make(self, rng: random.Random, size_class: int, n: int) -> Case:
        raise NotImplementedError

    def shuffled(self, rng, genus: int, slides: int, transvections: int):
        """A block sum of atlas pieces in a seeded order, then slides and
        transvections."""
        d, inv = R.assemble(R.shuffled_pieces(rng, genus), self.atlas)
        for _ in range(slides if genus > 1 else 0):
            d = R.slide(d, *R.random_slide(rng, genus))
        return R.apply_transvections(d, R.random_transvections(rng, genus, transvections)), inv


class InvariantsSparse(Workload):
    name = "invariants-sparse"
    GENUS = (6, 12, 24)
    SLIDES, TRANSVECTIONS = 20, 3

    def make(self, rng, size_class, n):
        d, inv = self.shuffled(rng, self.GENUS[size_class], self.SLIDES, self.TRANSVECTIONS)
        return Case(size_class, {"f": R.to_text(d)}, ("invariants", "f"),
                    expect(0, lambda: R.invariants_text(d, inv)))


class InvariantsDense(InvariantsSparse):
    name = "invariants-dense"
    GENUS = (3, 5, 7)
    SLIDES, TRANSVECTIONS = 0, 40


class SlideSearch(Workload):
    name = "slide-search"
    # (genus, slides r, --depth, --nodes, systems the slides use) per size
    # class.  A is s4-g3 at genus 3 and a sum of pieces at genus 4.  Class 1
    # runs out of its node budget at genus 4, where a node has 72 moves
    # instead of 36; class 2 slides gamma curves only, so a certificate
    # needs all of depths 1-2 searched first, and its cost is capped by the
    # whole of depth 3.
    CLASSES = (
        (3, 2, 2, 10000, (0, 1, 2)),
        (4, 6, 6, 2000, (0, 1, 2)),
        (3, 3, 3, 100000, (2,)),
    )

    def make(self, rng, size_class, n):
        genus, r, depth, nodes, systems = self.CLASSES[size_class]
        budget = size_class == 1
        pieces = ["s4-g3"] if genus == 3 else R.shuffled_pieces(rng, genus)
        a, _ = R.assemble(pieces, self.atlas)
        b = a
        # Outside the budget class, B must need all r slides: a shorter
        # certificate makes the search far cheaper.  Checking the systems
        # the slides used is enough for r <= 3, since a path of two slides
        # can change no other system and return it to A.
        while b == a or not budget and R.reachable(a, b, r - 1, systems):
            b, last = a, None
            for _ in range(r):
                move = R.random_slide(rng, genus, systems)
                while last is not None and move == (*last[:3], -last[3]):
                    move = R.random_slide(rng, genus, systems)
                b, last = R.slide(b, *move), move
        return Case(
            size_class,
            {"a": R.to_text(a), "b": R.to_text(b)},
            ("compare", "a", "b", "--depth", str(depth), "--nodes", str(nodes)),
            lambda code, out: check_compare(code, out, a, b, depth, budget),
        )


def check_compare(code: int, out: str, a: R.Diagram, b: R.Diagram, depth: int,
                  budget: bool):
    """A certificate must replay a onto b within ``depth`` moves; ``unknown``
    is accepted only where the node budget is meant to run out."""
    lines = out.splitlines()
    head = lines[0] if lines else ""
    if head.startswith("unknown"):
        return None if budget and code == 3 else f"unexpected unknown (exit {code})"
    if not head.startswith("slide-equivalent (") or code != 0:
        return f"unexpected verdict {head!r} (exit {code})"
    moves = lines[1:]
    if head != f"slide-equivalent ({len(moves)} moves)" or len(moves) > depth:
        return f"certificate of {len(moves)} moves under {head!r}, depth {depth}"
    d = a
    for line in moves:
        t = line.split()
        if len(t) != 9 or t[0] != "slide" or t[1::2] != ["--system", "--target", "--source", "--sign"]:
            return f"malformed move {line!r}"
        d = R.slide(d, R.LABELS.index(t[2]), int(t[4]) - 1, int(t[6]) - 1,
                    1 if t[8] == "+" else -1)
    return None if d == b else "certificate does not replay onto the second diagram"


class TransformPipeline(Workload):
    name = "transform-pipeline"
    STABILIZE = (None, 10, 12)  # stabilizations per size class above 0
    GENUS = 18  # of the inputs of class 0; a sum adds two of half that genus
    SLIDES, TRANSVECTIONS = 20, 3

    def make(self, rng, size_class, n):
        if size_class:
            return self.stabilize(rng, size_class)
        return (self.slide, self.reverse, self.sum, self.diffeo)[n % 4](rng)

    def input(self, rng, genus):
        return self.shuffled(rng, genus, self.SLIDES, self.TRANSVECTIONS)[0]

    def slide(self, rng):
        d = self.input(rng, self.GENUS)
        system, target, source, sign = R.random_slide(rng, d.genus)
        argv = ("slide", "f", "--system", R.LABELS[system], "--target", str(target + 1),
                "--source", str(source + 1), "--sign", "+" if sign > 0 else "-")
        return Case(0, {"f": R.to_text(d)}, argv,
                    expect(0, lambda: R.to_text(R.slide(d, system, target, source, sign))))

    def reverse(self, rng):
        d = self.input(rng, self.GENUS)
        return Case(0, {"f": R.to_text(d)}, ("reverse", "f"),
                    expect(0, lambda: R.to_text(R.reverse(d))))

    def sum(self, rng):
        d1, d2 = self.input(rng, self.GENUS // 2), self.input(rng, self.GENUS // 2)
        return Case(0, {"f": R.to_text(d1), "g": R.to_text(d2)}, ("sum", "f", "g"),
                    expect(0, lambda: R.to_text(R.block_sum(d1, d2))))

    def diffeo(self, rng):
        d = self.input(rng, self.GENUS)
        s = R.symplectic_matrix(d.genus, R.random_transvections(rng, d.genus, self.TRANSVECTIONS))
        return Case(0, {"f": R.to_text(d), "m": R.matrix_text(s)}, ("diffeo", "f", "--matrix", "m"),
                    expect(0, lambda: R.to_text(R.act(d, s))))

    def stabilize(self, rng, size_class):
        times = self.STABILIZE[size_class]
        d = self.atlas[rng.choice(("cp2", "s1xs3"))]

        def expected():
            out = d
            for _ in range(times):
                out = R.block_sum(out, R.STAB_BLOCK)
            return R.to_text(out)

        return Case(size_class, {"f": R.to_text(d)},
                    ("stabilize", "f", "-n", str(times)), expect(0, expected))


WORKLOADS = {w.name: w for w in (InvariantsSparse, InvariantsDense, SlideSearch, TransformPipeline)}
