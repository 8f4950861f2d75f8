"""Atlas of standard diagrams and closed-form fibration parameters.

Built-in entries, their invariants:

    name                  g  k  chi  sigma  H_1
    s4-g0                 0  0    2      0  0
    s4-g3                 3  1    2      0  0
    cp2                   1  0    3     +1  0
    cp2-mirror            1  0    3     -1  0
    s1xs3                 1  1    0      0  Z
    cp2-sum-cp2mirror     2  0    4      0  0
    s2xs2-g2-model        2  0    4      0  0

Genus-1 entries come from coprime-slope triples on the torus; the
s2xs2-g2-model entry is a genus-2 diagram whose homology matches
S^2 x S^2 (chi = 4 forces g = 2 + 3k, so genus 2 is the minimum, and
"model" records that the match is homological).  The 4-sphere entry at
genus 3 is the stabilization block.

The parameter formulas cover two fibered families: closed 4-manifolds
fibering over S^1 with fiber a closed 3-manifold of Heegaard genus h,
and surface bundles over S^2 with fiber genus f.  Both satisfy
chi = 2 + g - 3k by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, Sequence

from .diagram import LABELS, TrisectionDiagram, validate
from .intlin import _require_int
from .moves import direct_sum, stabilization_block


@dataclass(frozen=True)
class TorusTriple:
    """Three slopes on the torus, each a coprime pair (p, q)."""

    alpha: tuple[int, int]
    beta: tuple[int, int]
    gamma: tuple[int, int]

    def __post_init__(self):
        for label, (p, q) in zip(LABELS, self.slopes):
            if gcd(p, q) != 1:
                raise ValueError(f"{label} slope ({p}, {q}) is not coprime")

    @property
    def slopes(self) -> tuple[tuple[int, int], ...]:
        return (self.alpha, self.beta, self.gamma)


def torus_diagram(t: TorusTriple, name: str | None = None) -> TrisectionDiagram:
    """The genus-1 diagram with one curve of each slope."""
    return TrisectionDiagram.from_rows(
        1, [list(t.alpha)], [list(t.beta)], [list(t.gamma)], name=name
    )


def split_diagram(pieces: Sequence[TorusTriple]) -> TrisectionDiagram:
    """Direct sum of genus-1 slope diagrams, one block per triple, in order.

    One block direct sum of all the pieces' torus diagrams; no pieces
    give the genus-0 diagram.  The individual blocks need not be valid
    diagrams on their own (the stabilization block splits into three
    such triples), so no validity is required or implied here.
    """
    return direct_sum(*map(torus_diagram, pieces))


def _cp2() -> TrisectionDiagram:
    return torus_diagram(TorusTriple((1, 0), (0, 1), (1, 1)))


def _cp2_mirror() -> TrisectionDiagram:
    return torus_diagram(TorusTriple((1, 0), (0, 1), (1, -1)))


def _s1xs3() -> TrisectionDiagram:
    return torus_diagram(TorusTriple((1, 0), (1, 0), (1, 0)))


def _cp2_sum_cp2mirror() -> TrisectionDiagram:
    return direct_sum(_cp2(), _cp2_mirror())


def _s2xs2_g2_model() -> TrisectionDiagram:
    return TrisectionDiagram.from_rows(
        2,
        alpha=[[1, 0, 0, 0], [0, 1, 0, 0]],
        beta=[[0, 0, 1, 0], [0, 0, 0, 1]],
        gamma=[[0, 1, 1, 0], [1, 0, 0, 1]],
    )


_CATALOG: dict[str, Callable[[], TrisectionDiagram]] = {
    "s4-g0": direct_sum,
    "s4-g3": stabilization_block,
    "cp2": _cp2,
    "cp2-mirror": _cp2_mirror,
    "s1xs3": _s1xs3,
    "cp2-sum-cp2mirror": _cp2_sum_cp2mirror,
    "s2xs2-g2-model": _s2xs2_g2_model,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin(name: str) -> TrisectionDiagram:
    """A fresh copy of a named atlas entry, validated before returning."""
    try:
        build = _CATALOG[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise ValueError(f"unknown example {name!r}; known entries: {known}") from None
    d = replace(build(), name=name)
    report = validate(d)
    if not report.valid:  # the catalog is curated; this is a tripwire
        raise AssertionError(f"atlas entry {name} failed validation: {report.failures}")
    return d


@dataclass(frozen=True)
class FibrationParams:
    """Trisection parameters of a fibered family member.

    Construction enforces exact int sizes and chi = 2 + genus - 3 * k.
    """

    genus: int
    k: int
    chi: int

    def __post_init__(self):
        _require_int(self.genus, "genus", 0)
        _require_int(self.k, "k", 0)
        _require_int(self.chi, "chi")
        if self.chi != 2 + self.genus - 3 * self.k:
            raise ValueError(
                f"chi = {self.chi} contradicts 2 + g - 3k = "
                f"{2 + self.genus - 3 * self.k}"
            )


def mapping_torus_params(fiber_heegaard_genus: int) -> FibrationParams:
    """Parameters for a closed 4-manifold fibering over the circle.

    For fiber a closed orientable 3-manifold of Heegaard genus h, the
    construction gives genus 6h + 1 and k = 2h + 1, so chi = 0 as the
    circle factor forces.
    """
    h = fiber_heegaard_genus
    _require_int(h, "Heegaard genus", 0)
    return FibrationParams(genus=6 * h + 1, k=2 * h + 1, chi=0)


def bundle_over_s2_params(fiber_genus: int) -> FibrationParams:
    """Parameters for a closed surface bundle over the 2-sphere.

    For fiber genus f the construction gives genus 8f + 5 and
    k = 4f + 1, so chi = 4 - 4f, matching chi of a product of surfaces.
    """
    f = fiber_genus
    _require_int(f, "fiber genus", 0)
    return FibrationParams(genus=8 * f + 5, k=4 * f + 1, chi=4 - 4 * f)
