"""Trisection diagrams at the homology level, their validation and invariants.

A genus-g diagram stores, for each of the three systems alpha, beta and
gamma, the g homology classes of its curves on the closed genus-g
surface, as rows of a g x 2g integer matrix in the (x, y) basis of the
symplectic lattice.

Validation checks the complete homological necessary conditions for each
pair of systems to present a connected sum of k copies of S^1 x S^2:

  * each system must be a Lagrangian basis (full rank, primitive,
    pairwise omega-orthogonal);
  * each pairwise intersection matrix q must have all nonzero invariant
    factors equal to 1;
  * the first homology of the double determined by each pair must be
    free of rank k = g - rank(q);
  * the three per-pair values of k must agree.

Past the per-system checks, everything is read off the intersection
triple (Feller, Klug, Schirmer and Zemke, PNAS 2018, arXiv:1711.04762):
the double of a pair with at least one Lagrangian system has H_1 =
coker(q), so the stacked 2g x 2g class matrix is reduced only to diagnose
a pair in which both systems fail;
H_1 of the manifold is coker[q_ba; q_ca]; and the signature is that of
-Z @ q_cb @ Y^T, where [Y | Z] spans the left kernel of [q_ba; q_ca].
Both come from one Smith form of [q_ba; q_ca], taken once per diagram
and cached on the triple of its report.

Every pairing ``validate`` reads comes from one exact product, the 3g x
3g Gram matrix G = S @ J @ S^T of the stacked classes S = [alpha; beta;
gamma], so G[i][j] = omega(s_i, s_j).  G is antisymmetric: for S = [X |
Y] it is P - P^T with P = X @ Y^T, a product of inner length g that
`pairing_matrix` forms.  Its off-diagonal blocks (1, 2),
(2, 3) and (3, 1) are q_ab, q_bc and q_ca; the upper triangle of a
diagonal block holds a system's self-pairings, which isotropy asks to
vanish; and the rows of G for two systems are the pairings of their
stack with all three systems.

The class matrices' invariant factors are read off widened matrices.
For any integer W with a right inverse R, X @ W has the invariant
factors of X, because X @ W and X = (X @ W) @ R have the same column
lattice.  A system X is reduced as [q(X, next) | q(prev, X)^T | X] =
X @ [J next^T | -J prev^T | I], and a stacked pair S as [q(S, alpha) |
q(S, beta) | q(S, gamma) | S].  The intersection numbers in front stay
small on dense diagrams, so the Smith form clears them with unit pivots
before it reaches the classes, whose coefficients would otherwise blow
up.

A report stores only what validation measured: for each system the
invariant factors of its class matrix and its first non-isotropic pair,
for each pair the invariant factors of q and of its double's
presentation, and the triple.  Every verdict, k, chi and failure line is
a property derived from those facts, so no two parts of a report can
disagree, and ``direct_sum`` gives a sum of valid diagrams the facts of
a valid diagram instead of restated verdicts.

Every diagram, whether parsed, built by a move or summed, is assembled
by ``TrisectionDiagram._from_classes`` from its three class matrices.

These conditions are necessary but not sufficient: deciding whether a
Heegaard diagram really presents a connected sum of copies of S^1 x S^2
is out of reach at the homology level, so a passing report means "no
homological obstruction", not a geometric certificate.  Reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

from .intlin import IntMatrix, _require_int, invariant_factors
from .symplectic import LagrangianSublattice, _first_nonzero, pairing_matrix, triple_homology

ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"
LABELS = (ALPHA, BETA, GAMMA)
PAIRS = ("alpha-beta", "beta-gamma", "gamma-alpha")


def _named(items: Sequence, names: Sequence[str], name: str, kind: str):
    """items[i] for the name names[i]; an unknown name is a ValueError naming its kind."""
    try:
        return items[names.index(name)]
    except ValueError:
        raise ValueError(f"unknown {kind} {name!r}") from None


@dataclass(frozen=True)
class CurveSystem:
    """One system of g curve classes on the genus-g surface.

    ``classes`` is g x 2g; row i is the class of the i-th curve in the
    basis (x_1..x_g, y_1..y_g).  No validity is imposed here beyond the
    shape: invalid systems must remain representable so that validation
    can describe what is wrong with them.
    """

    genus: int
    classes: IntMatrix
    label: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        _require_int(self.genus, "genus", 0)
        if self.classes.rows != self.genus or self.classes.cols != 2 * self.genus:
            raise ValueError(
                f"{self.label}: classes must be {self.genus} x {2 * self.genus}, "
                f"got {self.classes.rows} x {self.classes.cols}"
            )


@dataclass(frozen=True)
class TrisectionDiagram:
    """Three curve systems of a common genus.

    The optional ``name`` tags atlas entries and is ignored by equality
    and hashing: two diagrams are equal iff their class matrices are.
    """

    genus: int
    alpha: CurveSystem
    beta: CurveSystem
    gamma: CurveSystem
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        _require_int(self.genus, "genus", 0)
        for sys, label in zip((self.alpha, self.beta, self.gamma), LABELS):
            if sys.label != label:
                raise ValueError(f"system in slot {label} is labeled {sys.label!r}")
            if sys.genus != self.genus:
                raise ValueError(
                    f"{label} has genus {sys.genus}, diagram has genus {self.genus}"
                )

    @classmethod
    def from_rows(
        cls,
        genus: int,
        alpha: Sequence[Sequence[int]],
        beta: Sequence[Sequence[int]],
        gamma: Sequence[Sequence[int]],
        name: str | None = None,
    ) -> "TrisectionDiagram":
        _require_int(genus, "genus", 0)
        classes = (IntMatrix(rows, cols=2 * genus) for rows in (alpha, beta, gamma))
        return cls._from_classes(genus, classes, name)

    @classmethod
    def _from_classes(
        cls, genus: int, classes: Iterable[IntMatrix], name: str | None = None
    ) -> "TrisectionDiagram":
        """The diagram with the three class matrices ``classes``, in ``LABELS`` order.

        Every diagram is assembled here: ``from_rows``, the moves and
        ``direct_sum`` build through it, and it runs the checks of the
        public ``CurveSystem`` and ``TrisectionDiagram`` constructors.  A
        lazy ``classes`` is read one system at a time, so each matrix is
        made and checked before the next.
        """
        systems = [CurveSystem(genus, m, label) for m, label in zip(classes, LABELS)]
        return cls(genus, *systems, name=name)

    @property
    def systems(self) -> tuple[CurveSystem, CurveSystem, CurveSystem]:
        return (self.alpha, self.beta, self.gamma)

    def system(self, label: str) -> CurveSystem:
        return _named(self.systems, LABELS, label, "system label")

    @cached_property
    def _report(self) -> "ValidationReport":
        return validate(self)


@dataclass(frozen=True)
class IntersectionTriple:
    """The three pairwise intersection matrices (q_ab, q_bc, q_ca)."""

    q_ab: IntMatrix
    q_bc: IntMatrix
    q_ca: IntMatrix

    @cached_property
    def _homology(self) -> tuple[tuple[int, ...], int]:
        """(invariant factors of [q_ba; q_ca], signature) of a valid diagram's
        triple, computed on first read from one Smith form."""
        return triple_homology(self.q_ab, self.q_bc, self.q_ca)


@dataclass(frozen=True)
class SystemReport:
    """Lagrangian checks for one curve system, read off what ``validate`` measured.

    ``factors`` are the invariant factors of the g x 2g class matrix X,
    read off the g x 4g matrix [q(X, next) | q(prev, X)^T | X], which has
    the same ones (module docstring); ``nonisotropic`` is the first (i,
    j, omega) with a nonzero pairing, or None.  Every verdict is a
    property of these two facts.
    """

    label: str
    factors: tuple[int, ...]
    nonisotropic: tuple[int, int, int] | None

    @property
    def full_rank(self) -> bool:
        return all(self.factors)

    @property
    def primitive(self) -> bool:
        return all(e == 1 for e in self.factors)

    @property
    def isotropic(self) -> bool:
        return self.nonisotropic is None

    @property
    def ok(self) -> bool:
        # every factor 1 means full rank too
        return self.primitive and self.isotropic

    @property
    def failures(self) -> list[str]:
        out, label, facs = [], self.label, self.factors
        if not self.full_rank:
            rank = sum(1 for e in facs if e)
            out.append(f"{label}: rows are dependent (rank {rank} of {len(facs)})")
        elif not self.primitive:
            out.append(
                f"{label}: span is not primitive (invariant factors {_fmt_factors(facs)})"
            )
        if not self.isotropic:
            i, j, val = self.nonisotropic
            out.append(
                f"{label}: not isotropic, omega({label}_{i + 1}, {label}_{j + 1}) = {val}"
            )
        return out


@dataclass(frozen=True)
class PairReport:
    """Homological S^1 x S^2 connected-sum checks for one pair of systems.

    ``q_factors`` are the invariant factors of the pair's g x g
    intersection matrix q.  ``double_factors`` are those of the double's
    H_1: q's own factors when either system is Lagrangian, since H_1 is
    then coker(q), and otherwise those of the stacked 2g x 2g class
    matrix S, read off the 2g x 5g matrix [q(S, alpha) | q(S, beta) |
    q(S, gamma) | S] with the same ones (module docstring).  Both tuples
    end in one zero per free rank, so ``k`` and
    ``double_rank`` count zeros; every verdict is a property.
    """

    pair: str
    q_factors: tuple[int, ...]
    double_factors: tuple[int, ...]

    @property
    def unit_factors(self) -> bool:
        return all(e in (0, 1) for e in self.q_factors)

    @property
    def double_free(self) -> bool:
        return all(e in (0, 1) for e in self.double_factors)

    @property
    def double_rank(self) -> int:
        return self.double_factors.count(0)

    @property
    def k(self) -> int:
        return self.q_factors.count(0)

    @property
    def ok(self) -> bool:
        return self.unit_factors and self.double_free and self.double_rank == self.k

    @property
    def failures(self) -> list[str]:
        out, pair = [], self.pair
        if not self.unit_factors:
            out.append(
                f"{pair}: intersection matrix has non-unit invariant factors "
                f"{_fmt_factors(self.q_factors)}"
            )
        if not self.double_free:
            torsion = tuple(e for e in self.double_factors if e > 1)
            out.append(f"{pair}: double has torsion {_fmt_factors(torsion)}")
        elif self.double_rank != self.k:
            out.append(f"{pair}: double has rank {self.double_rank}, expected k = {self.k}")
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of all homological checks: the facts ``validate`` measured.

    The report stores the genus, the three system and pair reports and
    the intersection triple; ``valid``, ``k_agree``, ``k``, ``euler`` and
    ``failures`` are derived from them, so no two can disagree.  ``k``
    and ``euler`` are None unless the diagram is valid.  A valid report
    asserts the absence of homological obstructions, not a geometric
    equivalence; ``lines()`` states that scope explicitly.
    """

    genus: int
    systems: tuple[SystemReport, SystemReport, SystemReport]
    pairs: tuple[PairReport, PairReport, PairReport]
    triple: IntersectionTriple

    @property
    def k_agree(self) -> bool:
        return len({p.k for p in self.pairs}) <= 1

    @cached_property  # read for every summand a sum carries its report from
    def valid(self) -> bool:
        return all(part.ok for part in self.systems + self.pairs) and self.k_agree

    @property
    def k(self) -> int | None:
        return self.pairs[0].k if self.valid else None

    @property
    def euler(self) -> int | None:
        return 2 + self.genus - 3 * self.k if self.valid else None

    @property
    def failures(self) -> tuple[str, ...]:
        out = [f for part in self.systems + self.pairs for f in part.failures]
        if not self.k_agree:
            out.append(
                "per-pair k values disagree: "
                + ", ".join(f"{p.pair} gives {p.k}" for p in self.pairs)
            )
        return tuple(out)

    def system(self, label: str) -> SystemReport:
        return _named(self.systems, LABELS, label, "system label")

    def pair(self, name: str) -> PairReport:
        return _named(self.pairs, PAIRS, name, "pair")

    def lines(self) -> list[str]:
        out = [f"genus {self.genus}"]
        for s in self.systems:
            marks = []
            marks.append("full rank" if s.full_rank else "RANK DEFICIENT")
            marks.append("primitive" if s.primitive else "NOT PRIMITIVE")
            marks.append("isotropic" if s.isotropic else "NOT ISOTROPIC")
            out.append(f"system {s.label}: " + ", ".join(marks))
        for p in self.pairs:
            facs = ",".join(str(f) for f in p.q_factors) or "-"
            state = "ok" if p.ok else "FAIL"
            out.append(
                f"pair {p.pair}: q factors ({facs}), double rank {p.double_rank}"
                f"{'' if p.double_free else ' with torsion'}, k {p.k}: {state}"
            )
        if not self.k_agree:
            out.append("per-pair k values disagree")
        if self.valid:
            out.append(f"result: VALID, (g, k) = ({self.genus}, {self.k}), chi = {self.euler}")
        else:
            out.append("result: INVALID")
            for f in self.failures:
                out.append(f"  fail: {f}")
        out.append(
            "scope: homological necessary conditions only; geometric "
            "standardness of the pieces is not certified"
        )
        return out


class InvalidDiagramError(ValueError):
    """Raised when an operation requires a valid diagram but the checks fail."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(
            "invalid trisection diagram: " + "; ".join(report.failures)
        )


def validate(d: TrisectionDiagram) -> ValidationReport:
    """Measure every homological check and return the report of the facts.

    Every pairing is read off one product, the Gram matrix G of the
    stacked classes (`_gram`), formed as P - P^T from one product P of
    inner length g: the triple is its off-diagonal blocks, a
    system's first non-isotropic pair is the first nonzero entry of its
    diagonal block's upper triangle, found by the scan that
    `first_nonisotropic` runs, and a pair of failing systems is
    reduced with its rows of G in front.  Each class matrix is reduced
    with its intersection numbers in front, which keeps its invariant
    factors (module docstring) and spares the Smith form the classes'
    blow-up.
    """
    g = d.genus
    gram = _gram(d)
    triple = _triple(gram, g)
    qs = (triple.q_ab, triple.q_bc, triple.q_ca)
    systems = tuple(
        SystemReport(
            s.label,
            invariant_factors(_hstack(qs[i], qs[i - 1].transpose(), s.classes)),
            _first_nonzero(gram[k][k + 1 : i * g + g] for k in range(i * g, i * g + g)),
        )
        for i, s in enumerate(d.systems)
    )
    pairs = []
    for pair, (l, r), q in zip(PAIRS, ((0, 1), (1, 2), (2, 0)), qs):
        q_factors = invariant_factors(q)
        if systems[l].ok or systems[r].ok:  # the double's H_1 is coker(q)
            double_factors = q_factors
        else:  # [q(S, alpha) | q(S, beta) | q(S, gamma) | S] for S = [l; r]
            stacked = d.systems[l].classes.vstack(d.systems[r].classes)
            paired = IntMatrix._of(gram[l * g : (l + 1) * g] + gram[r * g : (r + 1) * g], 3 * g)
            double_factors = invariant_factors(_hstack(paired, stacked))
        pairs.append(PairReport(pair, q_factors, double_factors))
    return ValidationReport(g, systems, tuple(pairs), triple)


def _gram(d: TrisectionDiagram) -> tuple[tuple[int, ...], ...]:
    """G = S @ J @ S^T for the stacked 3g x 2g classes S = [alpha; beta;
    gamma], as one `pairing_matrix` product: G[i][j] = omega(s_i, s_j).
    S is paired with itself, so G is P - P^T for the 3g x 3g product P =
    X @ Y^T of S = [X | Y], whose inner length is g."""
    s = IntMatrix._of(sum((c.classes.entries for c in d.systems), ()), 2 * d.genus)
    return pairing_matrix(s, s).entries


def _triple(gram: Sequence[tuple], g: int) -> IntersectionTriple:
    """The triple as blocks (1, 2), (2, 3) and (3, 1) of the Gram matrix."""

    def block(r: int, c: int) -> IntMatrix:
        return IntMatrix._of(tuple(row[c * g : c * g + g] for row in gram[r * g : r * g + g]), g)

    return IntersectionTriple(block(0, 1), block(1, 2), block(2, 0))


def _hstack(*blocks: IntMatrix) -> IntMatrix:
    """The blocks side by side; all have the same number of rows."""
    rows = tuple(sum(parts, ()) for parts in zip(*(b.entries for b in blocks)))
    return IntMatrix._of(rows, sum(b.cols for b in blocks))


def _fmt_factors(facs: Sequence[int]) -> str:
    return "(" + ", ".join(str(f) for f in facs) + ")"


def require_valid(d: TrisectionDiagram) -> ValidationReport:
    """The diagram's report, computed once per object; raise InvalidDiagramError if invalid."""
    report = d._report
    if not report.valid:
        raise InvalidDiagramError(report)
    return report


def direct_sum(*diagrams: TrisectionDiagram) -> TrisectionDiagram:
    """Block direct sum of any number of diagrams, with no validity requirement.

    The genus is the sum of the summands' genera.  Summand i's x and y
    coordinates go into its own x block and its own y block, in argument
    order, so the sum equals the left fold of two-summand sums: it is
    associative, ``direct_sum(d, empty) == d``, and ``direct_sum()`` is
    the genus-0 diagram.  Every summand's rows are embedded once.
    connect_sum is this plus the requirement that every input is valid.

    Validates nothing.  When every summand already carries a valid
    report (each diagram object keeps the report of its first
    validation), the sum is valid by construction and carries the facts
    of a valid diagram of genus g = sum of genera and k = sum of k's:
    each system's factors are g ones, each q has g - k unit factors and
    k zeros and is its double's presentation, and the triple is the
    block diagonal of the summands' triples.  The sum is then never
    validated; otherwise it carries no report and is validated in full
    when first needed.
    """
    g = sum(d.genus for d in diagrams)

    def embed(label: str) -> IntMatrix:
        rows, before = [], 0
        for d in diagrams:
            h = d.genus
            pad, post = (0,) * before, (0,) * (g - before - h)
            for r in d.system(label).classes.entries:
                rows.append(pad + r[:h] + post + pad + r[h:] + post)
            before += h
        return IntMatrix._of(tuple(rows), 2 * g)

    total = TrisectionDiagram._from_classes(g, map(embed, LABELS))
    reports = [vars(d).get("_report") for d in diagrams]
    if all(r is not None and r.valid for r in reports):
        k = sum(r.k for r in reports)
        q_factors = (1,) * (g - k) + (0,) * k
        vars(total)["_report"] = ValidationReport(  # the cached_property's slot
            genus=g,
            systems=tuple(SystemReport(label, (1,) * g, None) for label in LABELS),
            pairs=tuple(PairReport(pair, q_factors, q_factors) for pair in PAIRS),
            triple=IntersectionTriple(
                _block_diagonal([r.triple.q_ab for r in reports]),
                _block_diagonal([r.triple.q_bc for r in reports]),
                _block_diagonal([r.triple.q_ca for r in reports]),
            ),
        )
    return total


def _carry_report(report: ValidationReport, d: TrisectionDiagram) -> None:
    """Give d the facts of ``report``, the valid report of a diagram whose
    three systems span d's three lattices.

    Each system of d is then M @ X for a unimodular M and the other
    diagram's system X, so d has X's factors and isotropy, and each q of
    d is M_a @ q @ M_b^T, with q's factors.  H_1 and the signature
    depend only on the three lattices, so d's triple reads the other
    triple's ``_homology``.  Both are written into the cached_property
    slots, as ``direct_sum`` writes a sum's report, so d is never
    validated.  A d that already carries a report keeps it.
    """
    if "_report" in vars(d):
        return
    triple = intersection_triple(d)
    vars(triple)["_homology"] = report.triple._homology
    vars(d)["_report"] = replace(report, triple=triple)


def _block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    n = sum(b.cols for b in blocks)
    rows, before = [], 0
    for b in blocks:
        pad, post = (0,) * before, (0,) * (n - before - b.cols)
        rows += [pad + r + post for r in b.entries]
        before += b.cols
    return IntMatrix._of(tuple(rows), n)


def parameters(d: TrisectionDiagram) -> tuple[int, int]:
    """The pair (g, k) of a valid diagram."""
    return (d.genus, require_valid(d).k)


def euler_characteristic(d: TrisectionDiagram) -> int:
    """chi = 2 + g - 3k of the closed 4-manifold the diagram presents."""
    return require_valid(d).euler


def handle_counts(d: TrisectionDiagram) -> tuple[int, int, int, int, int]:
    """Handle counts (1, k, g - k, k, 1) of the associated handle structure."""
    g, k = parameters(d)
    return (1, k, g - k, k, 1)


def intersection_triple(d: TrisectionDiagram) -> IntersectionTriple:
    """The pairwise intersection matrices, read off the Gram matrix as
    `validate` reads them; defined for any diagram."""
    return _triple(_gram(d), d.genus)


def lagrangian_triple(
    d: TrisectionDiagram,
) -> tuple[LagrangianSublattice, LagrangianSublattice, LagrangianSublattice]:
    """The three Lagrangian sublattices spanned by the systems."""
    out = []
    for sys in d.systems:
        try:
            out.append(LagrangianSublattice(d.genus, sys.classes))
        except ValueError:
            raise ValueError(f"{sys.label} system is not a Lagrangian basis") from None
    return tuple(out)


def signature(d: TrisectionDiagram) -> int:
    """Signature of the presented 4-manifold: the Maslov index of the triple."""
    return require_valid(d).triple._homology[1]


@dataclass(frozen=True)
class FirstHomology:
    """H_1 of the presented 4-manifold: free rank plus torsion coefficients.

    ``torsion`` lists the cyclic orders > 1 in divisibility order.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def first_homology(d: TrisectionDiagram) -> FirstHomology:
    """H_1 of the presented manifold: Z^(2g) mod all three spans = coker[q_ba; q_ca]."""
    facs = require_valid(d).triple._homology[0]
    return FirstHomology(
        free_rank=d.genus - sum(1 for e in facs if e),
        torsion=tuple(e for e in facs if e > 1),
    )
