"""Reports store only the facts validation measured and derive every verdict.

The oracle is the earlier report design, kept below verbatim but renamed:
``validate`` computed every verdict, ``k``, ``euler`` and failure line
itself and stored all of them on the report.  Each public attribute of
the new reports must agree with it, on the atlas, on random valid and
corrupted diagrams, and on the reports that direct sums and
stabilizations carry without validating.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    InvalidDiagramError,
    builtin,
    connect_sum,
    direct_sum,
    invariant_factors,
    require_valid,
    stabilize,
    validate,
)
from trisect.diagram import (
    LABELS,
    PAIRS,
    IntersectionTriple,
    PairReport,
    SystemReport,
    ValidationReport,
    intersection_triple,
)
from trisect.symplectic import first_nonisotropic

from helpers import random_valid_diagram
from test_triple import corrupt, corruptions

seeds = st.integers(min_value=0, max_value=10**6)


@dataclass(frozen=True)
class OracleSystemReport:
    """Lagrangian checks for one curve system."""

    label: str
    full_rank: bool
    primitive: bool
    isotropic: bool

    @property
    def ok(self) -> bool:
        return self.full_rank and self.primitive and self.isotropic


@dataclass(frozen=True)
class OraclePairReport:
    """Homological S^1 x S^2 connected-sum checks for one pair of systems."""

    pair: str
    q_factors: tuple[int, ...]
    unit_factors: bool
    double_free: bool
    double_rank: int
    k: int

    @property
    def ok(self) -> bool:
        return self.unit_factors and self.double_free and self.double_rank == self.k


@dataclass(frozen=True)
class OracleValidationReport:
    """Outcome of all homological checks, with per-check diagnostics.

    ``k`` and ``euler`` are filled only when the diagram is valid.
    A valid report asserts the absence of homological obstructions, not
    a geometric equivalence; ``lines()`` states that scope explicitly.
    """

    genus: int
    systems: tuple[OracleSystemReport, OracleSystemReport, OracleSystemReport]
    pairs: tuple[OraclePairReport, OraclePairReport, OraclePairReport]
    k_agree: bool
    valid: bool
    k: int | None
    euler: int | None
    failures: tuple[str, ...]
    triple: IntersectionTriple

    def system(self, label: str) -> OracleSystemReport:
        return self.systems[LABELS.index(label)]

    def pair(self, name: str) -> OraclePairReport:
        for p in self.pairs:
            if p.pair == name:
                return p
        raise ValueError(f"unknown pair {name!r}")

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


def oracle_validate(d) -> OracleValidationReport:
    """Run every homological check and return the full report."""
    g = d.genus
    failures: list[str] = []

    sys_reports = []
    for sys in d.systems:
        facs = invariant_factors(sys.classes)
        rank = sum(1 for e in facs if e)
        full_rank = rank == g
        primitive = all(e == 1 for e in facs)
        bad = first_nonisotropic(sys.classes)
        isotropic = bad is None
        sys_reports.append(OracleSystemReport(sys.label, full_rank, primitive, isotropic))
        if not full_rank:
            failures.append(f"{sys.label}: rows are dependent (rank {rank} of {g})")
        elif not primitive:
            failures.append(
                f"{sys.label}: span is not primitive "
                f"(invariant factors {_fmt_factors(facs)})"
            )
        if not isotropic:
            i, j, val = bad
            failures.append(
                f"{sys.label}: not isotropic, "
                f"omega({sys.label}_{i + 1}, {sys.label}_{j + 1}) = {val}"
            )

    triple = intersection_triple(d)
    pair_reports = []
    ks = []
    for pair, (l, r), q in zip(
        PAIRS, ((0, 1), (1, 2), (2, 0)), (triple.q_ab, triple.q_bc, triple.q_ca)
    ):
        qfacs = invariant_factors(q)
        k = g - sum(1 for e in qfacs if e)
        unit = all(e in (0, 1) for e in qfacs)
        if sys_reports[l].ok or sys_reports[r].ok:  # the double's H_1 is coker(q)
            facs, double_rank = qfacs, k
        else:
            facs = invariant_factors(d.systems[l].classes.vstack(d.systems[r].classes))
            double_rank = 2 * g - sum(1 for e in facs if e)
        torsion = tuple(e for e in facs if e > 1)
        double_free = not torsion
        pair_reports.append(OraclePairReport(pair, qfacs, unit, double_free, double_rank, k))
        ks.append(k)
        if not unit:
            failures.append(
                f"{pair}: intersection matrix has non-unit invariant factors "
                f"{_fmt_factors(qfacs)}"
            )
        if not double_free:
            failures.append(f"{pair}: double has torsion {_fmt_factors(torsion)}")
        elif double_rank != k:
            failures.append(
                f"{pair}: double has rank {double_rank}, expected k = {k}"
            )

    k_agree = len(set(ks)) <= 1
    if not k_agree:
        failures.append(
            "per-pair k values disagree: "
            + ", ".join(f"{p.pair} gives {p.k}" for p in pair_reports)
        )

    valid = (
        all(s.ok for s in sys_reports) and all(p.ok for p in pair_reports) and k_agree
    )
    k = ks[0] if valid else None
    euler = 2 + g - 3 * k if valid else None
    return OracleValidationReport(
        genus=g,
        systems=tuple(sys_reports),
        pairs=tuple(pair_reports),
        k_agree=k_agree,
        valid=valid,
        k=k,
        euler=euler,
        failures=tuple(failures),
        triple=triple,
    )


def _fmt_factors(facs: Sequence[int]) -> str:
    return "(" + ", ".join(str(f) for f in facs) + ")"


SYSTEM_ATTRS = ("label", "full_rank", "primitive", "isotropic", "ok")
PAIR_ATTRS = ("pair", "q_factors", "unit_factors", "double_free", "double_rank", "k", "ok")
REPORT_ATTRS = ("genus", "k_agree", "valid", "k", "euler", "failures", "triple")


def assert_matches_oracle(report: ValidationReport, d) -> None:
    expected = oracle_validate(d)
    for label in LABELS:
        got, want = report.system(label), expected.system(label)
        for name in SYSTEM_ATTRS:
            assert getattr(got, name) == getattr(want, name), (label, name)
    for pair in PAIRS:
        got, want = report.pair(pair), expected.pair(pair)
        for name in PAIR_ATTRS:
            assert getattr(got, name) == getattr(want, name), (pair, name)
    for name in REPORT_ATTRS:
        assert getattr(report, name) == getattr(expected, name), name
    assert report.lines() == expected.lines()


def assert_error_matches_oracle(d) -> None:
    expected = oracle_validate(d)
    if expected.valid:
        assert require_valid(d).valid
        return
    with pytest.raises(InvalidDiagramError) as info:
        require_valid(d)
    assert str(info.value) == "invalid trisection diagram: " + "; ".join(expected.failures)


def test_atlas_reports_match_the_oracle():
    for name in trisect.builtin_names():
        d = builtin(name)
        assert_matches_oracle(validate(d), d)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_valid_diagram_reports_match_the_oracle(seed):
    d = random_valid_diagram(seed, max_genus=9)
    assert_matches_oracle(validate(d), d)


# Two corruptions can break both systems of a pair, the only case in which
# the double's factors come from the stacked class matrix.
@settings(max_examples=120, deadline=None)
@given(seeds, st.lists(corruptions, min_size=1, max_size=2))
def test_corrupted_diagram_reports_and_errors_match_the_oracle(seed, changes):
    bad = random_valid_diagram(seed, max_genus=9)
    if bad.genus == 0:
        return
    for system, row, kind, other, coef in changes:
        bad = corrupt(bad, system, row % bad.genus, kind, other, coef)
    assert_matches_oracle(validate(bad), bad)
    assert_error_matches_oracle(bad)


def test_pairs_with_both_systems_broken_match_the_oracle():
    # one row of two systems changed: the sweep reaches pairs whose double
    # is read off the stacked class matrix and differs in rank from coker(q)
    stacked_ranks = 0
    for name in trisect.builtin_names():
        d = builtin(name)
        if d.genus == 0:
            continue
        for system in range(3):
            for kind in range(4):
                for other in range(3):
                    bad = corrupt(d, system, 0, kind, other, 2)
                    bad = corrupt(bad, (system + 1) % 3, d.genus - 1, kind, other, 3)
                    report = validate(bad)
                    assert_matches_oracle(report, bad)
                    assert_error_matches_oracle(bad)
                    stacked_ranks += sum(
                        p.double_rank != p.q_factors.count(0) for p in report.pairs
                    )
    assert stacked_ranks > 0


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, st.integers(0, 2))
def test_carried_sum_reports_match_the_oracle(s1, s2, n):
    d1 = random_valid_diagram(s1, max_genus=4)
    d2 = random_valid_diagram(s2, max_genus=5)
    for d in (d1, d2):
        require_valid(d)
    chain = [direct_sum(d1, d2), connect_sum(d2, d1, d2)]
    for _ in range(n):
        chain.append(stabilize(chain[-1]))
    for d in chain:
        report = vars(d).get("_report")
        assert report is not None  # carried, not validated
        assert_matches_oracle(report, d)


def test_an_unknown_system_label_is_named():
    report = validate(builtin("cp2"))
    with pytest.raises(ValueError, match="^unknown system label 'delta'$"):
        report.system("delta")
    with pytest.raises(ValueError, match="^unknown pair 'alpha-gamma'$"):
        report.pair("alpha-gamma")


def test_reports_store_ten_facts_and_no_verdict():
    names = [
        f.name
        for cls in (SystemReport, PairReport, ValidationReport)
        for f in dataclasses.fields(cls)
    ]
    assert names == [
        "label", "factors", "nonisotropic",
        "pair", "q_factors", "double_factors",
        "genus", "systems", "pairs", "triple",
    ]
    # the carry and require_valid read it once per summand, so it is cached
    assert isinstance(vars(ValidationReport)["valid"], cached_property)
