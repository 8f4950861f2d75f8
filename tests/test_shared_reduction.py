"""H_1 and the signature come from one Smith form of [q_ba; q_ca], taken
once per diagram, and agree with the two reductions they replaced.

The oracle keeps the replaced code: the Maslov index from the Hermite
basis of the left kernel of [q21; q31], that kernel's rows picked where
the Smith diagonal vanishes, and H_1's invariant factors from a second
Smith form of the same stacked matrix.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    IntMatrix,
    builtin,
    compare,
    connect_sum,
    euler_characteristic,
    first_homology,
    invariant_factors,
    pairing_matrix,
    random_symplectic,
    signature,
    snf,
    stabilize,
    symmetric_signature,
    validate,
)
from trisect.cli import run, serialize_diagram
from trisect import intlin
from trisect.intlin import _hermite, left_kernel_basis
from trisect.symplectic import triple_homology

from helpers import random_valid_diagram, shuffle_diagram
from test_kernels import _count_calls, matrices

MAX_GENUS = 7

seeds = st.integers(min_value=0, max_value=10**6)


def oracle_left_kernel_basis(m: IntMatrix) -> IntMatrix:
    dec = snf(m)
    diag = dec.diagonal
    rows = [dec.u.row(i) for i in range(m.rows) if i >= len(diag) or diag[i] == 0]
    return _hermite(rows, m.rows)


def oracle_pairing_maslov_index(q12: IntMatrix, q23: IntMatrix, q31: IntMatrix) -> int:
    """maslov_index from the pairing matrices of a triple known to be Lagrangian."""
    g = q12.rows
    ker = oracle_left_kernel_basis((-q12.transpose()).vstack(q31))
    y = ker.submatrix(0, ker.rows, 0, g)
    z = ker.submatrix(0, ker.rows, g, 2 * g)
    n_pos, n_neg, _ = symmetric_signature(z @ q23.transpose() @ y.transpose())
    return n_pos - n_neg


def oracle_triple_homology(q12, q23, q31):
    facs = invariant_factors((-q12.transpose()).vstack(q31))
    return facs, oracle_pairing_maslov_index(q12, q23, q31)


def assert_matches_the_oracle(b1, b2, b3):
    qs = (pairing_matrix(b1, b2), pairing_matrix(b2, b3), pairing_matrix(b3, b1))
    got = triple_homology(*qs)
    assert got == oracle_triple_homology(*qs)
    return got


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_left_kernel_basis_matches_the_oracle(m):
    assert left_kernel_basis(m) == oracle_left_kernel_basis(m)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_valid_diagrams_and_their_stabilizations_match_the_oracle(seed):
    d = random_valid_diagram(seed, max_genus=MAX_GENUS - 3)
    for e in (d, stabilize(d)):
        t = validate(e).triple
        facs, sigma = oracle_triple_homology(t.q_ab, t.q_bc, t.q_ca)
        assert signature(e) == sigma
        h1 = first_homology(e)
        assert h1.free_rank == e.genus - sum(1 for f in facs if f)
        assert h1.torsion == tuple(f for f in facs if f > 1)
        assert t._homology == (facs, sigma)


# primitive vectors of one (x_i, y_i) plane; a basis block takes one per plane
SLOPES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, -2))


def lagrangian_basis(rng: random.Random, genus: int, count: int) -> IntMatrix:
    """A basis block (one slope per plane) times a random symplectic matrix;
    count 0 leaves the block alone, so pairs of blocks are often not
    transverse."""
    rows = []
    for i in range(genus):
        a, b = rng.choice(SLOPES)
        row = [0] * (2 * genus)
        row[i], row[genus + i] = a, b
        rows.append(row)
    block = IntMatrix(rows, cols=2 * genus)
    return block @ random_symplectic(genus, rng.randrange(10**6), count)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, MAX_GENUS), seeds, st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_random_lagrangian_triples_match_the_oracle(genus, seed, counts):
    rng = random.Random(seed)
    members = [lagrangian_basis(rng, genus, c) for c in counts]
    assert_matches_the_oracle(*members)
    # repeated members: every such triple has index 0 and a non-transverse pair
    a, b, _ = members
    for triple in ((a, a, b), (a, b, b), (b, a, a), (a, a, a)):
        assert assert_matches_the_oracle(*triple)[1] == 0


def fresh_valid_diagram(seed: int):
    """A valid diagram object no invariant has been asked of yet."""
    d = random_valid_diagram(seed, max_genus=MAX_GENUS)
    return shuffle_diagram(d, random.Random(seed), slides=2)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_one_smith_form_serves_both_invariants(seed):
    for first, second in ((signature, first_homology), (first_homology, signature)):
        d = fresh_valid_diagram(seed)
        with pytest.MonkeyPatch.context() as mp:
            snfs = _count_calls(mp, trisect.intlin, "snf")
            first(d)
            assert len(snfs) == 7  # three systems, three q's, one [q_ba; q_ca]
            second(d)
            assert len(snfs) == 7


def test_compare_makes_seven_smith_forms_per_diagram(monkeypatch):
    d1 = fresh_valid_diagram(8)
    d2 = shuffle_diagram(fresh_valid_diagram(8), random.Random(6), slides=3)
    assert d1.genus == 5 and d1 != d2
    snfs = _count_calls(monkeypatch, trisect.intlin, "snf")
    verdict = compare(d1, d2, max_depth=0)
    assert verdict.invariant is None  # every invariant was read and agreed
    assert len(snfs) == 14


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_signature_is_bounded_by_b2_and_has_its_parity(seed):
    d = random_valid_diagram(seed, max_genus=MAX_GENUS - 3)
    for e in (d, stabilize(d)):
        b2 = euler_characteristic(e) - 2 + 2 * first_homology(e).free_rank
        sigma = signature(e)
        assert abs(sigma) <= b2
        assert (sigma - b2) % 2 == 0



def test_invariants_reads_the_kernel_off_u_without_a_checked_build(tmp_path, monkeypatch):
    # the three parsed systems are the only checked IntMatrix constructions:
    # the kernel's Y and Z blocks are rows of u, not checked submatrices
    d = connect_sum(*map(builtin, ("cp2", "s1xs3", "cp2-mirror", "s2xs2-g2-model", "cp2")))
    d = shuffle_diagram(d, random.Random(3), slides=6)
    assert d.genus == 6
    path = tmp_path / "g6.tris"
    path.write_text(serialize_diagram(d))
    builds = []
    original = IntMatrix.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["invariants", str(path)]) == 0
    assert len(builds) == 3


def test_invariants_takes_no_lcm_of_its_own_gram(tmp_path, monkeypatch):
    # the kernel's Gram matrix is the package's own product, so it goes to
    # symmetric_signature checked, past the lcm that clears a grid's fractions
    d = connect_sum(builtin("cp2"), builtin("s1xs3"), builtin("s4-g3"))
    path = tmp_path / "sum.tris"
    path.write_text(serialize_diagram(d))
    calls = []
    original = intlin.lcm

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(intlin, "lcm", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["invariants", str(path)]) == 0
    assert calls == []
    assert "sigma=1\n" in out.getvalue()
