"""Smith-form transforms are built only when a caller reads them, and then
equal the transforms of the eager elimination; fraction-free inertia
agrees with the elimination over Fraction it replaced.

The Smith-form oracle is `oracle_snf` in test_kernels.py, which carries
u and v through its elimination.  The inertia oracle below keeps the
replaced `symmetric_signature` verbatim.
"""

import contextlib
import copy
import io
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import (
    IntMatrix,
    apply_diffeomorphism,
    builtin,
    connect_sum,
    random_symplectic,
    random_unimodular,
    snf,
    symmetric_signature,
    validate,
)
from trisect import intlin
from trisect.cli import run, serialize_diagram
from trisect.intlin import SmithDecomposition

from test_kernels import matrices, oracle_snf


def oracle_symmetric_signature(s):
    if isinstance(s, IntMatrix):
        grid = [[Fraction(e) for e in r] for r in s.entries]
    else:
        grid = [[Fraction(e) for e in r] for r in s]
    n = len(grid)
    if any(len(r) != n for r in grid):
        raise ValueError("form matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i]:
                raise ValueError("form matrix must be symmetric")

    n_pos = n_neg = n_zero = 0
    active = list(range(n))
    while active:
        p = next((i for i in active if grid[i][i] != 0), None)
        if p is None:
            pair = next(
                ((i, j) for i in active for j in active if i < j and grid[i][j] != 0),
                None,
            )
            if pair is None:
                n_zero += len(active)
                break
            i0, j0 = pair
            for k in active:
                grid[i0][k] += grid[j0][k]
            for k in active:
                grid[k][i0] += grid[k][j0]
            continue
        d = grid[p][p]
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        active.remove(p)
        col = [grid[i][p] for i in active]
        for ii, i in enumerate(active):
            if col[ii] == 0:
                continue
            for jj, j in enumerate(active):
                grid[i][j] -= col[ii] * col[jj] / d
    return (n_pos, n_neg, n_zero)


@contextlib.contextmanager
def counted_builds():
    """Count the transforms built, one `_replay` call each."""
    with mock.patch.object(intlin, "_replay", wraps=intlin._replay) as replay:
        yield replay


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(("d", "du", "dv", "duv", "dvu", "uv", "vu")))
def test_transforms_are_built_on_first_read_and_match_the_oracle(m, order):
    want = oracle_snf(m)
    with counted_builds() as replay:
        got = snf(m)
        for part in order:
            g, w = getattr(got, part), getattr(want, part)
            assert (g.shape, g.entries) == (w.shape, w.entries), part
        assert replay.call_count == len(set(order) - {"d"})
        for part in order:
            getattr(got, part)
        assert replay.call_count == len(set(order) - {"d"})
    assert got == want


def test_smith_decomposition_keeps_its_value_contract():
    m = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    want = oracle_snf(m)
    eager = SmithDecomposition(want.d, want.u, want.v)
    lazy = snf(m)
    assert repr(lazy) == repr(eager) == (
        f"SmithDecomposition(d={want.d!r}, u={want.u!r}, v={want.v!r})"
    )
    lazy = snf(m)  # repr built the transforms of the first one
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager) == hash((want.d, want.u, want.v))
    assert len({lazy, eager, snf(m)}) == 1
    assert lazy != SmithDecomposition(want.d, want.u, IntMatrix.identity(3))
    assert lazy != (want.d, want.u, want.v)
    assert (lazy.diagonal, lazy.rank) == ((2, 6, 12), 3)
    assert copy.copy(snf(m)) == eager
    for dec in (snf(m), eager):
        for name in ("d", "u", "v", "diagonal", "extra"):
            with pytest.raises(AttributeError):
                setattr(dec, name, m)
            with pytest.raises(AttributeError):
                delattr(dec, name)
        assert dec == eager


def dense_diagram(seed: int):
    """Genus 7, entries of about 40 bits: atlas pieces summed, then a
    symplectic change of basis made of 40 random generators."""
    d = builtin("s2xs2-g2-model")
    for piece in ("cp2", "s1xs3", "cp2-mirror", "s2xs2-g2-model"):
        d = connect_sum(d, builtin(piece))
    return apply_diffeomorphism(d, random_symplectic(d.genus, seed, 40))


@contextlib.contextmanager
def recorded_smith_forms(monkeypatch):
    """(input, decomposition) of every `snf` call."""
    seen = []
    original = intlin.snf

    def recording(m):
        dec = original(m)
        seen.append((m, dec))
        return dec

    monkeypatch.setattr(intlin, "snf", recording)
    with counted_builds() as replay:
        yield seen, replay


def built(seen):
    """Shapes of the inputs whose u, and whose v, were built."""
    return (
        [m.shape for m, dec in seen if "u" in vars(dec)],
        [m.shape for m, dec in seen if "v" in vars(dec)],
    )


def test_validate_builds_no_transform(monkeypatch):
    d = dense_diagram(7)
    assert d.genus == 7
    assert max(abs(e) for s in d.systems for r in s.classes.entries for e in r) > 2**20
    with recorded_smith_forms(monkeypatch) as (seen, replay):
        assert validate(d).valid
    assert len(seen) >= 6
    assert built(seen) == ([], [])
    assert replay.call_count == 0


def test_invariants_builds_u_once_for_the_kernel_and_never_v(monkeypatch, tmp_path):
    d = dense_diagram(11)
    path = tmp_path / "dense.tris"
    path.write_text(serialize_diagram(d))
    with recorded_smith_forms(monkeypatch) as (seen, replay):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["invariants", str(path)]) == 0
    g = d.genus
    assert len(seen) == 7
    assert built(seen) == ([(2 * g, g)], [])
    assert replay.call_count == 1


def symmetric_forms(rng: random.Random, n: int):
    """A congruent image P B P^T of a block sum B of definite squares,
    hyperbolic planes and a radical, so every inertia occurs; a symmetric
    matrix of random entries; and that matrix with its diagonal cleared,
    so that the elimination meets all-zero active diagonals."""
    blocks = []
    while len(blocks) < n:
        kind = rng.random()
        if kind < 0.3 and len(blocks) + 2 <= n:
            b = rng.choice((-3, -1, 1, 2))
            blocks += [(b, True), (b, False)]
        elif kind < 0.55:
            blocks.append((0, None))
        else:
            blocks.append((rng.choice((-5, -2, -1, 1, 1, 3)), None))
    base = [[0] * n for _ in range(n)]
    for i, (b, first) in enumerate(blocks):
        if first is None:
            base[i][i] = b
        elif first:
            base[i][i + 1] = base[i + 1][i] = b
    p = random_unimodular(n, rng.randrange(10**6), rng.randrange(3 * n + 1))
    image = (p @ IntMatrix(base) @ p.transpose()).entries
    bound = rng.choice((1, 3, 10**6))
    noise = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                noise[i][j] = noise[j][i] = rng.randint(-bound, bound)
    hollow = [[e if i != j else 0 for j, e in enumerate(r)] for i, r in enumerate(noise)]
    return [[list(r) for r in image], noise, hollow]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_fraction_free_inertia_matches_the_rational_oracle(n, seed):
    rng = random.Random(seed)
    for grid in symmetric_forms(rng, n):
        want = oracle_symmetric_signature(grid)
        assert symmetric_signature(grid) == want
        assert symmetric_signature(IntMatrix(grid)) == want
        dens = [rng.randint(1, 12) for _ in range(n)]
        scaled = [[Fraction(e, dens[i] * dens[j]) for j, e in enumerate(r)] for i, r in enumerate(grid)]
        assert symmetric_signature(scaled) == oracle_symmetric_signature(scaled) == want
