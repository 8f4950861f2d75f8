"""IntMatrix and SmithDecomposition keep their value contracts as frozen
dataclasses, and the seeded generators agree entry for entry with the
code they replaced.

The contract: equality and hashing by value, AttributeError on every set
and delete, copy, deepcopy and pickle round trips, and Smith-form
transforms built once, on first read.  The oracles keep the replaced
`random_unimodular` (its own row-operation loop) and `random_symplectic`
(a product of 2g x 2g transvection matrices) verbatim.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import (
    IntMatrix,
    SymplecticLattice,
    TrisectionDiagram,
    random_symplectic,
    random_unimodular,
    snf,
)
from trisect.cli import parse_diagram, serialize_diagram
from trisect.intlin import SmithDecomposition

from test_kernels import oracle_snf, seeds
from test_lazy_transforms import counted_builds

GRID = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def oracle_random_unimodular(n: int, seed: int, op_count: int) -> IntMatrix:
    if n < 1:
        raise ValueError("size must be >= 1")
    if op_count < 0:
        raise ValueError("op_count must be >= 0")
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(op_count):
        if n == 1:
            rows[0] = [-x for x in rows[0]]
            continue
        roll = rng.random()
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        if roll < 0.7:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif roll < 0.85:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows, cols=n)


def oracle_random_symplectic(genus: int, seed: int, count: int) -> IntMatrix:
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(seed)
    dim = 2 * genus
    s = IntMatrix.identity(dim)
    if genus == 0:
        return s
    j = SymplecticLattice(genus).form_matrix()
    for _ in range(count):
        u = [rng.randrange(-1, 2) for _ in range(dim)]
        if all(e == 0 for e in u):
            u[rng.randrange(dim)] = 1
        c = rng.choice((1, 1, -1, -1, 2))
        outer = IntMatrix([[a * b for b in u] for a in u], cols=dim)
        s = s @ (IntMatrix.identity(dim) + c * (j @ outer))
    return s


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), seeds, st.integers(0, 60))
def test_random_unimodular_matches_the_oracle(n, seed, op_count):
    got, want = random_unimodular(n, seed, op_count), oracle_random_unimodular(n, seed, op_count)
    assert (got.shape, got.entries) == (want.shape, want.entries)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), seeds, st.integers(0, 40))
def test_random_symplectic_matches_the_oracle(genus, seed, count):
    got, want = random_symplectic(genus, seed, count), oracle_random_symplectic(genus, seed, count)
    assert (got.shape, got.entries) == (want.shape, want.entries)


@pytest.mark.parametrize(
    "make, names",
    [
        (lambda: IntMatrix(GRID), ("rows", "cols", "entries", "shape", "extra")),
        (lambda: snf(IntMatrix(GRID)), ("d", "_u", "_v", "_row_ops", "u", "rank", "extra")),
    ],
    ids=["IntMatrix", "lazy snf"],
)
def test_every_set_and_delete_raises_attribute_error(make, names):
    value, same = make(), make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same and hash(value) == hash(same)


def test_int_matrix_compares_and_hashes_by_shape_and_entries():
    m = IntMatrix(GRID)
    assert hash(m) == hash((3, 3, tuple(map(tuple, GRID))))
    assert m == IntMatrix(GRID) and m != IntMatrix(GRID[:2])
    assert m != m.entries
    assert IntMatrix([], cols=0) != IntMatrix([], cols=3)
    assert len({IntMatrix([], cols=2), IntMatrix.zeros(0, 2), IntMatrix([], cols=0)}) == 2


def copies(value):
    out = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return out + [copy.copy(value), copy.deepcopy(value)]


def test_int_matrix_survives_copy_deepcopy_and_pickle():
    for m in (IntMatrix(GRID), IntMatrix([], cols=4), IntMatrix.zeros(2, 0)):
        for c in copies(m):
            assert type(c) is IntMatrix
            assert (c.shape, c.entries) == (m.shape, m.entries)
            assert c == m and hash(c) == hash(m)
            with pytest.raises(AttributeError):
                c.rows = 7


@pytest.mark.parametrize("read_first", ["", "u", "v", "uv"])
def test_smith_decomposition_survives_copy_deepcopy_and_pickle(read_first):
    m = IntMatrix(GRID)
    want = oracle_snf(m)
    with counted_builds() as replay:
        dec = snf(m)
        for part in read_first:
            getattr(dec, part)
        made = copies(dec)
        assert replay.call_count == len(read_first)  # copying builds nothing
        for c in made:
            assert type(c) is SmithDecomposition
            before = replay.call_count
            assert (c.d, c.u, c.v) == (want.d, want.u, want.v)
            assert (c.u, c.v) == (want.u, want.v)
            # each transform not read before copying is built once, here
            assert replay.call_count - before == 2 - len(read_first)
            assert c == want and hash(c) == hash(want)
            with pytest.raises(AttributeError):
                c.d = m


@pytest.mark.parametrize("entry", [True, False])
def test_int_matrix_rejects_bool_entries(entry):
    with pytest.raises(TypeError, match="got bool"):
        IntMatrix([[1, entry]])


def test_bool_rows_cannot_build_a_diagram_that_breaks_the_round_trip():
    # bool subclasses int, but serializes as "True", which parse_diagram rejects
    with pytest.raises(TypeError, match="got bool"):
        TrisectionDiagram.from_rows(1, [[True, False]], [[0, 1]], [[1, 1]])
    d = TrisectionDiagram.from_rows(1, [[1, 0]], [[0, 1]], [[1, 1]])
    assert parse_diagram(serialize_diagram(d)) == d
