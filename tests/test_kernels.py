"""The Smith-form and pairing kernels agree entry for entry with the
formulas they replaced, and `trisect invariants` makes no per-pair
`omega` call.

The oracle keeps the replaced code: the Smith form that updated v column by
column and cleared the pivot row by whole-column operations, pairings
through `omega`, `is_symplectic` as s @ j @ s^T == j, and the matrix
product that built each column by index.  The packed and wide-slot
product kernels are checked against plain dot products.  `_dots` picks
between them by the operands' bound alone, whatever their size: packed
below 2**63, wide slots from there up.  The wide one is also checked far
past 2**63 and with no word array.
"""

import contextlib
import io
import random
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisect
from trisect import (
    IntMatrix,
    SymplecticLattice,
    builtin,
    connect_sum,
    is_symplectic,
    omega,
    pairing_matrix,
    random_symplectic,
    snf,
)
from trisect.cli import run, serialize_diagram
from trisect import intlin
from trisect.intlin import (
    _WORD_ARRAY,
    SmithDecomposition,
    _bound,
    _dots,
    _packed_dots,
    _wide_dots,
)
from trisect.symplectic import _rows_of, first_nonisotropic

from helpers import random_valid_diagram, shuffle_diagram

MAX_GENUS = 9


def oracle_snf(m: IntMatrix) -> SmithDecomposition:
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e != 0 and (piv is None or abs(e) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)

        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q, r = divmod(a[i][t], a[t][t])
                    add_row(i, t, -q)
                    if r:
                        # the remainder is a strictly smaller pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q, r = divmod(a[t][j], a[t][t])
                    add_col(j, t, -q)
                    if r:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            break

        p = a[t][t]
        offender = None
        for i in range(t + 1, nr):
            if any(a[i][j] % p for j in range(t + 1, nc)):
                offender = i
                break
        if offender is not None:
            # pull the offending row into the pivot row; re-reducing
            # shrinks the pivot toward the gcd of the trailing block
            add_row(t, offender, 1)
            continue
        t += 1

    return SmithDecomposition(
        IntMatrix(a, cols=nc), IntMatrix(u, cols=nr), IntMatrix(v, cols=nc)
    )


def oracle_first_nonisotropic(rows: IntMatrix):
    r = rows.entries
    for i in range(len(r)):
        for j in range(i + 1, len(r)):
            val = omega(r[i], r[j])
            if val != 0:
                return (i, j, val)
    return None


def oracle_pairing_matrix(left, right) -> IntMatrix:
    a = _rows_of(left)
    b = _rows_of(right)
    if a.cols != b.cols:
        raise ValueError("ambient genus mismatch")
    if a.cols % 2:
        raise ValueError("ambient rank must be even")
    return IntMatrix(
        [[omega(ra, rb) for rb in b.entries] for ra in a.entries], cols=b.rows
    )


def oracle_is_symplectic(s: IntMatrix) -> bool:
    if s.rows != s.cols:
        raise ValueError("matrix must be square")
    if s.rows % 2:
        raise ValueError("matrix rank must be even")
    j = SymplecticLattice(s.rows // 2).form_matrix()
    return s @ j @ s.transpose() == j


def oracle_matmul(self: IntMatrix, other: IntMatrix) -> IntMatrix:
    if not isinstance(other, IntMatrix):
        return NotImplemented
    if self.cols != other.rows:
        raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
    cols = [tuple(r[j] for r in other.entries) for j in range(other.cols)]
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in self.entries],
        cols=other.cols,
    )


seeds = st.integers(min_value=0, max_value=10**6)


@st.composite
def matrices(draw, rows=None, min_side=0, max_side=10):
    """Sparse or dense integer matrices of shape min_side..max_side (or the
    given number of rows), entries up to a drawn bound between 1 and 10^6,
    optionally with a row tripled or made dependent on two others, so that
    non-unit pivots and the divisibility fix-up run."""
    nr = draw(st.integers(min_side, max_side)) if rows is None else rows
    nc = draw(st.integers(min_side, max_side))
    bound = draw(st.sampled_from((1, 2, 3, 9, 1000, 10**6)))
    density = draw(st.sampled_from((0.15, 0.5, 1.0)))
    rng = random.Random(draw(seeds))
    grid = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]
    kind = draw(st.sampled_from(("none", "tripled", "dependent")))
    if nr >= 2 and kind == "tripled":
        i = rng.randrange(nr)
        grid[i] = [3 * x for x in grid[i]]
    elif nr >= 3 and kind == "dependent":
        i, j, k = rng.sample(range(nr), 3)
        c = rng.choice((-3, -2, 2, 3))
        grid[i] = [c * x + y for x, y in zip(grid[j], grid[k])]
    return IntMatrix(grid, cols=nc)


def assert_same_decomposition(m):
    got, want = snf(m), oracle_snf(m)
    for part in "duv":
        g, w = getattr(got, part), getattr(want, part)
        assert (g.shape, g.entries) == (w.shape, w.entries), part


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_snf_matches_the_oracle(m):
    assert_same_decomposition(m)


def test_snf_matches_the_oracle_on_the_divisibility_fixup():
    # each needs the trailing-block fix-up (diag(2, 3) -> (1, 6)) or a
    # non-unit pivot that stays (the tripled row)
    cases = (
        [[2, 0], [0, 3]],
        [[6, 4], [4, 6]],
        [[2, 0, 0], [0, 4, 0], [0, 0, 6]],
        [[3, 6, 9], [1, 2, 4], [6, 12, 18]],
        [[4, 6, 10], [6, 9, 15]],
        [[0, 0], [0, 0], [0, 5]],
    )
    for rows in cases:
        m = IntMatrix(rows)
        assert_same_decomposition(m)
        assert_same_decomposition(m.transpose())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matmul_matches_the_oracle(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert a @ b == oracle_matmul(a, b)
    assert a @ b @ b.transpose() == oracle_matmul(oracle_matmul(a, b), b.transpose())
    # at least 12 x 12 x 12 multiplications, so the packed product runs
    a = data.draw(matrices(min_side=12, max_side=30))
    b = data.draw(matrices(rows=a.cols, min_side=12, max_side=30))
    assert a @ b == oracle_matmul(a, b)


def test_matmul_of_empty_factors_matches_the_oracle():
    for p, q, r in ((0, 0, 0), (3, 0, 2), (0, 4, 2), (2, 3, 0), (0, 0, 5)):
        a = IntMatrix([[1] * q for _ in range(p)], cols=q)
        b = IntMatrix([[2] * r for _ in range(q)], cols=r)
        assert a @ b == oracle_matmul(a, b)
        if q == 0:
            assert a @ b == IntMatrix.zeros(p, r)


def oracle_dots(a_rows, b_rows):
    return tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in b_rows) for a in a_rows)


# exponents k with products of entries near 2**k: the packed product takes
# bounds below 2**63, and _dots takes wide slots (_wide_dots) from there up
EDGES = (0, 1, 31, 62, 63, 64, 65, 126, 127, 128, 200)


@st.composite
def dot_operands(draw, edges=EDGES):
    """Row families a and b of one length, shapes 0..40, with entries that
    reach +-2**ka and +-2**kb where ka + kb is drawn near an edge."""
    nr, nc, length = (draw(st.integers(0, 40)) for _ in range(3))
    k = draw(st.sampled_from(edges))
    ka = draw(st.integers(0, k))
    fill = draw(st.sampled_from(("extreme", "edges", "random", "sparse")))
    rng = random.Random(draw(seeds))

    def entry(bits):
        top = 1 << bits
        if fill == "extreme":  # every dot product is +-bound or close
            return rng.choice((top, -top))
        if fill == "edges":
            return rng.choice((top, -top, top - 1, 1 - top, top + 1, -top - 1, 0, 1, -1))
        if fill == "sparse" and rng.random() < 0.8:
            return 0
        return rng.randint(-top - 1, top + 1)

    a = tuple(tuple(entry(ka) for _ in range(length)) for _ in range(nr))
    b = tuple(tuple(entry(k - ka) for _ in range(length)) for _ in range(nc))
    return a, b


@settings(max_examples=300, deadline=None)
@given(dot_operands())
@example((((2**63 - 1,),), ((1,),)))  # the largest bound the packed product takes
@example((((-(2**63),),), ((1,),)))  # the smallest bound it leaves to wide slots
@example((((-(2**63),),), ((-1,),)))
@example((((2**64,), (-(2**64),)), ((2**63 - 1,), (-(2**63),))))  # near 2**127
@example((((-(2**127),),), ((-1,), (1,))))
@example((((0, 0),), ((2**100, -(2**100)),)))  # a zero factor: bound 0
@example((((), ()), ((), (), ())))  # zero-length rows
@example(((), ((1, 2),)))  # no rows
@example((((1, 2),), ()))  # no columns
def test_packed_dots_match_the_oracle(operands):
    a, b = operands
    want = oracle_dots(a, b)
    bound = (
        (len(b[0]) if b else 0)
        * max((abs(x) for row in a for x in row), default=0)
        * max((abs(x) for row in b for x in row), default=0)
    )
    takes = bound == 0 or (_WORD_ARRAY and bound < 2**63)
    assert _packed_dots(a, b) == (want if takes else None)
    got = _dots(a, b)
    assert got == want
    assert all(type(e) is int for row in got for e in row)


@contextlib.contextmanager
def slot_paths(words: bool):
    """Every product, whatever its size, takes the slot kernels; with
    ``words`` False there is no word array, so every product takes wide
    slots."""
    with mock.patch.object(intlin, "_WORD_ARRAY", words and _WORD_ARRAY):
        yield


def slot_edge_operands():
    """Products whose bound is 2**(w-1) - 1, the widest a slot of w bits
    holds, or 2**(w-1), the narrowest that needs another byte, with entries
    of b and of the product at the bound."""
    for w in (8, 16, 56, 64, 72, 128, 1000, 1008):
        for top in ((1 << (w - 1)) - 1, 1 << (w - 1)):
            yield ((top,), (-top,), (0,)), ((1,), (-1,), (0,))
            yield ((1,), (-1,)), ((top,), (-top,), (1,))
            yield ((top, 0), (0, -top)), ((1, 0), (0, 1), (-1, 0))


@settings(max_examples=300, deadline=None)
@given(dot_operands(edges=EDGES + (1000,)), st.booleans())
@example((((2**1000,), (-(2**1000),)), ((2**1000 - 1,), (1,))), False)
@example((((0, 0),), ((2**1000, -(2**1000)),)), True)  # a zero factor: bound 0
@example((((), ()), ((), (), ())), False)  # zero-length rows
@example(((), ((1, 2),)), False)  # no rows
@example((((1, 2),), ()), False)  # no columns
@example((((-(2**64), 3, 0),), ((5, -(2**200), 7),)), True)  # one row, one column
def test_wide_dots_match_the_oracle(operands, words):
    a, b = operands
    want = oracle_dots(a, b)
    assert _wide_dots(a, b, _bound(a, b)) == want
    with slot_paths(words):
        got = _dots(a, b)
    assert got == want
    assert all(type(e) is int for row in got for e in row)


def test_wide_dots_match_the_oracle_at_the_slot_edges():
    for a, b in slot_edge_operands():
        want = oracle_dots(a, b)
        assert _wide_dots(a, b, _bound(a, b)) == want
        for words in (False, True):
            with slot_paths(words):
                assert _dots(a, b) == want


def test_products_stay_exact_without_the_word_array(monkeypatch):
    monkeypatch.setattr(intlin, "_WORD_ARRAY", False)
    rng = random.Random(14)
    for side, bits in ((12, 4), (16, 40), (24, 62), (12, 300)):
        top = 2**bits
        a = IntMatrix([[rng.randint(-top, top) for _ in range(side)] for _ in range(side)])
        assert a @ a.transpose() == oracle_matmul(a, a.transpose())
        assert _packed_dots(a.entries, a.entries) is None
    d = shuffle_diagram(random_valid_diagram(15, max_genus=9), rng)
    while d.genus < 10:
        d = connect_sum(d, builtin("cp2"))
    assert trisect.validate(d).valid


def perturb(classes: IntMatrix, rng: random.Random) -> IntMatrix:
    rows = [list(r) for r in classes.entries]
    if rows and classes.cols:
        row = rng.randrange(len(rows))
        col = rng.randrange(classes.cols)
        rows[row][col] += rng.choice((-3, -1, 1, 2, 10**6))
    return IntMatrix(rows, cols=classes.cols)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(0, 3), st.booleans())
@example(13, 3, True)  # several nonzero pairings at genus 12: the first is returned
def test_pairings_match_the_oracle(seed, perturbations, large):
    d = random_valid_diagram(seed, max_genus=MAX_GENUS)
    rng = random.Random(seed)
    if large:  # genus 12 or more, where pairings are packed products
        while d.genus < 12:
            d = connect_sum(d, random_valid_diagram(rng.randrange(10**6), MAX_GENUS))
        d = shuffle_diagram(d, rng)
    systems = [s.classes for s in d.systems]
    for _ in range(perturbations):
        k = rng.randrange(3)
        systems[k] = perturb(systems[k], rng)
    for x in systems:
        assert first_nonisotropic(x) == oracle_first_nonisotropic(x)
        for y in systems:
            assert pairing_matrix(x, y) == oracle_pairing_matrix(x, y)


def test_pairing_errors_match_the_oracle():
    odd2 = IntMatrix([[1, 0, 1], [0, 1, 1]])
    odd1 = IntMatrix([[1, 0, 1]])
    even = IntMatrix([[1, 0, 0, 1]])
    for f, oracle, args in (
        (first_nonisotropic, oracle_first_nonisotropic, (odd2,)),
        (pairing_matrix, oracle_pairing_matrix, (odd2, odd2)),
        (pairing_matrix, oracle_pairing_matrix, (even, odd1)),
    ):
        errors = []
        for fn in (f, oracle):
            try:
                fn(*args)
            except ValueError as e:
                errors.append(str(e))
        assert len(errors) == 2 and errors[0] == errors[1]
    assert first_nonisotropic(odd1) is oracle_first_nonisotropic(odd1) is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), seeds, st.integers(0, 12), seeds)
def test_is_symplectic_matches_the_oracle(genus, seed, count, change):
    s = random_symplectic(genus, seed, count)
    assert is_symplectic(s) is oracle_is_symplectic(s) is True
    j = SymplecticLattice(genus).form_matrix()
    assert is_symplectic(-j) is oracle_is_symplectic(-j)
    if genus:
        rng = random.Random(change)
        rows = [list(r) for r in s.entries]
        rows[rng.randrange(2 * genus)][rng.randrange(2 * genus)] += rng.choice((-2, -1, 1, 3))
        bent = IntMatrix(rows)
        assert is_symplectic(bent) is oracle_is_symplectic(bent)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("trisect") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_invariants_command_makes_no_omega_call(monkeypatch, tmp_path):
    d = builtin("s2xs2-g2-model")
    for piece in ("cp2", "s1xs3", "cp2-mirror") * 3 + ("cp2",):
        d = connect_sum(d, builtin(piece))
    d = shuffle_diagram(d, random.Random(12), slides=6)
    assert d.genus == 12
    path = tmp_path / "g12.tris"
    path.write_text(serialize_diagram(d))
    omegas = _count_calls(monkeypatch, trisect.symplectic, "omega")
    snfs = _count_calls(monkeypatch, trisect.intlin, "snf")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["invariants", str(path)]) == 0
    assert len(omegas) == 0
    assert len(snfs) == 7
