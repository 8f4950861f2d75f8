"""Exact integer linear algebra on small dense matrices.

Everything here runs on Python's arbitrary-precision integers (exact
rationals where noted), so results are exact and overflow cannot happen.
The matrices in this package have at most a few dozen rows, so the
eliminations are plain elementary-operation methods.

Every matrix product in the package is formed by `_dots`, and only this
module decides how.  Below `_PACK_MIN` multiplications it takes plain
dot products.  At or above it, if no entry of the product can reach
2**63 in magnitude (the exact bound is length * max|a| * max|b|), it
packs each coordinate column of the right factor into one integer of
64-bit slots (Kronecker substitution), so each row of the product is a
single sum of products of a small int and a big one, read back slot by
slot.  Wider products take the plain dot products too, so every product
is exact.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, mul, neg
from typing import Iterable, Sequence, Union

# Products of fewer multiplications (rows x cols x length) take plain dot
# products.  Set above 1372, the largest product that validating a genus-7
# diagram forms (a 2g x g x 2g pairing), so validation up to genus 7 stays
# plain; packing was 1.9x faster at 12 x 12 x 24 (CPython 3.11, x86-64).
_PACK_MIN = 1500

# Slots are packed and read back through array('q'), which needs
# little-endian 8-byte items; elsewhere every product is plain.
_WORD_ARRAY = array("q").itemsize == 8 and sys.byteorder == "little"


def _require_int(value, what: str, least: int | None = None) -> None:
    """Raise TypeError unless value is exactly an int (bool subclasses int),
    then ValueError if it is below the floor ``least``."""
    if type(value) is not int:
        raise TypeError(f"{what} must be int, got {type(value).__name__}")
    if least is not None and value < least:
        if least == 0:
            raise ValueError(f"{what} must be nonnegative")
        raise ValueError(f"{what} must be >= {least}")


@dataclass(frozen=True, init=False, repr=False)
class IntMatrix:
    """An immutable matrix of Python ints.

    ``entries`` is a tuple of row tuples.  Instances compare and hash by
    value, so they can be used as dict keys and set members.  ``cols``
    must be passed explicitly when constructing a matrix with zero rows.

    The public constructor is the entry check: it requires exact ``int``
    entries (no bools, no floats) and rows of one width.  Data from
    outside the package comes in through it.  Arithmetic on matrices that
    were already checked (sums, products, transposes, stacks, the Smith
    form and the matrices built from checked ones elsewhere in the
    package) builds its result through the private `_of`, which stores
    the row tuples it is given without looking at them again.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        packed = []
        for r in entries:
            row = tuple(r)
            for e in row:
                if type(e) is not int:  # bool subclasses int
                    raise TypeError(f"matrix entries must be int, got {type(e).__name__}")
            packed.append(row)
        if packed:
            width = len(packed[0])
            if any(len(r) != width for r in packed):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row length {width}")
        else:
            width = 0 if cols is None else cols
            _require_int(width, "cols", 0)
        vars(self).update(rows=len(packed), cols=width, entries=tuple(packed))

    @classmethod
    def _of(cls, entries: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """A matrix of trusted rows: a tuple of ``cols``-wide tuples of exact ints."""
        m = object.__new__(cls)
        vars(m).update(rows=len(entries), cols=cols, entries=entries)
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _require_int(n, "size", 0)
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _require_int(rows, "rows", 0)
        _require_int(cols, "cols", 0)
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def __repr__(self) -> str:
        if not self.rows:  # the width is not in the rows, so it is spelled out
            return f"IntMatrix([], cols={self.cols})"
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return IntMatrix._of(
            tuple(tuple(map(add, r, s)) for r, s in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(map(neg, r)) for r in self.entries), self.cols)

    def __mul__(self, scalar: int) -> "IntMatrix":
        if type(scalar) is not int:  # bool subclasses int
            return NotImplemented
        return IntMatrix([[scalar * e for e in r] for r in self.entries], cols=self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return IntMatrix._of(_dots(self.entries, other.transpose().entries), other.cols)

    def transpose(self) -> "IntMatrix":
        t = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return IntMatrix._of(t, self.rows)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError(f"column mismatch {self.cols} vs {other.cols}")
        return IntMatrix._of(self.entries + other.entries, self.cols)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        """Rows r0:r1, columns c0:c1 (half-open), for exact ints with
        0 <= r0 <= r1 <= rows and 0 <= c0 <= c1 <= cols."""
        for name, value, least in (("r0", r0, 0), ("r1", r1, r0), ("c0", c0, 0), ("c1", c1, c0)):
            _require_int(value, name, least)
        if r1 > self.rows or c1 > self.cols:
            raise IndexError(f"submatrix [{r0}:{r1}, {c0}:{c1}] out of range for shape {self.shape}")
        return IntMatrix([r[c0:c1] for r in self.entries[r0:r1]], cols=c1 - c0)

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.entries for e in r)

    def det(self) -> int:
        """Determinant by the Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # exact division: Bareiss guarantees prev divides this
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _dots(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Every dot product: row i, column j is a_rows[i] . b_rows[j].

    The rows all have one length.  A product of `_PACK_MIN` or more
    multiplications is `_packed_dots` where that applies; a smaller one,
    which plain dot products form faster, and a wider one take plain dot
    products.
    """
    if len(a_rows) * len(b_rows) * (len(b_rows[0]) if b_rows else 0) >= _PACK_MIN:
        dots = _packed_dots(a_rows, b_rows)
        if dots is not None:
            return dots
    return tuple(tuple([sum(map(mul, a, b)) for b in b_rows]) for a in a_rows)


def _packed_dots(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...] | None:
    """`_dots` by Kronecker substitution, or None where it does not apply:
    some entry could reach 2**63 in magnitude, or array('q') is not
    little-endian 8-byte words.

    Coordinate l of all the b rows is packed into one integer,
    sum_j b_rows[j][l] * 2**(64 * j).  Every entry of the product is at
    most length * max|a| * max|b| < 2**63 in magnitude, so row i of the
    product, sum_l a_rows[i][l] * packed[l], holds entry j in slot j, and
    no slot overflows into the next.  Adding 2**63 to every slot makes
    each one nonnegative without carries; flipping the same bits back
    leaves each slot's two's complement, which array('q') reads.  Packing
    is the reverse: the entries' two's complements, read as one integer
    with each slot's top bit flipped, less 2**63 per slot.
    """
    n = len(b_rows)
    bound = (
        (len(b_rows[0]) if b_rows else 0)
        * max(map(abs, chain.from_iterable(a_rows)), default=0)
        * max(map(abs, chain.from_iterable(b_rows)), default=0)
    )
    if not bound:
        return ((0,) * n,) * len(a_rows)
    if bound >> 63 or not _WORD_ARRAY:
        return None
    bias = int.from_bytes((bytes(7) + b"\x80") * n, "little")  # 2**63 in every slot
    packed = [
        (int.from_bytes(array("q", col).tobytes(), "little") ^ bias) - bias for col in zip(*b_rows)
    ]
    return tuple(
        tuple(array("q", ((sum(map(mul, a, packed)) + bias) ^ bias).to_bytes(8 * n, "little")))
        for a in a_rows
    )


@dataclass(frozen=True, init=False, eq=False)
class SmithDecomposition:
    """Factorization d = u @ m @ v with u, v unimodular and d in Smith form.

    Built from (d, u, v), by position or keyword, and compares, hashes
    and prints by them, so its repr evaluates back to it; immutable.  A
    decomposition returned by `snf` holds the row and column operations of
    its elimination instead of u and v: each transform is built from them
    the first time it is read, then kept, so a caller that reads only d
    never pays for the transforms.
    """

    d: IntMatrix
    _u: IntMatrix | None
    _v: IntMatrix | None
    _row_ops: list | None = field(default=None, init=False, repr=False)
    _col_ops: list | None = field(default=None, init=False, repr=False)

    def __init__(self, d: IntMatrix, u: IntMatrix | None, v: IntMatrix | None):
        vars(self).update(d=d, _u=u, _v=v, _row_ops=None, _col_ops=None)

    # A transform is stored before its record is dropped, so a reader that
    # finds no record finds the transform, even while another thread builds.
    @property
    def u(self) -> IntMatrix:
        ops = self._row_ops
        if ops is not None:
            n = self.d.rows
            object.__setattr__(self, "_u", IntMatrix._of(_replay(n, ops), n))
            object.__setattr__(self, "_row_ops", None)
        return self._u

    @property
    def v(self) -> IntMatrix:
        ops = self._col_ops
        if ops is not None:
            n = self.d.cols
            object.__setattr__(self, "_v", IntMatrix._of(tuple(zip(*_replay(n, ops))), n))
            object.__setattr__(self, "_col_ops", None)
        return self._v

    def __eq__(self, other) -> bool:
        if not isinstance(other, SmithDecomposition):
            return NotImplemented
        return (self.d, self.u, self.v) == (other.d, other.u, other.v)

    def __hash__(self) -> int:
        return hash((self.d, self.u, self.v))

    def __repr__(self) -> str:
        return f"SmithDecomposition(d={self.d!r}, u={self.u!r}, v={self.v!r})"

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for e in self.diagonal if e)


def _replay(n: int, ops: list) -> tuple[tuple[int, ...], ...]:
    """The n x n identity with the recorded row operations applied in order:
    ("swap", i, j), ("add", i, j, q) for row_i += q * row_j, ("neg", i)."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "add":
            q = op[3]
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[op[2]])]
        elif kind == "swap":
            j = op[2]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return tuple(map(tuple, rows))


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transforms.

    Returns a decomposition with ``d == u @ m @ v`` where u and v are
    unimodular and d is diagonal with nonnegative entries satisfying
    d[0] | d[1] | ... (zeros last).  The pivot at each step is the first
    smallest-magnitude nonzero entry of the trailing block in row-major
    order, so the search stops at the first entry of magnitude 1.  Division
    by the pivot leaves remainders strictly smaller than it, so each inner
    loop terminates; a trailing entry not divisible by the pivot is fixed
    by adding its row into the pivot row and re-reducing (never needed for
    a pivot of 1).  The rule bounds each quotient by the block's largest
    entry over its smallest.  It does not bound the entries of the block,
    which compound over the steps (Cohen, GTM 138, section 2.4).

    The elimination updates only the trailing block: ``block`` holds rows
    t.. and columns t.. of the working matrix, and loses its first row and
    column once pivot t is fixed.  It records its row and column
    operations (swap, add a multiple, negate) instead of carrying u and v;
    each transform is built from the record the first time it is read
    (see `SmithDecomposition`) and equals the one an eager elimination
    would have carried.  Only left kernels read u: `left_kernel_basis`
    and `symplectic.triple_homology`.  Built transforms grow faster than
    the block: about 3000 bits for genus 3-7 diagrams built from 40
    random transvections, and 343k bits for a random 40 x 40 matrix with
    entries in [-9, 9]; a caller that reads only d never computes them.

    Row 0 of the block is the pivot row and the row pass clears column 0
    below the pivot, so during the column pass column 0 is zero off the
    pivot and ``col_j -= q * col_0`` changes only the pivot row.  Column
    operations are recorded as row operations on the transpose of v.
    """
    nr, nc = m.rows, m.cols
    block = [list(r) for r in m.entries]
    diag = []
    row_ops, col_ops = [], []

    def swap_cols(j):
        for row in block:
            row[0], row[j] = row[j], row[0]
        col_ops.append(("swap", t, t + j))

    t = 0
    while block and block[0]:
        piv, best = None, 0
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                if e and (piv is None or abs(e) < best):
                    piv, best = (i, j), abs(e)
                    if best == 1:
                        break
            else:
                continue
            break
        if piv is None:
            break
        if piv[0]:
            block[0], block[piv[0]] = block[piv[0]], block[0]
            row_ops.append(("swap", t, t + piv[0]))
        if piv[1]:
            swap_cols(piv[1])
        if block[0][0] < 0:
            block[0] = [-x for x in block[0]]
            row_ops.append(("neg", t))

        # a pass that makes a smaller pivot breaks to restart; clean passes end the loop
        while True:
            top = block[0]
            for i in range(1, len(block)):
                row = block[i]
                if row[0]:
                    q, r = divmod(row[0], top[0])
                    block[i] = [x - q * y for x, y in zip(row, top)]
                    row_ops.append(("add", t + i, t, -q))
                    if r:
                        # the remainder is a strictly smaller pivot
                        block[0], block[i] = block[i], block[0]
                        row_ops.append(("swap", t, t + i))
                        break
            else:
                for j in range(1, len(top)):
                    if top[j]:
                        q, r = divmod(top[j], top[0])
                        top[j] = r
                        col_ops.append(("add", t + j, t, -q))
                        if r:
                            swap_cols(j)
                            break
                else:
                    break

        p = top[0]
        offender = None
        if p != 1:
            # column 0 is zero below the pivot, so whole rows can be tested
            for i in range(1, len(block)):
                if any(x % p for x in block[i]):
                    offender = i
                    break
        if offender is not None:
            # pull the offending row into the pivot row; re-reducing
            # shrinks the pivot toward the gcd of the trailing block
            block[0] = [x + y for x, y in zip(top, block[offender])]
            row_ops.append(("add", t, t + offender, 1))
            continue
        diag.append(p)
        del block[0]
        for row in block:
            del row[0]
        t += 1

    d = [[0] * nc for _ in range(nr)]
    for i, p in enumerate(diag):
        d[i][i] = p
    dec = SmithDecomposition(IntMatrix._of(tuple(map(tuple, d)), nc), None, None)
    object.__setattr__(dec, "_row_ops", row_ops)
    object.__setattr__(dec, "_col_ops", col_ops)
    return dec


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m (length min(rows, cols), zeros last)."""
    return snf(m).diagonal


def is_primitive(m: IntMatrix) -> bool:
    """Whether the rows of m are a basis of a direct summand of Z^cols.

    Requires rows <= cols.  True iff m has full row rank and every
    invariant factor equals 1; equivalently the row span is saturated
    (no vector outside has a multiple inside) with the rows as a basis.
    """
    if m.rows > m.cols:
        raise ValueError("is_primitive expects rows <= cols")
    return all(e == 1 for e in snf(m).diagonal)


def left_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturated left kernel {v in Z^rows : v @ m = 0}, as rows.

    With d = u @ m @ v, d's zeros come last, so the rows of u past the
    rank of d span exactly the integer kernel, and the span is saturated
    because u is unimodular.  The rows are normalized to row Hermite form
    so the result is canonical.  A trivial kernel gives a 0 x rows matrix.
    """
    dec = snf(m)
    return _hermite(dec.u.entries[dec.rank:], m.rows)


def _hermite(rows: Sequence[Sequence[int]], ncols: int) -> IntMatrix:
    """Row Hermite normal form of independent rows: positive pivots in
    staircase position, entries above each pivot reduced into [0, pivot)."""
    work = [list(r) for r in rows]
    nr = len(work)
    pr = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, nr) if work[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][col]))
            p = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[p][col]
                work[i] = [x - q * y for x, y in zip(work[i], work[p])]
        if not nz:
            continue
        work[pr], work[nz[0]] = work[nz[0]], work[pr]
        if work[pr][col] < 0:
            work[pr] = [-x for x in work[pr]]
        for i in range(pr):
            q = work[i][col] // work[pr][col]
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[pr])]
        pr += 1
    return IntMatrix._of(tuple(map(tuple, work[:pr])), ncols)


Rational = Union[int, Fraction]


def symmetric_signature(s: IntMatrix | Sequence[Sequence[Rational]]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a symmetric rational form.

    Accepts an IntMatrix or any square grid of exact ints and Fractions
    (anything else is a TypeError); a grid with fractions is first scaled
    by the positive lcm of its denominators, which keeps the inertia.
    Works by congruence elimination over the integers in the manner of
    Bareiss: after each pivot the active block holds ``prev`` times the
    true Schur complement, where ``prev`` is the previous stored pivot, so
    every division is exact and the true pivot has the sign of the stored
    one times the sign of ``prev``.  A nonzero diagonal entry is split off
    directly; if every active diagonal entry vanishes but some pairing b =
    s[i][j] is nonzero, the congruence v_i += v_j makes the diagonal entry
    2b nonzero (a congruence on the active indices keeps the divisions
    exact), and the hyperbolic plane then splits off as one positive and
    one negative square.  All-zero remainder counts as n_zero.  No
    floating point is involved.
    """
    if isinstance(s, IntMatrix):
        grid = [list(r) for r in s.entries]
    else:
        rows = [list(r) for r in s]
        for e in chain.from_iterable(rows):
            if type(e) is not int and type(e) is not Fraction:  # bool subclasses int
                raise TypeError(f"form entries must be int or Fraction, got {type(e).__name__}")
        scale = lcm(*(e.denominator for e in chain.from_iterable(rows)))
        grid = [[e.numerator * (scale // e.denominator) for e in r] for r in rows]
    n = len(grid)
    if any(len(r) != n for r in grid):
        raise ValueError("form matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i][j] != grid[j][i]:
                raise ValueError("form matrix must be symmetric")

    n_pos = n_neg = n_zero = 0
    prev = 1
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
        if (d > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        active.remove(p)
        pivot_row = grid[p]
        for i in active:
            row = grid[i]
            c = row[p]
            for j in active:
                # exact division: Bareiss guarantees prev divides this
                row[j] = (row[j] * d - c * pivot_row[j]) // prev
        prev = d
    return (n_pos, n_neg, n_zero)


def random_unimodular(n: int, seed: int, op_count: int) -> IntMatrix:
    """Deterministic pseudo-random unimodular matrix.

    Applies op_count elementary row operations (add a small multiple of
    one row to another, swap two rows, negate a row) to the identity,
    drawn from random.Random(seed).  The same (n, seed, op_count) always
    produces the same matrix, and |det| = 1 by construction.
    """
    _require_int(n, "size", 1)
    _require_int(op_count, "op_count", 0)
    rng = random.Random(seed)
    ops = []
    for _ in range(op_count):
        if n == 1:
            ops.append(("neg", 0))
            continue
        roll = rng.random()
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        if roll < 0.7:
            ops.append(("add", i, j, rng.choice((-2, -1, 1, 2))))
        elif roll < 0.85:
            ops.append(("swap", i, j))
        else:
            ops.append(("neg", i))
    return IntMatrix._of(_replay(n, ops), n)
