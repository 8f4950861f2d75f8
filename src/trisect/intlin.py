"""Exact integer linear algebra on small dense matrices.

Everything here runs on Python's arbitrary-precision integers (exact
rationals where noted), so results are exact and overflow cannot happen.
The matrices in this package have at most a few dozen rows, so the
eliminations are plain elementary-operation methods.

Every matrix product in the package is formed by `_dots`, and only this
module decides how.  It packs each coordinate column of the right factor
into one integer of slots (Kronecker substitution), so each row of the
product is a single sum of products of a small int and a big one, read
back slot by slot.  The operands' bound alone picks the slots: if no
entry of the product can reach 2**63 in magnitude (the exact bound is
length * max|a| * max|b|), they are the narrowest signed array slots of
16, 32 or 64 bits that hold the bound (`_packed_dots`); otherwise they
are as many whole bytes as the bound needs, read through int.from_bytes
(`_wide_dots`).  Both are exact.

Fraction-free elimination takes its steps through `_bareiss`, which
`IntMatrix.det` and `symmetric_signature` share.

`snf` records its row and column operations, and the transforms u and v
of its `SmithDecomposition` are `functools.cached_property`s that replay
the records: each is built once, on first read, and never for a caller
that reads only d.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, Sequence, Union

# packed slots are written and read back through signed arrays, which
# need little-endian items and an 8-byte 'q'; elsewhere products take
# `_wide_dots`.
_WORD_ARRAY = array("q").itemsize == 8 and sys.byteorder == "little"
# (bytes, typecode) of the signed array slots of 16, 32 and 64 bits, narrowest first
_SLOTS = sorted({array(c).itemsize: c for c in "qih"}.items())


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
        return cls._of(tuple(map(tuple, _identity(n))), n)

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
        return self._entrywise(other, add, "+")

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, sub, "-")

    def _entrywise(self, other, op, symbol: str) -> "IntMatrix":
        """self op other entry by entry, for a matrix ``other`` of the same shape."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {symbol} {other.shape}")
        rows = tuple(tuple(map(op, r, s)) for r, s in zip(self.entries, other.entries))
        return IntMatrix._of(rows, self.cols)

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
                i = next((r for r in range(k + 1, n) if a[r][k]), None)
                if i is None:
                    return 0
                a[k], a[i], sign = a[i], a[k], -sign
            _bareiss(a, k, range(k + 1, n), prev)
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def _identity(n: int) -> list[list[int]]:
    """The n x n identity as rows to be changed in place: rows of zeros
    with a single 1 set in each."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _bareiss(grid: list[list[int]], p: int, rest: Sequence[int], prev: int) -> None:
    """One fraction-free elimination step on pivot grid[p][p], in place:
    every grid[i][j] with i and j in ``rest`` (which holds neither p nor
    a repeat) becomes (grid[i][j] * grid[p][p] - grid[i][p] * grid[p][j])
    // prev, where ``prev`` is the previous step's pivot (1 at the first).
    Bareiss's identity makes every division exact."""
    top, d = grid[p], grid[p][p]
    for i in rest:
        row, c = grid[i], grid[i][p]
        for j in rest:
            row[j] = (row[j] * d - c * top[j]) // prev


def _dots(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Every dot product: row i, column j is a_rows[i] . b_rows[j].

    The rows all have one length.  Every product, whatever its size, is
    `_packed_dots` where the operands' `_bound` fits a signed slot of 16,
    32 or 64 bits and `_wide_dots` where it does not.
    """
    bound = _bound(a_rows, b_rows)
    dots = _packed_dots(a_rows, b_rows, bound)
    return _wide_dots(a_rows, b_rows, bound) if dots is None else dots


def _bound(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> int:
    """length * max|a| * max|b|, which no entry of the product exceeds in magnitude."""
    return (
        (len(b_rows[0]) if b_rows else 0)
        * max(map(abs, chain.from_iterable(a_rows)), default=0)
        * max(map(abs, chain.from_iterable(b_rows)), default=0)
    )


def _packed_dots(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]], bound: int | None = None
) -> tuple[tuple[int, ...], ...] | None:
    """`_dots` by Kronecker substitution, or None where it does not apply:
    some entry could reach 2**63 in magnitude, or there is no word array
    (`_WORD_ARRAY`).  ``bound`` is `_bound` of the operands, computed here
    if the caller has not.

    A slot is w bits, the narrowest of the signed array slots of 16, 32
    and 64 bits with bound < 2**(w-1), so every entry of b and of the
    product is at most length * max|a| * max|b| < 2**(w-1) in magnitude.
    Coordinate l of all the b rows is packed into one integer,
    sum_j b_rows[j][l] * 2**(w * j), so row i of the product, sum_l
    a_rows[i][l] * packed[l], holds entry j in slot j, and no slot
    overflows into the next.  Adding 2**(w-1) to every slot makes each
    one nonnegative without carries; flipping the same bits back leaves
    each slot's two's complement, which the array reads.  Packing is the
    reverse: the entries' two's complements, read as one integer with
    each slot's top bit flipped, less 2**(w-1) per slot.
    """
    n = len(b_rows)
    if bound is None:
        bound = _bound(a_rows, b_rows)
    if not bound:
        return ((0,) * n,) * len(a_rows)
    if bound >> 63 or not _WORD_ARRAY:
        return None
    size, code = next(slot for slot in _SLOTS if not bound >> (8 * slot[0] - 1))
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")  # 2**(w-1) in every slot
    packed = [
        (int.from_bytes(array(code, col).tobytes(), "little") ^ bias) - bias for col in zip(*b_rows)
    ]
    return tuple(
        tuple(array(code, ((sum(map(mul, a, packed)) + bias) ^ bias).to_bytes(size * n, "little")))
        for a in a_rows
    )


def _wide_dots(
    a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]], bound: int
) -> tuple[tuple[int, ...], ...]:
    """`_dots` by Kronecker substitution into slots of whole bytes, for the
    operands' `_bound` ``bound`` however large, on any platform.

    A slot is w = 8 * size bits, the fewest whole bytes that hold the
    bound's bit length and a sign bit, so every entry of b and of the
    product lies in (-2**(w-1), 2**(w-1)).  Adding 2**(w-1) to an entry
    makes it a nonnegative slot, so a column of b goes in through
    int.to_bytes with that bias in each slot, and the biases are taken off
    the packed integer at once.  Row i of the product, plus the same
    biases, holds every entry plus 2**(w-1) in its slot without carries,
    and is read back slot by slot through int.from_bytes.
    """
    n = len(b_rows)
    if not bound:
        return ((0,) * n,) * len(a_rows)
    size = (bound.bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")  # half in every slot
    from_bytes = int.from_bytes
    packed = [
        from_bytes(b"".join([(x + half).to_bytes(size, "little") for x in col]), "little") - bias
        for col in zip(*b_rows)
    ]
    slots = range(0, size * n, size)
    out = []
    for a in a_rows:
        row = (sum(map(mul, a, packed)) + bias).to_bytes(size * n, "little")
        out.append(tuple([from_bytes(row[k : k + size], "little") - half for k in slots]))
    return tuple(out)


@dataclass(frozen=True, init=False, eq=False)
class SmithDecomposition:
    """Factorization d = u @ m @ v with u, v unimodular and d in Smith form.

    Built from (d, u, v), by position or keyword, and compares, hashes
    and prints by them, so its repr evaluates back to it; immutable.  A
    decomposition returned by `snf` holds d and the row and column
    operations of its elimination, and u and v are cached properties
    that replay them: each transform is built once, on first read, so a
    caller that reads only d never pays for the transforms.  The column
    record clears the row of each unit pivot with one ``clear`` op, which
    `_replay` expands into the column additions it stands for, so v is
    the eager elimination's.
    """

    d: IntMatrix

    def __init__(self, d: IntMatrix, u: IntMatrix | None, v: IntMatrix | None):
        vars(self).update(d=d, u=u, v=v)

    @cached_property
    def u(self) -> IntMatrix:
        return IntMatrix._of(_replay(self.d.rows, self._row_ops), self.d.rows)

    @cached_property
    def v(self) -> IntMatrix:
        return IntMatrix._of(tuple(zip(*_replay(self.d.cols, self._col_ops))), self.d.cols)

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
    ("swap", i, j), ("add", i, j, q) for row_i += q * row_j, ("neg", i),
    and ("clear", i, (c_1, c_2, ...)), which stands for ("add", i + k, i,
    -c_k) for each nonzero c_k in turn."""
    rows = _identity(n)
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "add":
            q = op[3]
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[op[2]])]
        elif kind == "clear":
            for k, c in enumerate(op[2], i + 1):
                if c:
                    rows[k] = [x - c * y for x, y in zip(rows[k], rows[i])]
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
    operations (swap, add a multiple, negate) instead of carrying u and v,
    and stores d and the two records on the decomposition.  Its u and v
    are cached properties that replay a record the first time they are
    read (see `SmithDecomposition`), and equal the transforms an eager
    elimination would have carried.  Only left kernels read u:
    `left_kernel_basis` and `symplectic.triple_homology`.  Built
    transforms grow faster than the block: about 3000 bits for genus 3-7
    diagrams built from 40 random transvections, and 343k bits for a
    random 40 x 40 matrix with entries in [-9, 9]; a caller that reads
    only d never computes them.

    Row 0 of the block is the pivot row and the row pass clears column 0
    below the pivot, so during the column pass column 0 is zero off the
    pivot and ``col_j -= q * col_0`` changes only the pivot row.  Column
    operations are recorded as row operations on the transpose of v.  A
    pivot of 1 divides its whole row, and that row is deleted with column
    0 right after, so its column pass changes nothing the elimination
    reads: it is recorded as one ``("clear", t, row[1:])`` op for v, and
    the row is left as it is.
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
                if top[0] == 1:
                    # the pivot row goes with column 0, so only v reads this pass
                    col_ops.append(("clear", t, tuple(top[1:])))
                    break
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
    dec = object.__new__(SmithDecomposition)
    vars(dec).update(d=IntMatrix._of(tuple(map(tuple, d)), nc), _row_ops=row_ops, _col_ops=col_ops)
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
    """Row Hermite normal form of the lattice the rows span: positive
    pivots in staircase position, entries above each pivot reduced into
    [0, pivot).

    The rows may be dependent, with zeros and repeats among them: zero
    rows drop out, so the result has one row per unit of rank.
    ``moves._transition`` passes the 2g columns of two rank-g matrices."""
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
        _bareiss(grid, p, active, prev)
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
