"""The standard symplectic lattice Z^(2g) and Lagrangian triples.

Coordinates use the ordered basis (x_1, ..., x_g, y_1, ..., y_g) of the
first homology of the closed genus-g surface, with intersection form
omega(x_i, y_j) = delta_ij and omega(x_i, x_j) = omega(y_i, y_j) = 0.
Vectors are rows and transformations act on the right, v -> v @ s.

The Maslov index of a Lagrangian triple (l1, l2, l3) is the signature of
the symmetric bilinear form psi((a, b, c), (a', b', c')) = omega(a, b')
on the solution lattice w = {(a, b, c) in l1 x l2 x l3 : a + b + c = 0}.
With these conventions the genus-1 triple spanned by (1,0), (0,1), (1,1)
has index +1, which normalizes the sign for the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Iterable, Sequence

import random

from . import intlin
from .intlin import IntMatrix, _dots, _identity, _require_int, is_primitive, symmetric_signature


@dataclass(frozen=True)
class SymplecticLattice:
    """The lattice Z^(2g) with the standard symplectic form."""

    genus: int

    def __post_init__(self):
        _require_int(self.genus, "genus", 0)

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def form_matrix(self) -> IntMatrix:
        """The Gram matrix j of omega: omega(u, v) = u @ j @ v^T."""
        g = self.genus
        rows = [[0] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            rows[i][g + i] = 1
            rows[g + i][i] = -1
        return IntMatrix._of(tuple(map(tuple, rows)), 2 * g)

    def x(self, i: int) -> tuple[int, ...]:
        """The basis vector x_(i+1), 0-based."""
        return self._unit("x", i, 0)

    def y(self, i: int) -> tuple[int, ...]:
        """The basis vector y_(i+1), 0-based."""
        return self._unit("y", i, self.genus)

    def _unit(self, name: str, i: int, offset: int) -> tuple[int, ...]:
        """The unit vector at coordinate offset + i, for an exact int index i."""
        _require_int(i, f"{name} index")
        if not 0 <= i < self.genus:
            raise IndexError(f"{name} index out of range")
        return tuple(int(k == offset + i) for k in range(self.dim))


def omega(u: Sequence[int], v: Sequence[int]) -> int:
    """The symplectic pairing of two coordinate rows of equal even length
    and exact int coordinates."""
    for e in (*u, *v):
        _require_int(e, "coordinates")
    if len(u) != len(v):
        raise ValueError("vectors live in different lattices")
    if len(u) % 2:
        raise ValueError("vectors must have even length")
    return sum(map(mul, u, _dual(v)))


def is_lagrangian(basis: IntMatrix) -> bool:
    """Whether the rows of ``basis`` span a Lagrangian sublattice.

    ``basis`` must be g x 2g.  True iff the rows are a primitive system
    of rank g (a basis of a saturated sublattice) and pairwise
    omega-orthogonal.

    It reduces the raw classes through ``is_primitive``, whose Smith form
    is not widened as ``validate``'s is, so on dense classes it costs
    more than validating a whole diagram: three calls on the systems of
    a diagram with 50-bit entries at g = 7 took about 4 ms, and with
    87-bit entries at g = 12 about 15 ms, against 0.8 and 2.3 ms for its
    ``validate`` (Python 3.11.7, 2-vCPU host).
    """
    if basis.cols % 2:
        raise ValueError("ambient rank must be even")
    if 2 * basis.rows != basis.cols:
        raise ValueError(f"expected {basis.cols // 2} rows, got {basis.rows}")
    return is_primitive(basis) and first_nonisotropic(basis) is None


def first_nonisotropic(rows: IntMatrix) -> tuple[int, int, int] | None:
    """The first (i, j, omega(r_i, r_j)) with i < j and a nonzero pairing.

    The scan that `validate` runs on its Gram matrix, fed one row of the
    upper triangle of the pairings at a time: it stops after the row that
    holds the first nonzero one and forms no product, at every size.
    """
    r = rows.entries
    if len(r) > 1 and rows.cols % 2:
        raise ValueError("vectors must have even length")
    duals = [_dual(v) for v in r]
    return _first_nonzero(
        tuple(sum(map(mul, u, v)) for v in duals[i + 1 :]) for i, u in enumerate(r)
    )


def _first_nonzero(tails: Iterable[Sequence[int]]) -> tuple[int, int, int] | None:
    """The first (i, j, e) in row-major order with e != 0, where ``tails[i]``
    holds row i's pairings to the right of the diagonal, so e is entry
    j - i - 1 of it; read one tail at a time."""
    for i, tail in enumerate(tails):
        if any(tail):
            j = next(j for j, e in enumerate(tail) if e)
            return (i, i + 1 + j, tail[j])
    return None


def _dual(v: Sequence[int]) -> tuple[int, ...]:
    """The row v = (v_x, v_y) as (v_y, -v_x), so omega(u, v) = u . _dual(v)."""
    g = len(v) // 2
    return (*v[g:], *(-e for e in v[:g]))


@dataclass(frozen=True)
class LagrangianSublattice:
    """A Lagrangian direct summand of Z^(2g), recorded by a basis.

    ``basis`` is g x 2g; construction fails unless the rows really are a
    primitive isotropic system of full rank.  Construction runs
    ``is_lagrangian``, so it reduces the raw basis, which is slow on
    dense bases (see there).
    """

    genus: int
    basis: IntMatrix

    def __post_init__(self):
        _require_int(self.genus, "genus", 0)
        if self.basis.rows != self.genus or self.basis.cols != 2 * self.genus:
            raise ValueError(
                f"basis shape {self.basis.shape} does not match genus {self.genus}"
            )
        if not is_lagrangian(self.basis):
            raise ValueError("rows are not a Lagrangian basis")

    @classmethod
    def span(cls, *vectors: Sequence[int]) -> "LagrangianSublattice":
        """Build from g row vectors of length 2g; span() is the genus-0 lattice."""
        basis = IntMatrix(vectors)
        return cls(basis.cols // 2, basis)

    def transform(self, s: IntMatrix) -> "LagrangianSublattice":
        """Image under a symplectic matrix acting on the right."""
        if not is_symplectic(s):
            raise ValueError("transformation is not symplectic")
        return LagrangianSublattice(self.genus, self.basis @ s)


def _rows_of(obj: "LagrangianSublattice | IntMatrix") -> IntMatrix:
    return obj.basis if isinstance(obj, LagrangianSublattice) else obj


def pairing_matrix(left, right) -> IntMatrix:
    """Matrix of omega between two row families: entry (i,j) = omega(l_i, r_j).

    Accepts LagrangianSublattice or plain IntMatrix arguments; the two
    must share an ambient lattice.  Two families pair as a @ J @ b^T,
    one product of inner length 2g.  A family paired with itself, s =
    [X | Y], gives the antisymmetric P - P^T for P = X @ Y^T, since
    omega(s_i, s_j) = x_i . y_j - y_i . x_j: one product of inner length
    g, half the work.
    """
    a = _rows_of(left)
    b = _rows_of(right)
    if a.cols != b.cols:
        raise ValueError("ambient genus mismatch")
    if a.cols % 2:
        raise ValueError("ambient rank must be even")
    if a is b:
        g = a.cols // 2
        p = _dots([r[:g] for r in a.entries], [r[g:] for r in a.entries])
        return IntMatrix._of(tuple(tuple(map(sub, r, c)) for r, c in zip(p, zip(*p))), a.rows)
    return IntMatrix._of(_dots(a.entries, [_dual(v) for v in b.entries]), b.rows)


def is_symplectic(s: IntMatrix) -> bool:
    """Whether s preserves omega under the right action v -> v @ s.

    That is s @ j @ s^T == j, whose (i, j) entry is omega(s_i, s_j): the
    rows of s pair as the standard basis does.
    """
    if s.rows != s.cols:
        raise ValueError("matrix must be square")
    if s.rows % 2:
        raise ValueError("matrix rank must be even")
    return pairing_matrix(s, s) == SymplecticLattice(s.rows // 2).form_matrix()


def maslov_index(l1, l2, l3) -> int:
    """Maslov index of a Lagrangian triple.

    Arguments may be LagrangianSublattice values or g x 2g IntMatrix
    bases (which are then checked).  The index is the signature of the
    symmetric form psi((a,b,c), (a',b',c')) = omega(a, b') on the lattice
    w = {(a,b,c) : a + b + c = 0}; it is read off the pairing matrices by
    `triple_homology`.  IntMatrix arguments are checked by
    ``is_lagrangian``, which reduces the raw bases and is slow on dense
    ones (see there).
    """
    a, b, c = (_as_lagrangian(x) for x in (l1, l2, l3))
    return triple_homology(pairing_matrix(a, b), pairing_matrix(b, c), pairing_matrix(c, a))[1]


def triple_homology(q12, q23, q31) -> tuple[tuple[int, ...], int]:
    """Invariant factors of [q21; q31] and the Maslov index, from one Smith form.

    The arguments are the pairing matrices q_xy = pairing_matrix(x, y) of
    a Lagrangian triple (l1, l2, l3), so q21 = -q12^T.  Following Feller,
    Klug, Schirmer and Zemke (PNAS 2018), pairing with the basis of l1
    identifies Z^(2g) / l1 with Z^g.  So [q21; q31] presents Z^(2g) modulo
    all three spans, which is H_1 of the 4-manifold when the triple comes
    from a trisection diagram; and the coordinates (y, z) of b and c in the
    bases of l2 and l3 map the lattice w of `maslov_index` onto the left
    kernel of [q21; q31].  With [Y | Z] a basis of that kernel, psi has
    Gram matrix -Z @ q32 @ Y^T = Z @ q23^T @ Y^T.

    With d = u @ [q21; q31] @ v in Smith form, d's zeros come last, so the
    rows of u past the rank of d are a basis of the saturated kernel.  Any
    basis gives a congruent Gram matrix, so they are used as they are.
    The Gram matrix is a product of the package's own matrices, so it goes
    to `symmetric_signature` as a checked `IntMatrix`, and no entry of it
    is type-scanned or rescaled as outside input is.
    """
    g = q12.rows
    # looked up on the module, so a wrapper installed there (a tracer, a
    # call counter) sees this call too
    dec = intlin.snf((-q12.transpose()).vstack(q31))
    factors = dec.diagonal
    kernel = dec.u.entries[sum(1 for e in factors if e):]
    gram = _dots(_dots([r[g:] for r in kernel], q23.entries), [r[:g] for r in kernel])
    n_pos, n_neg, _ = symmetric_signature(IntMatrix._of(gram, len(gram)))
    return factors, n_pos - n_neg


def _as_lagrangian(x) -> LagrangianSublattice:
    if isinstance(x, LagrangianSublattice):
        return x
    if isinstance(x, IntMatrix):
        if x.cols % 2:
            raise ValueError("ambient rank must be even")
        return LagrangianSublattice(x.cols // 2, x)
    raise TypeError(f"expected LagrangianSublattice or IntMatrix, got {type(x).__name__}")


def random_symplectic(genus: int, seed: int, count: int) -> IntMatrix:
    """Deterministic product of ``count`` random symplectic transvections.

    A transvection v -> v + c * omega(v, u) * u is symplectic for every
    integer vector u and integer c; its matrix under the right action is
    i + c * (j @ u^T @ u), so each step maps every row r to r + c *
    omega(r, u) * u.  Entries of u are drawn from {-1, 0, 1} and c from
    small integers, so products stay well-conditioned for tests.
    """
    _require_int(genus, "genus", 0)
    _require_int(count, "count", 0)
    dim = 2 * genus
    if genus == 0:
        return IntMatrix.identity(0)
    rng = random.Random(seed)
    rows = _identity(dim)
    for _ in range(count):
        u = [rng.randrange(-1, 2) for _ in range(dim)]
        if all(e == 0 for e in u):
            u[rng.randrange(dim)] = 1
        c = rng.choice((1, 1, -1, -1, 2))
        dual = _dual(u)  # omega(r, u) = r . dual
        for r in rows:
            w = c * sum(map(mul, r, dual))
            if w:
                r[:] = [x + w * y for x, y in zip(r, u)]
    return IntMatrix._of(tuple(map(tuple, rows)), dim)
