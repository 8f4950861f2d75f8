"""Isotropy is one scan at every genus, and products are packed in `intlin`
alone.

`first_nonisotropic` scans the upper triangle of a system's pairings up to
the first nonzero one.  The oracle keeps the replaced two-path version
verbatim, with its size test inlined: from 1000 multiplications up
it formed the whole packed g x g product, and it scanned only where
packing declined.  `validate` no longer calls it: it reads every pairing,
the isotropy scans included, off one Gram product of the stacked systems,
so `validate` of a valid diagram of genus 10 or more forms one packed
product, where it formed six and then three.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisect
from trisect import IntMatrix, builtin, connect_sum, random_symplectic, validate
from trisect.intlin import _packed_dots
from trisect.symplectic import _dual, first_nonisotropic

from helpers import random_valid_diagram, shuffle_diagram
from test_kernels import _count_calls, seeds


def oracle_first_nonisotropic(rows: IntMatrix):
    r = rows.entries
    if len(r) > 1 and rows.cols % 2:
        raise ValueError("vectors must have even length")
    duals = [_dual(v) for v in r]
    n = len(r)
    pairs = None
    if len(r) * len(duals) * (len(duals[0]) if duals else 0) >= 1000:
        pairs = _packed_dots(r, duals)
    if pairs is not None:
        return next(
            ((i, j, pairs[i][j]) for i in range(n) for j in range(i + 1, n) if pairs[i][j]), None
        )
    for i in range(n):
        for j in range(i + 1, n):
            val = sum(a * b for a, b in zip(r[i], duals[j]))
            if val != 0:
                return (i, j, val)
    return None


def lagrangian_rows(genus: int, seed: int, count: int) -> list[list[int]]:
    """The x rows of a seeded symplectic matrix: a Lagrangian basis."""
    return [list(r) for r in random_symplectic(genus, seed, count).entries[:genus]]


# scales of the entries: 2**31 puts the product bound 2g * max**2 past
# 2**63 from genus 2 up, where the replaced version scanned instead of packing
SCALES = (1, 3, 2**20, 2**31, 2**40)


@settings(max_examples=150, deadline=None)
@given(st.integers(10, 30), seeds, st.integers(0, 30), st.sampled_from(SCALES), st.integers(0, 4))
@example(10, 1, 20, 1, 1)
@example(30, 2, 30, 2**31, 1)  # bound past 2**63
@example(24, 3, 10, 2**40, 3)
@example(12, 4, 0, 1, 0)  # isotropic: no pairing is nonzero
def test_first_nonisotropic_matches_the_two_path_version(genus, seed, count, scale, changes):
    rng = random.Random(seed)
    rows = [[scale * e for e in r] for r in lagrangian_rows(genus, seed, count)]
    for _ in range(changes):
        rows[rng.randrange(genus)][rng.randrange(2 * genus)] += rng.choice((-1, 1, 2, scale))
    x = IntMatrix(rows)
    want = oracle_first_nonisotropic(x)
    assert first_nonisotropic(x) == want
    if not changes:
        assert want is None


def test_first_nonisotropic_matches_on_a_late_pair():
    # the y row dual to x_15 pairs with x_15 alone, so only the last two
    # rows pair and the scan runs the whole triangle
    s = random_symplectic(16, 5, 12).entries
    rows = [list(r) for r in s[:16]]
    rows[15] = [e + f for e, f in zip(rows[15], s[16 + 14])]
    x = IntMatrix(rows)
    assert first_nonisotropic(x) == oracle_first_nonisotropic(x)
    i, j, val = first_nonisotropic(x)
    assert (i, j) == (14, 15) and val != 0


def test_first_nonisotropic_forms_no_product(monkeypatch):
    packed = _count_calls(monkeypatch, trisect.intlin, "_packed_dots")
    dots = _count_calls(monkeypatch, trisect.intlin, "_dots")
    x = IntMatrix(lagrangian_rows(24, 6, 20))
    assert first_nonisotropic(x) is None
    assert packed == [] and dots == []


def test_validate_forms_one_packed_product_per_pairing(monkeypatch):
    rng = random.Random(10)
    d = random_valid_diagram(10, max_genus=9)
    while d.genus < 10:
        d = connect_sum(d, builtin(rng.choice(("cp2", "s1xs3", "s2xs2-g2-model"))))
    d = shuffle_diagram(d, rng)
    packed = _count_calls(monkeypatch, trisect.intlin, "_packed_dots")
    assert validate(d).valid
    assert len(packed) == 1
