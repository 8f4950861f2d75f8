"""A family paired with itself is one product of half the inner length,
packed in the narrowest slots that hold its bound.

`pairing_matrix(s, s)` forms P = X @ Y^T for s = [X | Y] and returns
P - P^T, since omega(s_i, s_j) = x_i . y_j - y_i . x_j.  It is checked
against `omega` entry by entry (`oracle_pairing_matrix`) and against the
two-family path, which an equal copy of s takes.  `_packed_dots` packs
its product into signed slots of 16, 32 or 64 bits, the narrowest whose
range holds the operands' bound; it is checked at each slot's edges.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisect
from trisect import IntMatrix, builtin, connect_sum, pairing_matrix, validate
from trisect.intlin import _WORD_ARRAY, _bound, _packed_dots

from helpers import random_valid_diagram, shuffle_diagram
from test_kernels import _count_calls, oracle_dots, oracle_pairing_matrix, seeds

# exponents k with entries near 2**k: products of two such entries, summed
# over the genus, reach past the 16-, 32- and 64-bit slot edges
BITS = (0, 1, 7, 8, 15, 16, 31, 32, 62, 63, 64)


@st.composite
def row_families(draw):
    """A 2g-wide family of 0..12 rows, genus 0..8, entries near +-2**k."""
    genus, count = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    k = draw(st.sampled_from(BITS))
    rng = random.Random(draw(seeds))
    top = 1 << k

    def entry():
        return rng.choice((top, -top, top - 1, 1 - top, top + 1, 0, rng.randint(-top, top)))

    return IntMatrix([[entry() for _ in range(2 * genus)] for _ in range(count)], cols=2 * genus)


@settings(max_examples=300, deadline=None)
@given(row_families())
@example(IntMatrix([], cols=0))  # no rows, genus 0
@example(IntMatrix([], cols=6))  # no rows
@example(IntMatrix([[], []], cols=0))  # genus 0
@example(IntMatrix([[2**15, -(2**15)], [1 - 2**15, 2**15 - 1]]))
@example(IntMatrix([[2**31, -(2**31), 1, 0], [0, 2**31 - 1, -(2**31), 1]]))
@example(IntMatrix([[2**63, 2**63 - 1], [-(2**63), 1]]))  # past every slot
def test_pairing_a_family_with_itself_matches_omega(s):
    got = pairing_matrix(s, s)
    assert got == oracle_pairing_matrix(s, s)
    assert got.shape == (s.rows, s.rows)
    assert all(got[i, i] == 0 for i in range(s.rows))
    assert got == -got.transpose()
    assert got == pairing_matrix(s, IntMatrix([list(r) for r in s.entries], cols=s.cols))
    assert all(type(e) is int for row in got.entries for e in row)


def slot_edges():
    """Bounds 2**(w-1) - 1, the largest a slot of w bits holds, and
    2**(w-1), the smallest that needs a wider one, for w = 16 and 32, and
    2**63 - 1, the largest any packed slot holds.  Entries of b and of the
    product sit at the bound, with both signs."""
    for top in (2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1):
        yield top, ((1,), (-1,)), ((top,), (-top,), (1,), (0,))
        yield top, ((top,), (-top,), (0,)), ((1,), (-1,), (0,))


def test_packed_dots_match_the_oracle_at_every_slot_edge():
    for top, a, b in slot_edges():
        assert _bound(a, b) == top
        want = oracle_dots(a, b)
        assert max(abs(e) for row in want for e in row) == top
        assert _packed_dots(a, b) == (want if _WORD_ARRAY else None)


def test_validate_packs_one_product_of_half_rows(monkeypatch):
    rng = random.Random(12)
    d = random_valid_diagram(12, max_genus=9)
    while d.genus < 12:
        d = connect_sum(d, builtin(rng.choice(("cp2", "s1xs3", "s2xs2-g2-model"))))
    d = shuffle_diagram(d, rng)
    packed = _count_calls(monkeypatch, trisect.intlin, "_packed_dots")
    assert validate(d).valid
    ((a_rows, b_rows, _),) = packed
    assert len(a_rows) == len(b_rows) == 3 * d.genus
    assert {len(r) for r in a_rows} == {len(r) for r in b_rows} == {d.genus}
