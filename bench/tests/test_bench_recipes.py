"""The benchmark's recipes and oracle agree with the library at small sizes."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import recipes as R  # noqa: E402
from trisect import (  # noqa: E402
    IntMatrix,
    apply_diffeomorphism,
    builtin,
    direct_sum,
    first_homology,
    is_symplectic,
    parameters,
    signature,
    stabilization_block,
    validate,
)
from trisect.cli import parse_diagram, serialize_diagram  # noqa: E402


def atlas():
    return {name: R.from_text(serialize_diagram(builtin(name))) for name in R.PIECES}


def library(d: R.Diagram):
    return parse_diagram(R.to_text(d))


@pytest.mark.parametrize("seed", range(8))
def test_shuffled_sums_have_the_recipe_invariants(seed):
    rng = random.Random(seed)
    genus = 2 + seed
    d, inv = R.assemble(R.shuffled_pieces(rng, genus), atlas())
    for _ in range(6):
        d = R.slide(d, *R.random_slide(rng, genus))
    d = R.apply_transvections(d, R.random_transvections(rng, genus, 4))
    lib = library(d)
    assert validate(lib).valid
    assert parameters(lib) == (inv.genus, inv.k)
    assert signature(lib) == inv.sigma
    assert str(first_homology(lib)) == R.h1_text(inv.h1_rank)


def test_text_round_trips_through_the_library():
    rng = random.Random(3)
    d, _ = R.assemble(R.shuffled_pieces(rng, 5), atlas())
    assert serialize_diagram(library(d)) == R.to_text(d)
    assert R.from_text(serialize_diagram(library(d))) == d


def test_transform_oracles_match_the_library():
    rng = random.Random(5)
    pieces = atlas()
    d1, _ = R.assemble(R.shuffled_pieces(rng, 3), pieces)
    d2, _ = R.assemble(R.shuffled_pieces(rng, 2), pieces)
    assert library(R.block_sum(d1, d2)) == direct_sum(library(d1), library(d2))
    assert library(R.STAB_BLOCK) == stabilization_block()
    s = R.symplectic_matrix(3, R.random_transvections(rng, 3, 5))
    assert is_symplectic(IntMatrix(s))
    assert library(R.act(d1, s)) == apply_diffeomorphism(library(d1), IntMatrix(s))


def test_pieces_table_matches_the_atlas():
    for name, piece in R.PIECES.items():
        lib = builtin(name)
        assert parameters(lib) == (piece.genus, piece.k)
        assert signature(lib) == piece.sigma
        assert first_homology(lib).free_rank == piece.h1_rank


def test_reachable_finds_paths_up_to_the_depth_only():
    a = atlas()["s4-g3"]
    once = R.slide(a, 2, 0, 1, 1)
    twice = R.slide(once, 2, 1, 2, 1)  # changes two rows; one slide changes one
    assert R.reachable(a, once, 1, (2,))
    assert not R.reachable(a, twice, 1, (2,))
    assert R.reachable(a, twice, 2, (2,))
    assert not R.reachable(a, once, 1, (0, 1))
