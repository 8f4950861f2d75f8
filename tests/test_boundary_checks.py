"""Every argument check at the package's boundary raises what it says.

Each check here is one that no other test reaches: the CLI's bounds on
`stabilize -n` and on `compare`'s budgets, a negative `CurveSystem`
genus, `IntMatrix` arithmetic with a wrong operand, an odd ambient rank
in `maslov_index`, and `random_symplectic`'s bounds.
"""

import pytest

from trisect import (
    CurveSystem,
    IntMatrix,
    builtin,
    maslov_index,
    random_symplectic,
)
from trisect.cli import serialize_diagram

from test_cli import cli, write


@pytest.fixture
def cp2(tmp_path):
    return write(tmp_path, "cp2.tris", serialize_diagram(builtin("cp2")))


def test_stabilize_rejects_a_negative_count(cp2):
    assert cli("stabilize", cp2, "-n", "-1") == (2, "", "error: -n must be nonnegative\n")


@pytest.mark.parametrize("budget", [("--depth", "-1"), ("--nodes", "0")])
def test_compare_rejects_an_empty_budget(cp2, budget):
    assert cli("compare", cp2, cp2, *budget) == (
        2,
        "",
        "error: --depth must be >= 0 and --nodes >= 1\n",
    )


def test_a_curve_system_rejects_a_negative_genus():
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        CurveSystem(-1, IntMatrix([], cols=0), "alpha")


def test_matrix_arithmetic_rejects_a_wrong_operand():
    m = IntMatrix([[1, 2]])
    with pytest.raises(TypeError):
        m + 1
    with pytest.raises(ValueError, match="shape mismatch"):
        m + IntMatrix([[1], [2]])
    with pytest.raises(TypeError):
        m - 1
    with pytest.raises(TypeError):
        m * 1.5
    with pytest.raises(TypeError):
        m @ 1
    with pytest.raises(ValueError, match="shape mismatch"):
        m @ m


def test_maslov_index_rejects_an_odd_ambient_rank():
    odd = IntMatrix([[1, 0, 0]])
    with pytest.raises(ValueError, match="ambient rank must be even"):
        maslov_index(odd, odd, odd)


@pytest.mark.parametrize(
    "args, message",
    [((-1, 0, 0), "genus must be nonnegative"), ((1, 0, -1), "count must be nonnegative")],
)
def test_random_symplectic_rejects_negative_sizes(args, message):
    with pytest.raises(ValueError, match=message):
        random_symplectic(*args)
