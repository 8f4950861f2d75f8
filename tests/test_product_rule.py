"""Every matrix product takes the slot kernels, whatever its size: the
operands' bound alone chooses 64-bit slots or whole-byte ones.  The Gram
products of `trisect invariants` on cp2, s2xs2-g2-model and s4-g3 have 18,
144 and 486 multiplications, and each `_dots` call goes through
`_packed_dots`, since their entries are small.
"""

import contextlib
import io

import pytest

from trisect import builtin, intlin
from trisect.cli import run, serialize_diagram

from test_kernels import _count_calls


@pytest.mark.parametrize("name", ["cp2", "s2xs2-g2-model", "s4-g3"])
def test_every_small_product_is_packed(monkeypatch, tmp_path, name):
    path = tmp_path / f"{name}.tris"
    path.write_text(serialize_diagram(builtin(name)))
    dots = _count_calls(monkeypatch, intlin, "_dots")
    packed = _count_calls(monkeypatch, intlin, "_packed_dots")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["invariants", str(path)]) == 0
    assert dots
    assert len(packed) == len(dots)
