"""Every matrix of omega-pairings is a `pairing_matrix` product, and every
isotropy check is one scan.

`diagram` keeps no copy of either rule: it binds neither the product
kernel `_dots` nor omega's `_dual`, `validate` forms its Gram matrix with
one `pairing_matrix` call, and it finds each system's first non-isotropic
pair with the scanner that `first_nonisotropic` runs.  The results are
compared against the replaced code in `test_gram_validate.py` and
`test_isotropy_scan.py`.
"""

import random

import trisect
from trisect import IntMatrix, TrisectionDiagram, builtin, random_symplectic, validate
from trisect.symplectic import first_nonisotropic

from helpers import random_valid_diagram
from test_kernels import _count_calls


def diagrams():
    """Valid diagrams of several genera, one with a failing system and one
    where every pair of systems fails."""
    out = [builtin("cp2"), builtin("s4-g3"), random_valid_diagram(3), random_valid_diagram(8)]
    d = out[-1]
    rows = [[list(r) for r in s.classes.entries] for s in d.systems]
    rows[1][0][0] += 1
    out.append(TrisectionDiagram.from_rows(d.genus, *rows))
    scaled = [[[2 * e for e in r] for r in s] for s in rows]
    out.append(TrisectionDiagram.from_rows(d.genus, *scaled))
    return out


def test_diagram_binds_no_pairing_kernel():
    assert not hasattr(trisect.diagram, "_dots")
    assert not hasattr(trisect.diagram, "_dual")


def test_validate_and_first_nonisotropic_share_one_scanner(monkeypatch):
    assert trisect.diagram._first_nonzero is trisect.symplectic._first_nonzero
    scans = _count_calls(monkeypatch, trisect.symplectic, "_first_nonzero")
    x = IntMatrix([list(r) for r in random_symplectic(5, 1, 12).entries[:5]])
    assert first_nonisotropic(x) is None
    assert len(scans) == 1
    for d in diagrams():
        del scans[:]
        validate(d)
        assert len(scans) == 3


def test_validate_makes_one_pairing_matrix_call(monkeypatch):
    ds = diagrams()
    calls = []
    original = trisect.diagram.pairing_matrix

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trisect.diagram, "pairing_matrix", counting)
    reports = [validate(d) for d in ds]
    assert len(calls) == len(ds)
    # the last diagram's systems all fail, so each pair is reduced from G's rows
    assert not any(s.ok for s in reports[-1].systems)
