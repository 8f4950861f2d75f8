"""Self-time arithmetic, wrapper restoration and missing targets."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import trisect  # noqa: E402
import trisect.cli  # noqa: E402
import trisect.moves  # noqa: E402
import trisect.symplectic  # noqa: E402
from tracer import TARGETS, Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_covered_child_time_and_skips():
    spans = [
        Span("op", 0.0, 10.0, None, 0, 0.0),
        Span("a", 1.0, 4.0, 0, 0, 0.5),  # 0.5 s spent in hot leaves
        Span("b", 2.0, 3.0, 1, 0, 0.0),
        Span("c", 5.0, 9.0, 0, 0, 0.0),
        Span("d", 6.0, 7.0, 3, 0, 0.0),
        Span("e", 6.5, 8.0, 3, 0, 0.0),  # overlaps d: covered once
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 2.0, 1.0, 1.5])


def _bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "trisect" or name.startswith("trisect."):
            out.update({(name, k): v for k, v in vars(module).items() if callable(v)})
    out.update({("IntMatrix", k): v for k, v in vars(trisect.IntMatrix).items()})
    return out


def test_wrappers_are_restored_and_hot_leaves_aggregate():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert trisect.validate is not before[("trisect", "validate")]
        tracer.begin_op(0)
        d = trisect.builtin("cp2")
        trisect.stabilize(d)
        tracer.finish()
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["diagram.validate"] == 2
    assert tracer.calls["intlin.IntMatrix.init"] > 0
    assert all(s.name not in ("intlin.IntMatrix.init", "symplectic.omega") for s in tracer.spans)
    assert tracer.self_seconds()["intlin.snf"] > 0


def test_targets_held_in_module_tables_are_traced():
    checks = trisect.moves._INVARIANT_CHECKS
    d1 = trisect.builtin("s4-g3")
    d2 = trisect.handle_slide(d1, trisect.SlideMove("beta", 0, 2, 1))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        trisect.compare(d1, d2, max_depth=1)
        tracer.finish()
    finally:
        tracer.restore()
    assert trisect.moves._INVARIANT_CHECKS is checks
    assert tracer.calls["diagram.signature"] == 2
    assert tracer.calls["diagram.first_homology"] == 2
    assert tracer.self_seconds()["diagram.signature"] > 0


def test_missing_target_is_flagged_not_fatal(monkeypatch):
    monkeypatch.delattr(trisect.symplectic, "is_lagrangian")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["symplectic.is_lagrangian"]
        assert len({n for n, _, _ in TARGETS}) == len(TARGETS)
    finally:
        tracer.restore()
    assert tracer.calls["symplectic.is_lagrangian"] == 0
