"""Per-layer tracing of ``trisect`` from outside the program.

``Tracer.install`` wraps each public function in ``TARGETS`` by rebinding
the name in every loaded ``trisect.*`` module namespace that holds it (a
method is rebound on its class).  A module-level tuple, list or dict that
holds a target, such as a table of checks, is replaced by a copy holding
the wrapper.  ``restore`` puts every original binding back, so untraced
code never pays for a wrapper.  A target that a later version of the
program no longer has is listed in ``missing``: its metrics read 0 and
the run carries on.

Each call records a ``Span`` (name, start, end, parent, operation id).
Hot leaves (``HOT``) are too frequent to store one span each; their calls
and self time are summed in place, and their duration is charged to the
enclosing span as skipped time so that its self time excludes them.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

# (metric prefix, defining module, attribute); "Class.method" names a method.
TARGETS = (
    ("cli.run", "trisect.cli", "run"),
    ("cli.parse_diagram", "trisect.cli", "parse_diagram"),
    ("cli.serialize_diagram", "trisect.cli", "serialize_diagram"),
    ("diagram.validate", "trisect.diagram", "validate"),
    ("diagram.require_valid", "trisect.diagram", "require_valid"),
    ("diagram.signature", "trisect.diagram", "signature"),
    ("diagram.first_homology", "trisect.diagram", "first_homology"),
    ("symplectic.pairing_matrix", "trisect.symplectic", "pairing_matrix"),
    ("symplectic.omega", "trisect.symplectic", "omega"),
    ("symplectic.maslov_index", "trisect.symplectic", "maslov_index"),
    ("symplectic.is_lagrangian", "trisect.symplectic", "is_lagrangian"),
    ("symplectic.is_symplectic", "trisect.symplectic", "is_symplectic"),
    ("intlin.snf", "trisect.intlin", "snf"),
    ("intlin.left_kernel_basis", "trisect.intlin", "left_kernel_basis"),
    ("intlin.symmetric_signature", "trisect.intlin", "symmetric_signature"),
    ("intlin.IntMatrix.init", "trisect.intlin", "IntMatrix.__init__"),
    ("intlin.IntMatrix.matmul", "trisect.intlin", "IntMatrix.__matmul__"),
    ("moves.compare", "trisect.moves", "compare"),
    ("moves.handle_slide", "trisect.moves", "handle_slide"),
    ("moves.stabilize", "trisect.moves", "stabilize"),
    ("moves.apply_diffeomorphism", "trisect.moves", "apply_diffeomorphism"),
    ("atlas.builtin", "trisect.atlas", "builtin"),
)
HOT = frozenset({"symplectic.omega", "intlin.IntMatrix.init", "moves.handle_slide"})
SETUP = -1  # operation id of spans recorded during set-up


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span; None for a root or under a hot leaf
    op: int
    skip: float  # time inside this span spent in hot leaves and tracer bookkeeping


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover
    and minus its skipped time."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered - s.skip)
    return out


def _key(obj):
    try:
        hash(obj)
        return obj
    except TypeError:
        return id(obj)


def _bits(matrix) -> int:
    rows = getattr(matrix, "entries", ())
    return max((abs(e).bit_length() for r in rows for e in r), default=0)


def _swapped(value, wrappers, depth: int = 3):
    """``value`` with each wrapped function replaced by its wrapper, also
    inside (nested) tuples, lists and dicts, which are copied; ``value``
    itself when it holds no wrapped function."""
    if id(value) in wrappers:
        return wrappers[id(value)]
    if depth == 0 or type(value) not in (tuple, list, dict):
        return value
    if type(value) is dict:
        items = {k: _swapped(v, wrappers, depth - 1) for k, v in value.items()}
        changed = any(items[k] is not v for k, v in value.items())
    else:
        items = type(value)(_swapped(v, wrappers, depth - 1) for v in value)
        changed = any(a is not b for a, b in zip(items, value))
    return items if changed else value


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[list] = []  # frames: [span index or None, skip seconds, name]
        self.op = SETUP
        self.calls: Counter[str] = Counter()  # counted inside operations only
        self.hot_self: Counter[str] = Counter()
        self.distinct: Counter[str] = Counter()  # distinct arguments, summed per operation
        self.seen: dict[str, set] = defaultdict(set)
        self.snf_cells = 0
        self.snf_max_bits = 0
        self.slides_tried = 0  # handle_slide calls made by compare
        self.bindings: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trisect" or n.startswith("trisect."))]
        wrappers = {}  # id of an original function -> its wrapper
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(leaf) if isinstance(owner, type) else None
                if not callable(original):
                    self.missing.append(name)
                    continue
                setattr(owner, leaf, self._wrap(name, original))
                self.bindings.append((owner, leaf, original))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrappers[id(original)] = self._wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if key.startswith("__"):
                    continue
                swapped = _swapped(value, wrappers)
                if swapped is not value:
                    setattr(m, key, swapped)
                    self.bindings.append((m, key, value))

    def restore(self) -> None:
        for owner, key, original in reversed(self.bindings):
            setattr(owner, key, original)
        self.bindings.clear()

    # -- recording ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._fold_seen()
        self.op = op

    def finish(self) -> None:
        self._fold_seen()

    def _fold_seen(self) -> None:
        for name, keys in self.seen.items():
            self.distinct[name] += len(keys)
        self.seen.clear()

    def _observe(self, name, args, result, parent) -> None:
        if name == "diagram.validate" and args:
            self.seen[name].add(_key(args[0]))
        elif name == "intlin.snf" and args:
            self.seen[name].add(_key(args[0]))
            self.snf_cells += getattr(args[0], "rows", 0) * getattr(args[0], "cols", 0)
            bits = max(_bits(getattr(result, part, None)) for part in "duv")
            self.snf_max_bits = max(self.snf_max_bits, bits)
        elif name == "moves.handle_slide" and parent is not None and parent[2] == "moves.compare":
            self.slides_tried += 1
            self.seen[name].add(_key(result))

    def _wrap(self, name, fn):
        hot = name in HOT
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = None
            if not hot:
                index = len(spans)
                spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                in_op = self.op != SETUP
                if in_op:
                    self.calls[name] += 1
                    if ok:
                        self._observe(name, args, result, parent)
                if hot:
                    if in_op:
                        self.hot_self[name] += end - start - frame[1]
                else:
                    up = parent[0] if parent is not None else None
                    spans[index] = Span(name, start, end, up, self.op, frame[1])
                if parent is not None:
                    # a stored parent subtracts stored children through the
                    # span tree; everything else is charged as skipped time
                    stored_pair = not hot and parent[0] is not None
                    parent[1] += perf_counter() - (end if stored_pair else start)

        return wrapper

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> Counter[str]:
        """Self time per name over the operations, hot leaves included."""
        out: Counter[str] = Counter(self.hot_self)
        for s, t in zip(self.spans, self_times(self.spans)):
            if s.op != SETUP:
                out[s.name] += t
        return out
