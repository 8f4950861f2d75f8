"""Benchmark of the trisect CLI on seeded diagram files.

Usage, from the root of a checkout:

    python3 bench/run.py --workload invariants-sparse --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``trisect.cli.run(argv)`` call, with
stdout captured, on files this benchmark generated from the seed.  The
package is imported from the checkout's own ``src/``.  With ``--trace 0``
the run measures the end-to-end metrics for ``--seconds``; with
``--trace 1`` it runs a fixed list of operations under the tracer and
reports per-layer metrics.  Every output is checked against the recipe
that built its input (outside the timed region).  The last stdout line is
the JSON result; the line before it carries the run's context.

Times are host-adjusted.  The shared host this benchmark was built on
runs the same code up to 1.7 times slower for spells of seconds to
minutes, long enough to cover whole runs.  So right before and right
after each operation and each set-up the runner times a fixed pure-Python
computation (``reference``), and scales the wall time it measures in
between by ``REFERENCE_S`` over the mean of the two: a time reads as it
would on a host where that computation takes ``REFERENCE_S``.  The
program under test never runs inside ``reference``, so a change to it
moves the adjusted times as much as the wall times.  The context line
keeps the wall-clock figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import recipes
from tracer import SETUP, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7  # set-ups spread over an untraced run; setup_s is their median
SETUP_CASES = 3  # cases generated and written during each set-up, one per class
TRACE_OPS = 30  # fixed operation list of a traced run, 10 per size class
TRACE_CAP_S = 100.0  # a traced run stops starting operations after this
OP_DEADLINE_S = 30.0  # an operation still running after this fails
TAIL_BEYOND = 10  # op_tail_ms has at least this many samples above it
REFERENCE_S = 0.001  # the nominal time of reference(): the scale of adjusted times


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that passed its deadline."""


def _alarm(signum, frame):
    raise OpTimeout()


def set_up(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Import trisect afresh, fetch the atlas pieces through the CLI, and
    generate and write the first cases; the expected outputs are worked out
    later, by each case's check."""
    start = perf_counter()
    for name in [n for n in sys.modules if n == "trisect" or n.startswith("trisect.")]:
        del sys.modules[name]
    cli = importlib.import_module("trisect.cli")
    if Path(cli.__file__).resolve().parent != SRC / "trisect":
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's {SRC}")
    if tracer is not None:
        tracer.install()
    atlas = {}
    for name in recipes.PIECES:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(["example", name])
        if code != 0:
            raise RuntimeError(f"'trisect example {name}' exited with {code}")
        atlas[name] = recipes.from_text(out.getvalue())
    wl = WORKLOADS[workload](seed, atlas)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = [wl.case(i) for i in range(SETUP_CASES)]
    cases = [(case, write_case(case, workdir, i)) for i, case in enumerate(cases)]
    return cli, wl, cases, perf_counter() - start


def reference() -> float:
    """Seconds a fixed computation takes, the best of three: building and
    hashing tuples of small integers, the kind of work trisect's own code
    does.  Of the candidates tried, its time followed the host's spells
    most closely in proportion to trisect's."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        rows = [tuple((i * j + k) % 11 - 5 for j in range(48)) for i in range(48) for k in (0, 1)]
        seen = set()
        for r in rows:
            seen.add(tuple(3 * x - 1 for x in r))
        best = min(best, perf_counter() - start)
    return best


def write_case(case, workdir: Path, i: int) -> list[str]:
    paths = {}
    for key, text in case.files.items():
        path = workdir / f"{i}-{key}"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    return [paths.get(a, a) for a in case.argv]


def call(cli, argv):
    """One timed ``cli.run``: (exit code, stdout, seconds, fault or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, fault = None, None
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    except OpTimeout:
        fault = f"passed the {OP_DEADLINE_S:g} s deadline"
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        fault = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), elapsed, fault


class Run:
    """Operations of one run, their latencies and their failures."""

    def __init__(self, cli, wl, cases, workdir: Path):
        self.cli, self.wl, self.cases, self.workdir = cli, wl, cases, workdir
        self.latencies: list[float] = []  # wall seconds
        self.adjusted: list[float] = []  # host-adjusted seconds
        self.by_class: dict[int, list[float]] = {0: [], 1: [], 2: []}  # adjusted
        self.failures: list[str] = []
        self.bytes_in = self.bytes_out = 0

    def op(self, i: int, tracer: Tracer | None = None) -> None:
        if i < len(self.cases):
            case, argv = self.cases[i]
        else:
            case = self.wl.case(i)
            argv = write_case(case, self.workdir, i)
        gc.collect()
        before = reference()
        if tracer is not None:
            tracer.begin_op(i)
        code, out, elapsed, fault = call(self.cli, argv)
        if tracer is not None:
            tracer.begin_op(SETUP)
        scale = 2 * REFERENCE_S / (before + reference())
        reason = fault or case.check(code, out)
        self.latencies.append(elapsed)
        self.adjusted.append(elapsed * scale)
        self.by_class[case.size_class].append(elapsed * scale)
        self.bytes_in += sum(len(t.encode()) for t in case.files.values())
        self.bytes_out += len(out.encode())
        if reason:
            self.failures.append(f"op {i} ({' '.join(case.argv)}): {reason}")
        for key in case.files:
            (self.workdir / f"{i}-{key}").unlink(missing_ok=True)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def passed_per_s(self, latencies=None) -> float:
        """Passed operations per host-adjusted second, or per second of
        ``latencies``."""
        return (self.attempted - len(self.failures)) / sum(latencies or self.adjusted)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def adjusted_set_up(workload: str, seed: int, workdir: Path):
    """``set_up``, with its time host-adjusted."""
    before = reference()
    cli, wl, cases, seconds = set_up(workload, seed, workdir)
    return cli, wl, cases, seconds * 2 * REFERENCE_S / (before + reference())


def end_to_end(args, workdir: Path):
    cli, wl, cases, seconds = adjusted_set_up(args.workload, args.seed, workdir)
    setups = [seconds]
    run = Run(cli, wl, cases, workdir)
    start = perf_counter()
    i = 0
    while (elapsed := perf_counter() - start) < args.seconds:
        if elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            # repeat set-up across the run, so that one slow moment cannot decide setup_s
            setups.append(adjusted_set_up(args.workload, args.seed, workdir / "again")[3])
        run.op(i)
        i += 1
    tail_s, tail_pct = tail(run.adjusted)
    prefix = run.adjusted[:TRACE_OPS]
    metrics = {
        "ops_per_s": (run.passed_per_s(), "1/s"),
        "op_p50_ms": (1000 * statistics.median(run.adjusted), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    context = {
        "tail_percentile": tail_pct,
        "samples": run.attempted,
        "samples_beyond_tail": min(TAIL_BEYOND, run.attempted - 1),
        "class_samples": [len(v) for v in run.by_class.values()],
        "class_p50_ms": [1000 * statistics.median(v) if v else None for v in run.by_class.values()],
        "setup_runs_s": setups,
        "wall_ops_per_s": run.passed_per_s(run.latencies),
        "wall_op_p50_ms": 1000 * statistics.median(run.latencies),
        # wall time over host-adjusted time: how slow the host ran
        "host_slowdown": sum(run.latencies) / sum(run.adjusted),
        # throughput over the operations a traced run executes: the tracing
        # overhead is this against the traced run's trace.ops_per_s
        "prefix_ops_per_s": len(prefix) / sum(prefix),
    }
    return run, metrics, context


def per_layer(args, workdir: Path):
    tracer = Tracer()
    try:
        cli, wl, cases, _ = set_up(args.workload, args.seed, workdir, tracer)
        run = Run(cli, wl, cases, workdir)
        start = perf_counter()
        for i in range(TRACE_OPS):
            if perf_counter() - start > TRACE_CAP_S:
                break
            run.op(i, tracer)
        tracer.finish()
    finally:
        tracer.restore()
    return run, layer_metrics(tracer, run), {"missing": tracer.missing}


def layer_metrics(tracer: Tracer, run: Run) -> dict:
    ops = run.attempted
    op_s = sum(run.latencies)
    self_s = tracer.self_seconds()
    calls = tracer.calls
    setup_builtin = [s for s in tracer.spans if s.op == SETUP and s.name == "atlas.builtin"]

    def pct(name):
        return (100 * self_s[name] / op_s, "%")

    def ratio(a, b):
        return (a / b if b else 0.0, "ratio")

    m = {
        "cli.run.self_pct": pct("cli.run"),
        "cli.parse_diagram.self_pct": pct("cli.parse_diagram"),
        "cli.serialize_diagram.self_pct": pct("cli.serialize_diagram"),
        "cli.bytes_in": (run.bytes_in / ops, "bytes/op"),
        "cli.bytes_out": (run.bytes_out / ops, "bytes/op"),
        "diagram.validate.calls_per_op": (calls["diagram.validate"] / ops, "count/op"),
        "diagram.validate.self_pct": pct("diagram.validate"),
        "diagram.validate.distinct_ratio": ratio(tracer.distinct["diagram.validate"],
                                                 calls["diagram.validate"]),
        "diagram.require_valid.calls_per_op": (calls["diagram.require_valid"] / ops, "count/op"),
        "diagram.signature.self_pct": pct("diagram.signature"),
        "diagram.first_homology.self_pct": pct("diagram.first_homology"),
        "symplectic.pairing_matrix.calls": (calls["symplectic.pairing_matrix"], "count"),
        "symplectic.pairing_matrix.self_pct": pct("symplectic.pairing_matrix"),
        "symplectic.omega.calls": (calls["symplectic.omega"], "count"),
        "symplectic.omega.self_pct": pct("symplectic.omega"),
        "symplectic.maslov_index.self_pct": pct("symplectic.maslov_index"),
        "symplectic.is_lagrangian.calls": (calls["symplectic.is_lagrangian"], "count"),
        "symplectic.is_symplectic.self_pct": pct("symplectic.is_symplectic"),
        "intlin.snf.calls": (calls["intlin.snf"], "count"),
        "intlin.snf.self_pct": pct("intlin.snf"),
        "intlin.snf.cells": (tracer.snf_cells, "count"),
        "intlin.snf.max_bits": (tracer.snf_max_bits, "bits"),
        "intlin.snf.distinct_ratio": ratio(tracer.distinct["intlin.snf"], calls["intlin.snf"]),
        "intlin.left_kernel_basis.self_pct": pct("intlin.left_kernel_basis"),
        "intlin.symmetric_signature.self_pct": pct("intlin.symmetric_signature"),
        "intlin.IntMatrix.init.calls": (calls["intlin.IntMatrix.init"], "count"),
        "intlin.IntMatrix.init.self_pct": pct("intlin.IntMatrix.init"),
        "intlin.IntMatrix.matmul.self_pct": pct("intlin.IntMatrix.matmul"),
        "moves.compare.self_pct": pct("moves.compare"),
        "moves.handle_slide.calls": (calls["moves.handle_slide"], "count"),
        "moves.handle_slide.self_pct": pct("moves.handle_slide"),
        "moves.search.new_node_ratio": ratio(tracer.distinct["moves.handle_slide"],
                                             tracer.slides_tried),
        "moves.stabilize.self_pct": pct("moves.stabilize"),
        "moves.apply_diffeomorphism.self_pct": pct("moves.apply_diffeomorphism"),
        "atlas.builtin.calls": (len(setup_builtin), "count"),
        "atlas.builtin.total_s": (sum(s.end - s.start for s in setup_builtin), "s"),
        "trace.ops_per_s": (run.passed_per_s(), "1/s"),
        "trace.missing": (len(tracer.missing), "count"),
    }
    return m


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trisect" / "__init__.py").is_file():
        print(f"error: no trisect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run, metrics, context = (per_layer if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted, failed = run.attempted, len(run.failures)
    context.update(
        workload=args.workload, seed=args.seed, trace=args.trace, commit=commit(),
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
        error_rate=failed / attempted,
    )
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
