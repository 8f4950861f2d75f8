"""The runner counts wrong outputs as failures and refuses a tree without sources."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import recipes as R  # noqa: E402
import run as bench_run  # noqa: E402
import trisect.cli  # noqa: E402
from workloads import WORKLOADS, Case, check_compare, expect  # noqa: E402


def _atlas():
    return {n: R.from_text(trisect.cli.serialize_diagram(trisect.builtin(n))) for n in R.PIECES}


def _run_cases(cases, workdir):
    written = [(c, bench_run.write_case(c, workdir, i)) for i, c in enumerate(cases)]
    run = bench_run.Run(trisect.cli, None, written, workdir)
    for i in range(len(cases)):
        run.op(i)
    return run


def test_corrupted_expected_value_is_a_failure(tmp_path):
    d, inv = R.assemble(["cp2", "s1xs3", "s4-g3"], _atlas())
    wrong = inv._replace(sigma=inv.sigma + 1)
    good = Case(0, {"f": R.to_text(d)}, ("invariants", "f"),
                expect(0, lambda: R.invariants_text(d, inv)))
    bad = good._replace(check=expect(0, lambda: R.invariants_text(d, wrong)))
    run = _run_cases([good, bad], tmp_path)
    assert run.attempted == 2
    assert len(run.failures) == 1 and run.failures[0].startswith("op 1 ")
    assert run.passed_per_s() > 0


def test_first_case_of_every_workload_passes(tmp_path):
    atlas = _atlas()
    cases = [WORKLOADS[name](7, atlas).case(0) for name in sorted(WORKLOADS)]
    assert _run_cases(cases, tmp_path).failures == []


def test_compare_check_replays_certificates():
    atlas = _atlas()
    a = atlas["s4-g3"]
    b = R.slide(a, 1, 0, 2, 1)
    good = "slide-equivalent (1 moves)\nslide --system beta --target 1 --source 3 --sign +\n"
    wrong = good.replace("--sign +", "--sign -")
    assert check_compare(0, good, a, b, 2, budget=False) is None
    assert check_compare(0, wrong, a, b, 2, budget=False)
    assert check_compare(3, "unknown (search budget exhausted; no conclusion)\n", a, b, 2, budget=True) is None
    assert check_compare(3, "unknown (search budget exhausted; no conclusion)\n", a, b, 2, budget=False)
    assert check_compare(0, "identical\n", a, b, 2, budget=False)


def test_tail_keeps_ten_samples_beyond():
    value, pct = bench_run.tail([float(x) for x in range(1, 31)])
    assert value == 20.0 and round(pct, 3) == 66.667


def test_tree_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "slide-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
