"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``bench/run.py --trace 0`` once per (workload, seed), one process at
a time, for the ``run_seconds`` of ``BENCHMARK.json``, and prints for
every metric the median of its values and its spread: the distance
between the first and third quartiles (``statistics.quantiles`` with
n=4) as a share of the median.  ``--out`` also writes every result
line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workload:
        results, walls = [], []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results.append({"context": json.loads(lines[-2]), "result": json.loads(lines[-1])})
        metrics = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in results])
            for name in results[0]["result"]["metrics"]
        }
        failed = sum(r["result"]["failed"] for r in results)
        attempted = sum(r["result"]["attempted"] for r in results)
        report[workload] = {"attempted": attempted, "failed": failed,
                            "wall_s": summarise(walls), "metrics": metrics, "runs": results}
        print(f"{workload}: {attempted} ops, {failed} failed, "
              f"median wall {statistics.median(walls):.1f} s")
        for name, s in metrics.items():
            print(f"  {name:40s} median {s['median']:<12.6g} spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
