"""Run the benchmark over ten seeds and summarize its spread.

    python3 perfbench/baseline.py --out perfbench/baseline/<label>.json

Every workload runs once per seed (seeds 0..9) with tracing off, for
BENCHMARK.json's run_seconds each, then once traced on the seed whose
check-cli outputs are pinned.  For each end-to-end metric the summary
gives the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import benchmark, workload_names

HERE = Path(__file__).resolve().parent
SEEDS = list(range(10))
#: The traced run's seed: workloads.DEFAULT_SEED, whose check-cli outputs are pinned.
TRACED_SEED = 0


def run(workload: str, seed: int, trace: int) -> dict:
    out = HERE / ".work" / f"baseline-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(benchmark()["run_seconds"]),
               "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent)
    try:
        record = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    record["exit_code"] = done.returncode
    return record


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here")
    args = parser.parse_args(argv)

    summary = {"seconds": benchmark()["run_seconds"], "seeds": SEEDS,
               "traced_seed": TRACED_SEED, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    worst = 0
    for workload in workload_names():
        records = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, TRACED_SEED, 1)
        worst = max([worst, traced["exit_code"]] + [r["exit_code"] for r in records])
        metrics = {}
        for name in bounds:
            metrics[name] = spread([r["end_to_end"][name] for r in records])
            metrics[name]["bound"] = bounds[name]
            print(f"{workload:10s} {name:14s} median {metrics[name]['median']:12.6g} "
                  f"spread {metrics[name]['spread']:.4f} bound {bounds[name]}", flush=True)
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "env": [r["env"] for r in records],
            "notes": [r["notes"] for r in records],
            "per_layer": traced["per_layer"],
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
