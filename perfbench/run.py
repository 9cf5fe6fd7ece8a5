"""Benchmark of qpositivity: end-to-end metrics, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-c1 --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Workloads are sweep-c1, reproduce and check-cli (see workloads.py), or
"all" to run the three one after the other.  With --trace 0 the run
measures the end-to-end metrics; with --trace 1 it spends half its time on
untraced repetitions and half on traced ones, and reports the per-layer
metrics and the tracing overhead.  Every metric and its unit are listed in
BENCHMARK.json; their descriptions and the layer predictions in catalog.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output check passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

#: Fresh interpreters timed for setup_s before the first repetition; as
#: many more are timed between untraced repetitions, one per SETUP_SAMPLES-th
#: of the run, so that the samples span the run rather than the few seconds
#: before it.
SETUP_SAMPLES = 5


@functools.lru_cache(maxsize=None)
def benchmark() -> dict:
    """BENCHMARK.json: the workloads, and every metric with its unit and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list:
    return [w["name"] for w in benchmark()["workloads"]]


def units() -> dict:
    return {m["name"]: m["unit"] for m in benchmark()["end_to_end"] + benchmark()["per_layer"]}


def pick_percentile(samples, beyond: int = 10):
    """(percentile, value): the highest whole percentile from 99 down to 50
    that leaves at least `beyond` samples strictly above its rank.  With too
    few samples for any of them the median is returned as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest rank, ceil(p n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop: reported beside results, never used to rescale."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any child it has waited for.

    A child's peak includes what it shared with this process when it was
    forked, so the two are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def setup_probe(args) -> int:
    """Child mode: import the package, build the inputs, print the time taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: PLC0415 - the import is what is being timed

    workdir = WORK / f"setup-{os.getpid()}"
    workloads.WORKLOADS[args.workload](args.size, args.seed, str(workdir))
    print(f"{time.perf_counter() - start:.9f}")
    return 0


def measure_setup(args) -> float:
    """Seconds a fresh interpreter takes to import the package and build the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _repeat(workload, budget: float, traced: bool = False, keep_spans: bool = False,
            before_each=None):
    """Run repetitions until the next one would overrun budget; at least one.

    Each repetition's outputs are checked after its timing ends; the
    operations that raised or failed a check are counted on the repetition.
    """
    import layertrace  # noqa: PLC0415

    reps = []
    started = time.perf_counter()
    while True:
        if before_each is not None:
            before_each()
        tracer = layertrace.install(layertrace.Tracer()) if traced else None
        cpu = _cpu_seconds()
        try:
            rep = workload.run_once(tracer)
        finally:
            if tracer is not None:
                layertrace.uninstall(tracer)
        rep.cpu_s = _cpu_seconds() - cpu
        bad = dict(rep.errors)
        bad.update(workload.check(rep))
        rep.failed = len(bad)
        rep.messages = [f"rep {len(reps)}: {message}" for message in bad.values()]
        if tracer is not None:
            rep.layers = layertrace.layer_metrics(tracer, rep.wall_s,
                                                  workload.layer_extras(rep))
            rep.spans = tracer.spans if keep_spans else []
        rep.outputs = None  # checked; free the memory
        reps.append(rep)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r.wall_s for r in reps) > budget:
            return reps


def best_of_ops(reps, field: str) -> list:
    """Each operation's least time over the repetitions, in operation order."""
    return [min(times) for times in zip(*(getattr(r, field) for r in reps))]


def repetition_times(workload, reps) -> "tuple[float, float, list | None]":
    """(wall_s, cpu_s, each operation's best wall time or None) of a repetition.

    On a shared host the same pure-Python loop runs up to 1.6 times slower
    at times, in stretches from a tenth of a second to half a minute, and
    CPU time grows with wall time; a mean over the run follows the share of
    slow time, which differs from run to run.  So for the in-process
    workloads (BEST_OF_OPS) each operation's time is its least over the
    repetitions, as timeit takes the best of its repeats, and wall_s and
    cpu_s are the sums of these over one repetition's operations.  The
    sweep is a single operation of several seconds on a pool, too long to
    fall within a fast stretch; there wall_s and cpu_s are the means over
    the repetitions.
    """
    if workload.BEST_OF_OPS:
        op_wall = best_of_ops(reps, "op_wall_s")
        return sum(op_wall), sum(best_of_ops(reps, "op_cpu_s")), op_wall
    return (statistics.fmean(r.wall_s for r in reps),
            statistics.fmean(r.cpu_s for r in reps), None)


def end_to_end(workload, reps, setup_samples) -> "tuple[dict, dict]":
    """End-to-end metrics of a run, and notes on the samples behind them.

    The check latencies are the per-call best times on check-cli, where a
    check is one operation, and wall_s elsewhere.
    """
    wall, cpu, op_wall = repetition_times(workload, reps)
    latencies = [s * 1e3 for s in op_wall] if workload.CHECK_IS_OP else [wall * 1e3]
    percentile, tail = pick_percentile(latencies)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "cpu_s": cpu,
        "specs_per_s": statistics.fmean(r.specs for r in reps) / wall,
        "check_p50_ms": statistics.median(latencies),
        "check_p99_ms": tail,
        "peak_rss_mib": _peak_rss_mib(),
    }, {
        "reps": len(reps),
        "rep_wall_s": [r.wall_s for r in reps],
        "op_best_s": op_wall if op_wall and not workload.CHECK_IS_OP else None,
        "latency_samples": len(latencies),
        "check_p99_percentile_used": percentile,
        "setup_samples": len(setup_samples),
    }


def per_layer(workload, traced, untraced) -> dict:
    names = [m["name"] for m in benchmark()["per_layer"]]
    layers = {}
    for name in names:
        values = [r.layers.get(name, 0) for r in traced]
        layers[name] = statistics.median_low(values)
    traced_wall = repetition_times(workload, traced)[0]
    untraced_wall = repetition_times(workload, untraced)[0]
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return {name: layers[name] for name in names}


def _write_spans(path: str, reps) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for index, rep in enumerate(reps):
            for sid, name, start, end, parent in rep.spans:
                fh.write(json.dumps({"rep": index, "id": list(sid), "name": name,
                                     "start": start, "end": end,
                                     "parent": list(parent) if parent else None}) + "\n")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    env = environment()
    env["probe_s_before"] = probe_seconds()
    import workloads  # noqa: PLC0415

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = [measure_setup(args) for _ in range(SETUP_SAMPLES)]
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, str(workdir))
        workload.warm_up()
        budget = args.seconds / 2 if args.trace else args.seconds
        started = time.perf_counter()

        def sample_setup():
            due = len(setup_samples) - SETUP_SAMPLES
            if time.perf_counter() - started >= due * budget / SETUP_SAMPLES:
                setup_samples.append(measure_setup(args))

        untraced = _repeat(workload, budget, before_each=sample_setup)
        traced = _repeat(workload, budget, True, bool(args.spans)) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["probe_s_after"] = probe_seconds()
    env["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]

    e2e, notes = end_to_end(workload, untraced, setup_samples)
    attempted = sum(r.ops for r in untraced + traced)
    failed = sum(r.failed for r in untraced + traced)
    messages = [m for r in untraced + traced for m in r.messages]
    metrics = per_layer(workload, traced, untraced) if args.trace else e2e

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    print(f"# {json.dumps(notes)}")
    unit_of = units()
    for name, value in metrics.items():
        print(f"{name:40s} {value:>18.6g} {unit_of[name]}")
    print(f"{'fail_frac':40s} {failed / attempted if attempted else 1:>18.6g} "
          f"({failed} of {attempted} operations)")
    for message in messages[:20]:
        print(f"# FAILED {message}")
    if args.out:
        record = {"env": env, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "size": args.size,
                  "notes": notes, "end_to_end": e2e,
                  "per_layer": metrics if args.trace else None,
                  "attempted": attempted, "failed": failed, "failures": messages}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.spans and traced:
        _write_spans(args.spans, traced)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter and merge the result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workload_names():
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark()["run_seconds"],
                        help="time spent on repetitions of the workload's fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem size; tiny is for smoke tests")
    parser.add_argument("--out", help="also write the full record, with env stamp, here")
    parser.add_argument("--spans", help="with --trace 1, write the traced spans here (JSONL)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "qpositivity" / "__init__.py").is_file():
        print(f"error: no qpositivity sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
