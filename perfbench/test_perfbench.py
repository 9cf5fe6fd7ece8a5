"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qpositivity import harness  # noqa: E402
from qpositivity.qexpr import QuotientSpec, expand, from_quotient_spec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((HERE / "catalog.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


# ---------------------------------------------------------------------------
# percentile picker


def test_picker_takes_p99_of_1000_samples():
    assert run.pick_percentile(range(1, 1001)) == (99, 990)


def test_picker_steps_down_until_ten_samples_lie_beyond():
    assert run.pick_percentile(range(1, 101)) == (90, 90)
    assert run.pick_percentile(range(1, 201)) == (95, 190)
    p, value = run.pick_percentile(range(1, 21))
    assert (p, value) == (50, 10)
    assert sum(1 for x in range(1, 21) if x > value) >= 10


def test_picker_falls_back_to_the_median_with_few_samples():
    assert run.pick_percentile([3.0, 1.0, 2.0]) == (50, 2.0)
    assert run.pick_percentile(range(11)) == (50, 5)


# ---------------------------------------------------------------------------
# end-to-end estimators


def _rep(op_wall, op_cpu, cpu_s=0.0, specs=10):
    rep = workloads.Rep(sum(op_wall), op_wall, op_cpu, specs, len(op_wall), {}, None)
    rep.cpu_s = cpu_s
    return rep


def test_in_process_workloads_sum_each_operations_best_time():
    reps = [_rep([1.0, 5.0, 2.0], [0.9, 4.0, 2.0]), _rep([3.0, 2.0, 4.0], [1.0, 2.0, 1.5])]
    e2e, _ = run.end_to_end(workloads.CheckCli, reps, [0.5, 0.1, 0.3])
    assert run.best_of_ops(reps, "op_wall_s") == [1.0, 2.0, 2.0]
    assert e2e["wall_s"] == 5.0 and e2e["cpu_s"] == pytest.approx(4.4)
    assert e2e["specs_per_s"] == 2.0 and e2e["setup_s"] == 0.3
    assert e2e["check_p50_ms"] == 2000.0  # median call, not median repetition
    e2e, _ = run.end_to_end(workloads.Reproduce, reps, [0.5])
    assert e2e["wall_s"] == e2e["check_p50_ms"] / 1e3 == e2e["check_p99_ms"] / 1e3 == 5.0


def test_the_sweep_reports_the_mean_repetition():
    reps = [_rep([4.0], [], cpu_s=7.0), _rep([6.0], [], cpu_s=9.0)]
    e2e, _ = run.end_to_end(workloads.SweepConjecture1, reps, [0.5])
    assert e2e["wall_s"] == e2e["check_p50_ms"] / 1e3 == 5.0 and e2e["cpu_s"] == 8.0


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("a", "root", 0.0, 10.0, None),
        ("b", "left", 1.0, 4.0, "a"),
        ("c", "overlap", 3.0, 6.0, "a"),   # overlaps b: union [1, 6]
        ("d", "overrun", 8.0, 12.0, "a"),  # clipped to the parent's end
        ("e", "leaf", 2.0, 3.0, "b"),
    ]
    selfs = layertrace.self_times(spans)
    assert selfs == pytest.approx({"a": 3.0, "b": 2.0, "c": 3.0, "d": 4.0, "e": 1.0})


def test_self_time_of_a_span_without_children_is_its_duration():
    assert layertrace.self_times([(1, "x", 2.5, 4.0, None)]) == {1: 1.5}


def test_installed_tracer_nests_spans_and_uninstall_restores_names():
    original = harness.verify_quotient
    tracer = layertrace.install(layertrace.Tracer())
    try:
        harness.verify_quotient(QuotientSpec(11, 3, 2))
    finally:
        layertrace.uninstall(tracer)
    assert harness.verify_quotient is original
    names = {s[1] for s in tracer.spans}
    assert {"harness.verify", "qexpr.is_polynomial", "qexpr.expand",
            "qpoly.mul_linear", "qpoly.div_linear", "qexpr.build"} <= names
    (verify,) = [s for s in tracer.spans if s[1] == "harness.verify"]
    selfs = layertrace.self_times(tracer.spans)
    below = [s for s in tracer.spans if s[4] == verify[0]]
    assert selfs[verify[0]] == pytest.approx(
        (verify[3] - verify[2]) - sum(s[3] - s[2] for s in below))
    metrics = layertrace.layer_metrics(tracer, wall_s=1.0)
    assert metrics["harness.verify.calls"] == 1
    assert metrics["qexpr.expand.calls"] == 1
    assert metrics["qexpr.divisors.calls"] > 0
    assert metrics["qpoly.max_coeff_bits"] == 1  # 1 + q^3 + q^6


# ---------------------------------------------------------------------------
# workloads and their output checks


def test_check_specs_depend_on_the_seed_only():
    a = workloads.check_specs(5, 1000)
    assert a == workloads.check_specs(5, 1000)
    assert a != workloads.check_specs(6, 1000)
    stanton = [s for s in a if s[0] == "fake" and s[2] == workloads.STANTON and s[1] == 1]
    assert len(stanton) == 10
    assert sum(1 for s in a if s[0] == "quotient") == 900


def test_polynomial_share_of_the_quotient_specs_is_close_to_a_quarter():
    shares = []
    for seed in range(5):
        quotients = [s[1:] for s in workloads.check_specs(seed, 1000) if s[0] == "quotient"]
        polynomial = sum(
            1 for t in quotients
            if min(workloads.quotient_exponents(*workloads.normalize(*t)).values(),
                   default=0) >= 0
        )
        shares.append(polynomial / len(quotients))
    assert all(0.18 < share < 0.29 for share in shares), shares


def test_recheck_rejects_a_corrupted_coefficient():
    spec = ("quotient", 11, 8, 2)  # normalizes to (11, 3, 2): 1 + q^3 + q^6
    workload = workloads.CheckCli("tiny", 0, "unused")
    code, text = workload._call(workloads.check_argv(spec))
    assert workloads.recheck(spec, code, text, None) is None
    doc = json.loads(text)
    doc["results"][0]["expansion"][3] = 2
    assert workloads.recheck(spec, code, json.dumps(doc), None)
    assert workloads.recheck(spec, 3, text, None)  # wrong exit code


# ---------------------------------------------------------------------------
# smoke runs


def _run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    code, out = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", out, re.M)


def test_traced_sweep_writes_its_worker_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    code, out = _run("--workload", "sweep-c1", "--seconds", "1", "--trace", "1",
                     "--size", "tiny", "--spans", str(spans))
    assert code == 0, out
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    units = [r for r in records if r["name"] == "harness.unit"]
    assert units and all(r["parent"] is None and r["end"] >= r["start"] for r in units)
    ids = {tuple(r["id"]) for r in records}
    assert all(tuple(r["parent"]) in ids for r in records if r["parent"])
    result = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert result["harness.unit.count"]["value"] == 19  # n = 2..20, one unit each
    widest = max(
        max(expand(from_quotient_spec(QuotientSpec(n, k, l))).coeffs).bit_length()
        for n in range(2, 21) for k in range(2, n // 2 + 1) for l in range(1, k)
        if min(workloads.quotient_exponents(n, k, l).values()) >= 0
    )
    assert result["qpoly.max_coeff_bits"]["value"] == widest  # a maximum, not a sum


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_failed_output_check_makes_the_run_exit_nonzero(workload, monkeypatch, capsys):
    monkeypatch.setattr(harness, "nonnegativity", lambda p: (False, (0, -1)))
    code = run.main(["--workload", workload, "--seconds", "0.5", "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-c1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_meets_the_contract_and_the_catalog_covers_it():
    bench = BENCH
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["paths"] == ["perfbench"]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(CATALOG["seed_use"]) == set(WORKLOAD_NAMES)
    assert set(CATALOG["descriptions"]) == set(E2E) | set(LAYER)
    for prediction in CATALOG["predictions"]:
        assert prediction["layer_metric"] in LAYER
        assert prediction["end_to_end"] in E2E
        assert prediction["workload"] in WORKLOAD_NAMES
