"""Self-checks of the benchmark harness, on the level-6 smoke workloads.

    python3 -m pytest -q benchmarks/test_benchmark.py

Kept out of the tier-1 suite (``testpaths`` names only ``tests/``); the
whole file takes about five minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_forced_failure_is_counted_and_does_not_abort():
    bench = run.WorkloadRun("gram-p2", None, smoke=True)
    try:
        bench.setup_probe(bench.timed)
        prefix = [sys.executable, "-m", "fracspectra.cli"]
        failing = bench.invoke(prefix, bench.timed, ("spectrum",), extra=["--tolerance", "0.0"])
        assert failing["code"] == 1
        assert not bench.settle(failing)
        assert bench.settle(bench.invoke(prefix, bench.timed, ("spectrum",)))
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (2, 1)
    problems = bench.failures[0]["problems"]
    assert "exit code 1" in problems
    assert any("spectrum FAIL" in p for p in problems)
    # the tolerance is part of the experiment identity, so the stamp changes too
    assert "unstamped report.json" in problems


def test_checks_flag_a_wrong_reference_slope(monkeypatch):
    slopes = {**run.REFERENCE_SLOPES[("spectrum", "cantor_p2")], 6: "-0.70000"}
    monkeypatch.setitem(run.REFERENCE_SLOPES, ("spectrum", "cantor_p2"), slopes)
    result = run.run_workload("gram-p2", None, 0.1, trace=False, smoke=True)
    # spectrum fits level 6 and the convergence ladder 5,6 ends there
    assert result["failed"] == result["attempted"] == 4
    assert all(any("reference -0.70000" in p for p in f["problems"]) for f in result["failures"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end_emits_every_metric(workload):
    result = run.run_workload(workload, 3, 0.1, trace=False, smoke=True)
    assert result["attempted"] > 0 and result["failed"] == 0, result["failures"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.fixture(scope="module")
def traced_twice():
    return [
        {w: run.run_workload(w, None, 0.1, trace=True, smoke=True) for w in run.WORKLOADS}
        for _ in range(2)
    ]


def test_traced_smoke_emits_every_layer_metric(traced_twice):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced_twice[0].values():
        assert result["failed"] == 0, result["failures"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


def test_self_times_add_up_to_the_runner_time(traced_twice):
    for result in traced_twice[0].values():
        passes = result["detail"]["passes"]
        plain = [p for p in passes if p["mode"] == "plain"]
        timed = [p for p in passes if p["mode"] == "time"]
        for plain_pass, timed_pass in zip(plain, timed):
            stats = run.layer_stats(timed_pass["spans"])
            inside = sum(s["self_s"] for n, s in stats.items() if n not in ("pass.time", "cli.process"))
            assert all(s["self_s"] >= -1e-9 for s in stats.values())
            assert inside == pytest.approx(stats["cli.main"]["total_s"], abs=1e-6)
            untraced = run.layer_stats(plain_pass["spans"])["cli.main"]["total_s"]
            overhead = result["metrics"]["trace.overhead_s"]["value"]
            assert abs(inside - untraced) <= abs(overhead) + 1e-6


def test_second_smoke_run_reports_identical_calls(traced_twice):
    first, second = traced_twice
    for workload in run.WORKLOADS:
        calls = [
            {n: m["value"] for n, m in r[workload]["metrics"].items() if n.endswith(".calls")}
            for r in (first, second)
        ]
        assert calls[0] == calls[1]
        assert any(calls[0].values())


def test_command_prints_one_json_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "galerkin-p15", "--seed", "5",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert any(line.split()[0] == "failed_ratio" for line in lines[:-1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gram-p2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
