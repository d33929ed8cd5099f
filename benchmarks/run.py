#!/usr/bin/env python3
"""Benchmark of the ``fracspectra`` CLI on four workloads, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload gram-p2 --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seconds 15 --trace 1

The load is a closed loop with one client: each CLI process starts only after
the previous one has exited, and the BLAS thread count is left at the
machine default (it is recorded).  The program sees only configs generated
from the workload's bundled config: a warm-up copy at level 6 carrying
``--seed`` (the seed moves the audit and entropy corpora, not the spectra)
and a timed copy carrying the bundled seed (see :class:`WorkloadRun`).
Every invocation is checked (exit code, verdict line, stamped artifacts,
fitted slopes against this commit's references); a failed check is counted,
never fatal.

``--trace 0`` times the workload as a user runs it (one ``python -m
fracspectra.cli`` process per command) and reports ``wall_s``, ``setup_s``
and ``peak_rss_mb``.  ``--trace 1`` reruns each command through
``benchmarks/traced_cli.py``, which wraps the public functions the per-layer
metric names of ``BENCHMARK.json`` point at, and reports those metrics.
``--smoke`` shrinks every workload to level 6 for a quick self-check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, samples, failures, spans) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    # name: (bundled config, CLI commands run one after another)
    "gram-p2": ("cantor_p2", (("spectrum",), ("convergence", "--levels", "7,8,9,10,11,12"))),
    "trace-p2": ("cantor_p2", (("trace-snumbers",),)),
    "galerkin-p15": ("cantor_p15", (("validate-symbol",), ("spectrum",))),
    "entropy-small": ("cantor_small", (("entropy-lab",), ("audits",))),
}
SMOKE_LEVEL = 6
SMOKE_LADDER = "5,6"

# f"{slope:.5f}" of this commit's fits by (command, config) and level.  The
# seed moves only the audit and entropy corpora, so these hold for every
# seed; each convergence level is fitted exactly as `spectrum` fits it.
REFERENCE_SLOPES = {
    ("spectrum", "cantor_p2"): {
        5: "-0.68831", 6: "-0.76822", 7: "-0.79347", 8: "-0.86129",
        9: "-0.86569", 10: "-0.86366", 11: "-0.86231", 12: "-0.86159",
    },
    ("trace-snumbers", "cantor_p2"): {6: "-0.38411", 11: "-0.43115"},
    ("spectrum", "cantor_p15"): {6: "-0.69122", 11: "-0.69664"},
}
ARTIFACTS = {
    "spectrum": ("spectrum.csv", "report.json", "plot_spectrum.py"),
    "convergence": ("convergence.csv",),
    "audits": ("audits.json",),
    "trace-snumbers": ("snumbers.csv", "snumber_report.json"),
    "entropy-lab": ("entropy_lab.json",),
    "validate-symbol": ("symbol_report.json",),
}
SLOPE_SOURCE = {"report.json": "spectrum_report", "snumber_report.json": "snumber_report"}

SETUP_PROBES = 5
SETUP_CODE = (
    "import sys, fracspectra; c = fracspectra.load_config(sys.argv[1]); "
    "print(c.config_hash, c.seed)"
)
# No new iteration starts past this many seconds, so a run ends well inside 180 s.
DEADLINE_S = 150.0
PROCESS_TIMEOUT_S = 170.0
MB = 1e6


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def launch(argv: list[str], stdout_path: Path, env: dict) -> tuple[float, int, float]:
    """Run one child to its exit: (seconds from launch to exit, exit code, peak RSS MB)."""
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > PROCESS_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss * 1024 / MB


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_invocation(command: tuple, inputs: Inputs, code: int, stdout: str, out_dir: Path) -> list[str]:
    """Everything wrong with one finished invocation; empty when it is correct."""
    name, args = command[0], command[1:]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    first = stdout.splitlines()[0] if stdout else ""
    if not first.startswith(f"{inputs.config}: {name} PASS: "):
        problems.append(f"verdict line {first!r}")
    for artifact in ARTIFACTS[name]:
        path = out_dir / artifact
        if not path.is_file():
            problems.append(f"missing {artifact}")
            continue
        try:
            problems += check_artifact(artifact, path.read_text(), inputs, name, args)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable {artifact}: {exc!r}")
    return problems


def check_artifact(artifact: str, text: str, inputs: Inputs, name: str, args: tuple) -> list[str]:
    problems = []
    digest, seed = inputs.stamp
    if artifact.endswith(".json"):
        data = json.loads(text)
        stamped = (data.get("config_sha256"), data.get("seed")) == (digest, seed)
        if artifact in SLOPE_SOURCE:
            slope = data[SLOPE_SOURCE[artifact]]["exponents"]["fitted_slope"]
            references = REFERENCE_SLOPES.get((name, inputs.stem), {})
            problems += compare_slope(artifact, inputs.level, slope, references)
    else:
        stamped = f"config_sha256={digest} seed={seed}" in "".join(text.splitlines(True)[:2])
    if not stamped:
        problems.append(f"unstamped {artifact}")
    if artifact == "convergence.csv":
        ladder = args[args.index("--levels") + 1]
        problems += check_convergence(text, ladder, REFERENCE_SLOPES[("spectrum", inputs.stem)])
    return problems


def compare_slope(label, level, slope, references) -> list[str]:
    expected = references.get(level)
    if expected is None:
        return [f"{label}: no reference slope for level {level}"]
    if f"{slope:.5f}" != expected:
        return [f"{label}: slope {slope:.5f} at level {level}, reference {expected}"]
    return []


def check_convergence(text, ladder, references) -> list[str]:
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    levels = [int(row["level"]) for row in rows]
    if levels != [int(lv) for lv in ladder.split(",")]:
        return [f"convergence.csv: levels {levels}, asked {ladder}"]
    problems = []
    for row, level in zip(rows, levels):
        if int(row["n_atoms"]) != 2**level:
            problems.append(f"convergence.csv: {row['n_atoms']} atoms at level {level}")
        problems += compare_slope("convergence.csv", level, float(row["slope"]), references)
    return problems


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """One generated config and the workload's commands on it."""

    config: Path
    stem: str
    seed: int
    level: int
    commands: list[tuple]
    stamp: tuple[str, int] | None = None


class WorkloadRun:
    """A workload's generated configs, its scratch directory and its tally of checks.

    ``warm`` carries the requested seed at the smoke level and serves the
    warm-up; ``timed`` carries the bundled config's own seed and is what
    every timing and memory figure measures.  The seed changes the audit
    and entropy corpora, and with them the cost of ``entropy-small`` (its
    peak RSS ranges over 412-739 MB across seeds), so timing one fixed corpus
    keeps the figures comparable across runs while the seeded corpus is
    still run and checked in every run.
    """

    def __init__(self, workload: str, seed: int | None, smoke: bool):
        self.workload = workload
        stem, commands = WORKLOADS[workload]
        raw = json.loads((CONFIGS / f"{stem}.json").read_text())
        self.dir = OUT / f"run-{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.warm = self._inputs("warm", stem, commands, raw, raw["seed"] if seed is None else seed, True)
        self.timed = self._inputs("timed", stem, commands, raw, raw["seed"], smoke)
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self._count = 0

    def _inputs(self, name, stem, commands, raw, seed, smoke) -> Inputs:
        raw = {**raw, "seed": seed, "fractal": dict(raw["fractal"])}
        if smoke:
            raw["fractal"]["level"] = SMOKE_LEVEL
        config = self.dir / name / f"{stem}.json"
        config.parent.mkdir()
        config.write_text(json.dumps(raw, indent=2))
        commands = [tuple(SMOKE_LADDER if smoke and a[0].isdigit() else a for a in c) for c in commands]
        return Inputs(config, stem, seed, raw["fractal"]["level"], commands)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def next_path(self, stem: str) -> Path:
        self._count += 1
        return self.dir / f"{stem}-{self._count}"

    def setup_probe(self, inputs: Inputs) -> float:
        """Interpreter start + import + load_config in a fresh process; reads the stamp."""
        log = self.next_path("setup").with_suffix(".out")
        seconds, code, _ = launch([sys.executable, "-c", SETUP_CODE, str(inputs.config)], log, self.env)
        fields = log.read_text().split()
        if code != 0 or len(fields) != 2:
            raise RuntimeError(f"loading {inputs.config} failed: {log.with_suffix('.err').read_text()}")
        inputs.stamp = (fields[0], int(fields[1]))
        return seconds

    def invoke(self, prefix: list[str], inputs: Inputs, command: tuple, extra=()) -> dict:
        """Launch one CLI process; its outputs are checked later by :meth:`settle`."""
        out_dir = self.next_path("out")
        log = out_dir.with_suffix(".out")
        argv = [*prefix, *command, "--config", str(inputs.config), "--out", str(out_dir), *extra]
        seconds, code, rss = launch(argv, log, self.env)
        return {"inputs": inputs, "command": command, "out_dir": out_dir, "log": log,
                "seconds": seconds, "code": code, "rss_mb": rss}

    def settle(self, invocation: dict) -> bool:
        """Check one invocation, count it, and delete its outputs."""
        inputs, command = invocation["inputs"], invocation["command"]
        problems = check_invocation(
            command, inputs, invocation["code"], invocation["log"].read_text(), invocation["out_dir"]
        )
        self.attempted += 1
        if problems:
            self.failed += 1
            stderr = invocation["log"].with_suffix(".err").read_text()
            self.failures.append({"command": list(command), "seed": inputs.seed,
                                  "problems": problems, "stderr_tail": stderr[-2000:]})
        shutil.rmtree(invocation["out_dir"], ignore_errors=True)
        return not problems

    def iteration(self, inputs: Inputs) -> tuple[float, float]:
        """One untraced workload run: (wall seconds from first launch to last exit, peak RSS MB)."""
        prefix = [sys.executable, "-m", "fracspectra.cli"]
        start = time.perf_counter()
        done = [self.invoke(prefix, inputs, command) for command in inputs.commands]
        wall = time.perf_counter() - start
        for invocation in done:
            self.settle(invocation)
        return wall, max(invocation["rss_mb"] for invocation in done)

    def warm_up(self) -> None:
        """The workload once at the smoke level on the seeded corpus: checked, not timed."""
        self.setup_probe(self.warm)
        self.iteration(self.warm)
        self.setup_probe(self.timed)


def timed_window(seconds: float, started: float, step) -> list:
    """Call ``step`` at least once, and again while the next call fits in ``seconds``."""
    results, window = [], time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - before
        now = time.perf_counter()
        if now - window + last > seconds or now - started + last > DEADLINE_S:
            return results


def run_end_to_end(run: WorkloadRun, seconds: float, started: float) -> tuple[dict, dict]:
    run.warm_up()
    setup = [run.setup_probe(run.timed) for _ in range(SETUP_PROBES)]
    samples = timed_window(seconds, started, lambda: run.iteration(run.timed))
    walls = [wall for wall, _ in samples]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (max(rss for _, rss in samples), "MB", len(samples)),
    }
    return metrics, {"wall_s": walls, "setup_s": setup, "peak_rss_mb": [rss for _, rss in samples]}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def layer_targets(names: list[str]) -> list[str]:
    """``module.function`` / ``linalg.routine`` to wrap for the per-layer metric names."""
    targets = set()
    for name in names:
        layer = name.split(".")[0]
        if layer not in ("cli", "trace"):
            targets.add(".".join(name.split(".")[:2]))
    return sorted(targets)


def layer_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total_s (outermost calls only), self_s, calls, input_mb, peak_mb."""
    by_id = {span["id"]: span for span in spans}
    covered: dict[str, float] = {}
    for span in spans:
        covered[span["parent"]] = covered.get(span["parent"], 0.0) + duration(span)
    stats: dict[str, dict] = {}
    for span in spans:
        entry = stats.setdefault(
            span["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0, "input_mb": 0.0, "peak_mb": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += duration(span) - covered.get(span["id"], 0.0)
        entry["input_mb"] += span.get("input_bytes", 0) / MB
        entry["peak_mb"] = max(entry["peak_mb"], span.get("peak_bytes", 0) / MB)
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != span["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            entry["total_s"] += duration(span)
    return stats


def duration(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


class TracedPasses:
    """Passes of one workload through ``traced_cli.py``, all sharing one trace id."""

    def __init__(self, run: WorkloadRun, targets: list[str]):
        self.run = run
        self.targets = ",".join(targets)
        self.trace_id = uuid.uuid4().hex
        self.passes: list[dict] = []

    def one(self, mode: str) -> list[dict]:
        """Run every command of the workload in its own traced process; return the spans."""
        root = {"id": f"pass{len(self.passes) + 1}", "parent": None, "name": f"pass.{mode}"}
        spans = [root]
        root["start_ns"] = time.perf_counter_ns()
        for command in self.run.timed.commands:
            record = self.run.next_path("spans").with_suffix(".json")
            process = {"id": f"{root['id']}.{len(spans)}", "parent": root["id"], "name": "cli.process"}
            prefix = [sys.executable, str(HERE / "traced_cli.py"), mode, str(record), process["id"], self.targets, "--"]
            process["start_ns"] = time.perf_counter_ns()
            invocation = self.run.invoke(prefix, self.run.timed, command)
            process["end_ns"] = time.perf_counter_ns()
            spans.append(process)
            if record.is_file():
                spans += json.loads(record.read_text())["spans"]
            self.run.settle(invocation)
        root["end_ns"] = time.perf_counter_ns()
        for span in spans:
            span["trace_id"] = self.trace_id
        self.passes.append({"mode": mode, "spans": spans})
        return spans


def run_traced(run: WorkloadRun, units: dict[str, str], seconds: float, started: float) -> tuple[dict, dict]:
    run.warm_up()
    passes = TracedPasses(run, layer_targets(list(units)))
    peaks = layer_stats(passes.one("mem"))

    def pair():
        plain = layer_stats(passes.one("plain"))
        timed = layer_stats(passes.one("time"))
        return plain, timed

    pairs = timed_window(seconds, started, pair)
    samples: dict[str, list] = {}
    for plain, timed in pairs:
        overhead = timed["cli.main"]["total_s"] - plain["cli.main"]["total_s"]
        for name in units:
            if name == "cli.process_s":
                value = plain["cli.process"]["self_s"]
            elif name == "trace.overhead_s":
                value = overhead
            else:
                span, stat = name.rsplit(".", 1)
                source = peaks if stat == "peak_mb" else timed
                value = source.get(span, {}).get(stat, 0)
            samples.setdefault(name, []).append(value)
    metrics = {name: (statistics.median(values), units[name], len(values)) for name, values in samples.items()}
    return metrics, {"samples": samples, "trace_id": passes.trace_id, "passes": passes.passes}


# ---------------------------------------------------------------------------
# Environment record and entry point
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(seed: int | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        # MemTotal, from sysinfo(2) through sysconf
        "mem_total_kb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 1024,
        "seed": seed,
    }


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool, smoke: bool) -> dict:
    started = time.perf_counter()
    run = WorkloadRun(workload, seed, smoke)
    try:
        if trace:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
            metrics, detail = run_traced(run, units, seconds, started)
        else:
            metrics, detail = run_end_to_end(run, seconds, started)
    finally:
        run.close()
    return {
        "workload": workload,
        "seed": run.warm.seed,
        "trace": trace,
        "smoke": smoke,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        "detail": detail,
        "elapsed_s": time.perf_counter() - started,
    }


def summary_lines(result: dict) -> list[str]:
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines = [f"{result['workload']} (seed {result['seed']}, trace {int(result['trace'])})"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<55} {metric['value']:>14.6g} {metric['unit']:<5} n={metric['samples']}")
    lines.append(f"  {'failed_ratio':<55} {ratio:>14.6g} {'ratio':<5} n={result['attempted']}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {' '.join(failure['command'])}: {'; '.join(failure['problems'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the bundled config's own)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload to level 6")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "fracspectra" / "cli.py", CONFIGS, ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(map(str, missing))} not found", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")

    env = environment(args.seed)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in workloads]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for result in results:
        for line in summary_lines(result):
            print(line)
        name = f"{result['workload']}-seed{result['seed']}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        (OUT / "results" / name).write_text(json.dumps({"environment": env, **result}, indent=1))
    prefix = len(results) > 1
    final = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
