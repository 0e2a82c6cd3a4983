"""Measurement passes of one workload: set-up, timed runs, memory, and the traced run.

A workload run evaluates every config of the workload with
``cli.run_config`` and writes the records with ``cli.emit_results``
into a fresh temporary directory under ``perfbench/out``; the written
CSVs are then read back and checked (outside the timed region).  All
runs are a closed loop in one process.

Every timed run is bracketed by calibrations (calibration.py), and its
times are reported in reference seconds: scaled by REFERENCE_S over the
mean of the two calibrations around it.  Raw seconds are kept in the
report next to the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

from centralspin import cli

import bench_env
import checks
from calibration import Calibration, to_reference
import tracer as tracing
from workloads import WORKLOADS, point_count

SETUP_REPEATS = 7
MIN_TIMED_RUNS = 3
PROBE_TIMEOUT_S = 120


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    texts: list[str | None]  # CSV text per config; None where run_config raised
    errors: list[str]
    calibration_s: float = 0.0  # mean of the calibrations before and after the run
    layers: dict = field(default_factory=dict)  # per-layer values of a traced run


@dataclass
class Tally:
    """Configs attempted and failed over every run of one invocation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, gate: checks.Gate, run: RunResult) -> None:
        self.problems += run.errors
        for i, text in enumerate(run.texts):
            found = gate.check(i, text)
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += found


def run_once(configs, out_dir: Path) -> RunResult:
    """One workload run: every config through run_config, then emit_results."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        records, done, errors = [], [], []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for config in configs:
            try:
                records.append(cli.run_config(config))
                done.append(config)
            except Exception:  # noqa: BLE001 - a raising config is counted as failed
                errors.append(f"{config.label}: {traceback.format_exc(limit=-1).strip()}")
        paths = cli.emit_results(records, tmp, "csv") if records else []
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        written = {id(c): Path(p).read_text() for c, p in zip(done, paths)}
    return RunResult(wall, cpu, [written.get(id(c)) for c in configs], errors)


def timed_runs(configs, seconds, gate, tally, calibration, tracer=None) -> list[RunResult]:
    """Closed-loop runs for ``seconds`` (at least MIN_TIMED_RUNS), each between calibrations."""
    runs = []
    before = calibration.seconds()
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_TIMED_RUNS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        run = run_once(configs, bench_env.OUT)
        if tracer is not None:
            run.layers = tracer.layer_metrics()
        after = calibration.seconds()
        run.calibration_s = (before + after) / 2
        before = after
        tally.record(gate, run)
        runs.append(run)
    return runs


def spread(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timing(raw: list[float], calibrations: list[float], unit: str = "s") -> dict:
    """A timing metric in reference seconds, with the raw readings beside it."""
    scaled = spread(to_reference(r, c) for r, c in zip(raw, calibrations))
    return {"value": scaled["median"], "unit": unit, **scaled, "raw": spread(raw)}


def setup_times(workload: str, seed: int, tiny: bool, calibration) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh interpreters (setup_probe.py), with the
    mean of the calibrations taken in this process before and after each."""
    command = [sys.executable, str(bench_env.BENCH_DIR / "setup_probe.py"),
               "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups, calibrations = [], []
    before = calibration.seconds()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, cwd=bench_env.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()}")
        setups.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        after = calibration.seconds()
        calibrations.append((before + after) / 2)
        before = after
    return setups, calibrations


def measure(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[workload_name]
    configs = workload.configs(seed, tiny)
    gate = checks.Gate.for_workload(workload, configs, tiny)
    tally = Tally()
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "configs": len(configs),
        "points": point_count(configs),
        "environment": bench_env.environment(seed),
    }
    calibration = Calibration()
    if trace:
        report["per_layer"] = _traced(configs, seconds, gate, tally, calibration)
    else:
        report["end_to_end"] = _untraced(
            workload_name, configs, seed, seconds, tiny, gate, tally, calibration
        )
        report["end_to_end"]["error_rate"] = {
            "value": tally.failed / tally.attempted if tally.attempted else 1.0, "unit": "ratio",
        }
    report.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    report["correct"] = tally.failed == 0 and not tally.problems
    return report


def _untraced(name, configs, seed, seconds, tiny, gate, tally, calibration) -> dict:
    setups, setup_calibrations = setup_times(name, seed, tiny, calibration)
    tally.record(gate, run_once(configs, bench_env.OUT))  # warm-up
    runs = timed_runs(configs, seconds, gate, tally, calibration)
    tracemalloc.start()
    try:
        mem_run = run_once(configs, bench_env.OUT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.record(gate, mem_run)
    calibrations = [r.calibration_s for r in runs]
    points = point_count(configs)
    wall = timing([r.wall_s for r in runs], calibrations)
    return {
        "wall_s": wall,
        "points_per_s": {"value": points / wall["value"], "unit": "1/s", "points": points},
        "cpu_s": timing([r.cpu_s for r in runs], calibrations),
        "setup_s": timing(setups, setup_calibrations),
        "peak_mem_mb": {"value": peak / 2**20, "unit": "MiB"},
        "calibration_s": {
            "value": statistics.median(calibrations), "unit": "s", **spread(calibrations)
        },
    }


def _traced(configs, seconds, gate, tally, calibration) -> dict:
    """Untraced and traced halves of the run; per-layer values are medians over traced runs."""
    tally.record(gate, run_once(configs, bench_env.OUT))  # warm-up
    untraced = timed_runs(configs, seconds / 2, gate, tally, calibration)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_runs(configs, seconds / 2, gate, tally, calibration, tracer)
    finally:
        tracer.uninstall()

    layers = {}
    for name in traced[0].layers:
        values = [_to_reference(name, r.layers[name], r.calibration_s) for r in traced]
        layers[name] = None if any(v is None for v in values) else statistics.median(values)
    untraced_wall = statistics.median(to_reference(r.wall_s, r.calibration_s) for r in untraced)
    traced_wall = statistics.median(to_reference(r.wall_s, r.calibration_s) for r in traced)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["engine.parallel_efficiency"] = _worker_invariance(
        configs, untraced[-1], untraced_wall, tally, calibration
    )
    missing = sorted({n for _, _, n in tracing.TARGETS} - tracer.installed_names)
    out = {}
    for name, value in layers.items():
        out[name] = {"value": value, "unit": tracing.LAYER_UNITS[name]}
        if value is None:
            out[name]["absent"] = _absent_reason(name, missing)
    out["absent_targets"] = missing
    return out


def _to_reference(name: str, value, calibration_s: float):
    """Scale a per-layer time (or rate) to reference seconds; counts stay as they are."""
    if value is None:
        return None
    unit = tracing.LAYER_UNITS[name]
    if unit in ("s", "ms"):
        return to_reference(value, calibration_s)
    if unit == "1/s":
        return value / to_reference(1.0, calibration_s)
    return value


def _absent_reason(name: str, missing: list[str]) -> str:
    layer = name.split(".")[0]
    if any(m.startswith(layer + ".") for m in missing):
        return "a traced target of this layer no longer exists"
    if name == "observables.point_ms_p99":
        return f"fewer than {tracing.P99_MIN_POINTS} points per run"
    if name == "engine.parallel_efficiency":
        return "no config of this workload uses more than one worker"
    return "not reached by this workload"


def _worker_invariance(configs, reference: RunResult, wall_s: float, tally: Tally, calibration):
    """Re-run multi-worker configs with one worker; their CSVs must be byte-identical.

    Returns the parallel efficiency t(1 worker) / (workers * t(workers)), both
    in reference seconds, or None when no config uses more than one worker.
    """
    workers = max(c.workers for c in configs)
    if workers == 1:
        return None
    before = calibration.seconds()
    single = run_once([replace(c, workers=1) for c in configs], bench_env.OUT)
    single_s = to_reference(single.wall_s, (before + calibration.seconds()) / 2)
    for config, want, got in zip(configs, reference.texts, single.texts):
        tally.attempted += 1
        if want is None or got != want:
            tally.failed += 1
            tally.problems.append(
                f"{config.label}: CSV with workers=1 differs from workers={config.workers}"
            )
    return single_s / (workers * wall_s)
