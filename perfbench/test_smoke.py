"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at its tiny size through run.py, untraced and
traced, and checks that each named metric is reported with its unit
and that nothing failed.  Feeds the correctness gate deliberately wrong
references to show that it can fail, and checks that the benchmark
refuses to run where the package source is missing.  About a minute on
a 2-core machine.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import bench_env

bench_env.prepare()

import checks  # noqa: E402
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
END_TO_END = ("wall_s", "points_per_s", "cpu_s", "setup_s", "peak_mem_mb", "error_rate")
PER_LAYER = (
    "core.profile_calls", "core.profile_calls_per_point", "core.profile_self_s",
    "engine.enumerate_self_s", "engine.binomial_self_s", "engine.merge_self_s",
    "engine.atoms_out", "engine.dropped_atoms", "engine.merge_ratio",
    "engine.sample_self_s", "engine.samples_per_s", "engine.parallel_efficiency",
    "observables.classify_self_s", "observables.dispatch_self_s",
    "observables.point_ms_p50", "observables.point_ms_p99",
    "universe.hamiltonian_self_s", "universe.eigh_s", "universe.eigh_calls",
    "universe.ensemble_self_s", "universe.outcomes",
    "cli.run_config_self_s", "cli.emit_s", "cli.bytes_written", "cli.degenerate_retries",
    "trace.overhead_s",
)
# A perturbation each gate must catch: far outside its tolerance.
WRONG_BY = {"exact": 1e-9, "oracle": 1e-6, "sampled": 0.05}


def run_bench(cwd, workload, trace, seed=5):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench(bench_env.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}

    report = json.loads((bench_env.OUT / f"{workload}-seed5-trace{trace}.json").read_text())
    section = report["per_layer" if trace else "end_to_end"]
    for name in PER_LAYER if trace else END_TO_END:
        assert section[name]["unit"], name
        assert section[name]["value"] is not None or section[name]["absent"], name
    if not trace:
        assert section["error_rate"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_catches_a_wrong_reference(workload, tmp_path):
    spec = WORKLOADS[workload]
    configs = spec.configs(seed=5, tiny=True)
    gate = checks.Gate.for_workload(spec, configs, tiny=True)
    run = harness.run_once(configs, tmp_path)
    assert [gate.check(i, text) for i, text in enumerate(run.texts)] == [[]] * len(configs)

    wrong = copy.deepcopy(gate.references)
    wrong[0]["p_up"][0] += WRONG_BY[spec.gate]
    problems = checks.Gate(spec.gate, configs, wrong).check(0, run.texts[0])
    assert any("p_up" in p for p in problems), problems


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench_env.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_bench(tmp_path, "figures", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
