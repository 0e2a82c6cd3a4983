"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracer.py`` reports a target it cannot resolve as absent,
together with every metric that needs it, so a rename in the package
would silently blind a per-layer metric.  These tests load the tracer
module without installing it and check its tables against the package.
A call path that stops going through a traced function blinds a metric
too, so each workload's tiny run is also traced end to end.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from centralspin import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The harness computes this one from untraced and traced wall times, not the tracer.
HARNESS_METRICS = {"trace.overhead_s"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while the class body runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracer = _load_tracer()
SPANS = sorted({name for _, _, name in tracer.TARGETS})


@pytest.mark.parametrize("span", SPANS)
def test_every_span_resolves_through_a_binding(span):
    bindings = [(module, attr) for module, attr, name in tracer.TARGETS if name == span]
    resolved = [
        (module, attr)
        for module, attr in bindings
        if callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert resolved, f"no binding of {span} resolves: {bindings}"


def test_metric_tables_name_only_traced_spans():
    used = set(tracer.KERNEL_SPANS) | set(tracer.SELF_TIMES.values()) | set(tracer.HOOKS)
    assert used <= set(SPANS), sorted(used - set(SPANS))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_per_layer_metric_is_reported(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    configs = importlib.import_module("workloads").WORKLOADS[workload].configs(seed=5, tiny=True)
    traced = tracer.Tracer()
    traced.install()
    try:
        records = [cli.run_config(config) for config in configs]
        cli.emit_results(records, tmp_path, "csv")
        metrics = traced.layer_metrics()
    finally:
        traced.uninstall()
    names = [m["name"] for m in SPEC["per_layer"] if m["name"] not in HARNESS_METRICS]
    absent = [name for name in names if metrics.get(name) is None]
    assert not absent, f"{workload} reports no value for {absent}"
