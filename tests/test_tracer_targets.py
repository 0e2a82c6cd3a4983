"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracer.py`` reports a target it cannot resolve as absent,
together with every metric that needs it, so a rename in the package
would silently blind a per-layer metric.  These tests load the tracer
module without installing it and check its tables against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
