"""Outside-in tracing: spans around the package's public functions.

The tracer replaces a function at the name its callers look up (for
example ``centralspin.engine.branch_flip_profile``, which the engine
calls through its own module globals) with a wrapper that records a
span, and puts the original back on ``uninstall``.  No file of the
package changes.  A target that no longer exists is reported as
absent, and so are the metrics that need it.

Spans stay in memory.  A span opened on a worker thread with no open
span of its own takes the innermost open span of the installing thread
as its parent, so the sampler's per-chunk work counts as its child.
Self time is a span's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

# (module, attribute, span name).  Several bindings of one function share a span name.
TARGETS = (
    ("centralspin.cli", "run_config", "cli.run_config"),
    ("centralspin.cli", "emit_results", "cli.emit_results"),
    ("centralspin.cli", "distribution_at", "observables.distribution_at"),
    ("centralspin.observables", "distribution_at", "observables.distribution_at"),
    ("centralspin.observables", "class_probabilities", "observables.class_probabilities"),
    ("centralspin.engine", "enumerate_outcomes", "engine.enumerate_outcomes"),
    ("centralspin.engine", "binomial_outcomes", "engine.binomial_outcomes"),
    ("centralspin.engine", "merge_by_u", "engine.merge_by_u"),
    ("centralspin.engine", "sample_outcomes", "engine.sample_outcomes"),
    ("centralspin.engine", "branch_flip_profile", "core.branch_flip_profile"),
    ("centralspin.core", "branch_flip_profile", "core.branch_flip_profile"),
    ("centralspin.universe", "thermal_ensemble", "universe.thermal_ensemble"),
    ("centralspin.universe", "trajectory_ensemble", "universe.trajectory_ensemble"),
    ("centralspin.universe", "build_hamiltonian", "universe.build_hamiltonian"),
    ("numpy.linalg", "eigh", "universe.eigh"),
)
KERNEL_SPANS = (
    "engine.enumerate_outcomes",
    "engine.binomial_outcomes",
    "engine.merge_by_u",
    "engine.sample_outcomes",
    "universe.thermal_ensemble",
    "universe.trajectory_ensemble",
    "universe.build_hamiltonian",
    "universe.eigh",
)
# Self-time metrics and the span each one measures.
SELF_TIMES = {
    "core.profile_self_s": "core.branch_flip_profile",
    "engine.enumerate_self_s": "engine.enumerate_outcomes",
    "engine.binomial_self_s": "engine.binomial_outcomes",
    "engine.merge_self_s": "engine.merge_by_u",
    "engine.sample_self_s": "engine.sample_outcomes",
    "observables.classify_self_s": "observables.class_probabilities",
    "observables.dispatch_self_s": "observables.distribution_at",
    "universe.hamiltonian_self_s": "universe.build_hamiltonian",
    "universe.ensemble_self_s": "universe.trajectory_ensemble",
    "cli.run_config_self_s": "cli.run_config",
}
P99_MIN_POINTS = 1000
# Unit of every per-layer metric the traced run reports.
LAYER_UNITS = {
    "cli.points": "count",
    "core.profile_calls": "count",
    "core.profile_calls_per_point": "calls/point",
    "core.profile_self_s": "s",
    "engine.enumerate_self_s": "s",
    "engine.binomial_self_s": "s",
    "engine.merge_self_s": "s",
    "engine.sample_self_s": "s",
    "engine.atoms_out": "count",
    "engine.dropped_atoms": "count",
    "engine.merge_ratio": "ratio",
    "engine.samples_per_s": "1/s",
    "engine.parallel_efficiency": "ratio",
    "observables.classify_self_s": "s",
    "observables.dispatch_self_s": "s",
    "observables.point_ms_p50": "ms",
    "observables.point_ms_p99": "ms",
    "observables.points_timed": "count",
    "universe.hamiltonian_self_s": "s",
    "universe.eigh_s": "s",
    "universe.eigh_calls": "count",
    "universe.ensemble_self_s": "s",
    "universe.outcomes": "count",
    "cli.run_config_self_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_written": "B",
    "cli.degenerate_retries": "count",
    "kernel.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters taken from a wrapped call's arguments and result, by span name.
def _count_run_config(counts, args, kwargs, result):
    counts["cli.points"] += result.series.times.size
    counts["cli.degenerate_retries"] += len(result.diagnostics["degenerate_retries"])


def _count_emit(counts, args, kwargs, result):
    counts["cli.bytes_written"] += sum(Path(p).stat().st_size for p in result)


def _count_atoms(counts, args, kwargs, result):
    counts["engine.atoms_out"] += len(result)
    counts["engine.dropped_atoms"] += result.dropped


def _count_samples(counts, args, kwargs, result):
    _count_atoms(counts, args, kwargs, result)
    counts["engine.samples"] += _arg(args, kwargs, 3, "count")


def _count_merge(counts, args, kwargs, result):
    counts["engine.merge_in"] += len(_arg(args, kwargs, 0, "dist"))
    counts["engine.merge_out"] += len(result)


def _count_outcomes(counts, args, kwargs, result):
    counts["universe.outcomes"] += len(result)


HOOKS = {
    "cli.run_config": (_count_run_config, ("cli.points", "cli.degenerate_retries")),
    "cli.emit_results": (_count_emit, ("cli.bytes_written",)),
    "engine.enumerate_outcomes": (_count_atoms, ("engine.atoms_out", "engine.dropped_atoms")),
    "engine.binomial_outcomes": (_count_atoms, ("engine.atoms_out", "engine.dropped_atoms")),
    "engine.sample_outcomes": (
        _count_samples, ("engine.atoms_out", "engine.dropped_atoms", "engine.samples"),
    ),
    "engine.merge_by_u": (_count_merge, ("engine.merge_in", "engine.merge_out")),
    "universe.trajectory_ensemble": (_count_outcomes, ("universe.outcomes",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.broken_counts: set[str] = set()  # counters whose hook no longer fits the result
        self.installed_names: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home_thread = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original):
        hook = HOOKS.get(name)
        spans, lock = self.spans, self._lock

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else None
            with lock:
                index = len(spans)
                spans.append(Span(name, time.perf_counter(), 0.0, parent))
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if hook is not None:
                count, counters = hook
                try:
                    with lock:
                        count(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken_counts.update(counters)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(name, original))
            self._patches.append((module, attr, original))
            self.installed_names.add(name)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        """Forget the spans and counts of the previous run; wrappers stay in place."""
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self) -> dict:
        """Per-layer values of the run since the last reset; None marks an absent metric."""
        calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(i)
        point_ms = []
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            calls[span.name] += 1
            total[span.name] += duration
            self_time[span.name] += duration - _covered(self.spans, children.get(i, ()), span)
            if span.name == "observables.distribution_at":
                point_ms.append(duration * 1e3)
        installed = self.installed_names

        def timed(span, values):
            """A time is absent when its target is missing or the run never called it."""
            return values[span] if span in installed and calls[span] else None

        def counted(counter, *spans):
            if counter in self.broken_counts or not all(s in installed for s in spans):
                return None
            return self.counts[counter]

        engine_kernels = (
            "engine.enumerate_outcomes", "engine.binomial_outcomes", "engine.sample_outcomes"
        )
        points = counted("cli.points", "cli.run_config")
        profile = "core.branch_flip_profile"
        profile_calls = calls[profile] if profile in installed else None
        merge_in = counted("engine.merge_in", "engine.merge_by_u")
        merge_out = counted("engine.merge_out", "engine.merge_by_u")
        samples = counted("engine.samples", "engine.sample_outcomes")
        sample_s = timed("engine.sample_outcomes", total)
        reached_kernels = [n for n in KERNEL_SPANS if n in installed]
        metrics = {
            "cli.points": points,
            "core.profile_calls": profile_calls,
            "core.profile_calls_per_point": (
                profile_calls / points if profile_calls is not None and points else None
            ),
            "engine.atoms_out": counted("engine.atoms_out", *engine_kernels),
            "engine.dropped_atoms": counted("engine.dropped_atoms", *engine_kernels),
            "engine.merge_ratio": merge_out / merge_in if merge_in else None,
            "engine.samples_per_s": samples / sample_s if samples and sample_s else None,
            "observables.point_ms_p50": statistics.median(point_ms) if point_ms else None,
            "observables.point_ms_p99": (
                statistics.quantiles(point_ms, n=100)[98] if len(point_ms) >= P99_MIN_POINTS else None
            ),
            "observables.points_timed": len(point_ms),
            "universe.eigh_s": timed("universe.eigh", total),
            "universe.eigh_calls": calls["universe.eigh"] if "universe.eigh" in installed else None,
            "universe.outcomes": counted("universe.outcomes", "universe.trajectory_ensemble"),
            "cli.emit_s": timed("cli.emit_results", total),
            "cli.bytes_written": counted("cli.bytes_written", "cli.emit_results"),
            "cli.degenerate_retries": counted("cli.degenerate_retries", "cli.run_config"),
            "kernel.self_s": sum(self_time[n] for n in reached_kernels) if reached_kernels else None,
        }
        metrics.update({metric: timed(span, self_time) for metric, span in SELF_TIMES.items()})
        return metrics


def _covered(spans: list[Span], child_indices, parent: Span) -> float:
    """Length of the union of the children's intervals, clipped to the parent's."""
    intervals = sorted(
        (max(spans[c].start, parent.start), min(spans[c].end, parent.end)) for c in child_indices
    )
    covered, reach = 0.0, parent.start
    for start, end in intervals:
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered
