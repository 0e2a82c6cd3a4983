"""Command-line front end: configs, figure presets, CSV/JSON emission.

Config files are flat ``key = value`` text; ``#`` starts a comment.
The keys are ``ExperimentConfig``'s fields except ``preset``, each
parsed by its field's type (all other keys are rejected by name):

    n           environment size (int, required)
    delta       detuning mu - nu (default 0.0)
    h           base vertical coupling, or a semicolon list of N values
                (required)
    delta_h     dispersion: h_j = h + (j-1)*delta_h/n (default 0.0;
                only with scalar h)
    beta        inverse bath temperature (default 0.0)
    alpha_up_sq initial up weight |a_up|^2 (default 0.5)
    phase       relative phase of the down amplitude (default 0.0)
    epsilon     classicality error threshold (default 1e-3)
    t_start, t_end, steps
                time grid; points sit half a step off the ends so exact
                node times are avoided by construction
                (defaults 0.0, 400.0, 600)
    method      auto | exact | binomial | sampled | exact-universe
                (auto picks exact for n <= 16, binomial for constant
                couplings, sampled otherwise)
    samples     draws per grid point for the sampled method (default 100000)
    seed        base RNG seed (default 0)
    workers     worker threads for sampling (default 1); a point starts
                at most one thread per 8192-draw chunk and per usable CPU
    hist_times  optional semicolon list of times at which to export P(u)
                histograms
    label       optional record label used in output file names; a plain
                file name, without path separators
    out         output directory (default "results")

Outputs are deterministic: the same config and seed produce
byte-identical files for any worker count.  Wall-clock timing is kept
on the in-memory record and reported on stderr, never serialized.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import engine, observables, selfcheck, universe
from .core import (
    ModelParams,
    SystemAmplitudes,
    check_phases,
    dispersed_couplings,
    last_dispersed_coupling,
    spin_constants,
)
from .observables import (
    DEFAULT_EPSILON,
    ObservableSeries,
    ProjectionHistogram,
    first_collapse_time,
)

# Each figure preset's configs, as the fields each sets beyond the shared
# base alpha_up_sq = 0.4, epsilon = 1e-3, seed = 0 (``_preset_configs``).
_PRESETS = {
    "fig1": [dict(n=n, h=(0.01,), label=f"N{n}") for n in (2, 10, 80)],
    # Grid extended past the dispersed revival near t ~ 1571 (five times the
    # constant-coupling period); same step as the default grid.
    "fig2_top": [
        dict(n=10, h=(0.01,), delta_h=delta_h, label=label, t_end=1800.0, steps=2700)
        for label, delta_h in (("const_h", 0.0), ("dispersed_h", 0.02))
    ],
    "fig2_bottom": [dict(n=10, h=(h,), delta_h=0.02, label=f"h{h}") for h in (0.01, 0.5, 10.0)],
    "fig3": [
        dict(n=10, h=(0.01,), delta=d, delta_h=0.02, label=f"delta{d}")
        for d in (0.002, 0.01, 0.02, 0.05, 0.1)
    ],
}
PRESET_NAMES = tuple(_PRESETS)
CSV_COLUMNS = "t,p_up,p_down,p_q,method,n_samples,seed,N,delta,h_spec,epsilon"


class ConfigError(ValueError):
    """A config document failed validation; message names the key."""


def _check_draws(samples: int, seed: int) -> None:
    """Raise ConfigError for a draw count below one or a negative seed.

    Shared by ``ExperimentConfig.validate`` and ``oracle-check``.
    """
    if samples < 1:
        raise ConfigError("samples: must be positive")
    if seed < 0:
        raise ConfigError("seed: must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs, valid by construction: building a config runs ``validate``."""

    n: int
    h: tuple[float, ...]
    delta: float = 0.0
    delta_h: float = 0.0
    beta: float = 0.0
    alpha_up_sq: float = 0.5
    phase: float = 0.0
    epsilon: float = DEFAULT_EPSILON
    t_start: float = 0.0
    t_end: float = 400.0
    steps: int = 600
    method: str = "auto"
    samples: int = 100_000
    seed: int = 0
    workers: int = 1
    hist_times: tuple[float, ...] = ()
    label: str = ""
    out: str = "results"
    preset: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ExperimentConfig":
        """Reject the configs whose values alone make ``run_config`` fail.

        ``__post_init__`` calls it, so a config is validated when it is
        built (``replace`` builds a new one), and an invalid one raises
        ConfigError instead of existing; a later call checks the same
        values again and returns self.
        Costs O(1) in N for a scalar h: the dispersed couplings are checked
        through their last value, never expanded.
        """
        for key in sorted(k for k, parse in _KEY_PARSERS.items() if parse is float):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key}: must be finite, got {getattr(self, key)!r}")
        for key in sorted(k for k, parse in _KEY_PARSERS.items() if parse is _float_list):
            if not all(math.isfinite(v) for v in getattr(self, key)):
                raise ConfigError(f"{key}: every value must be finite")
        if self.n < 1:
            raise ConfigError("n: need at least one environment spin")
        if len(self.h) not in (1, self.n):
            raise ConfigError(f"h: expected 1 or {self.n} values, got {len(self.h)}")
        if len(self.h) > 1 and self.delta_h != 0.0:
            raise ConfigError("delta_h: dispersion applies to a scalar h only")
        if not math.isfinite(self._last_coupling()):
            raise ConfigError("delta_h: the dispersed couplings overflow")
        if not 0.0 <= self.alpha_up_sq <= 1.0:
            raise ConfigError(f"alpha_up_sq: must lie in [0, 1], got {self.alpha_up_sq}")
        if self.beta < 0:
            raise ConfigError("beta: must be non-negative")
        if self.steps < 1:
            raise ConfigError("steps: need at least one grid point")
        if not self.t_end > self.t_start:
            raise ConfigError("t_end: must exceed t_start")
        key = "epsilon"
        try:
            observables.validate_error_threshold(self.epsilon)
            key = "steps"
            observables.check_grid(g := self.grid())
        except (ValueError, MemoryError) as err:
            raise ConfigError(f"{key}: {err}") from None
        if g[0] < 0.0:
            raise ConfigError("t_start: the first grid point precedes the initial time 0")
        if any(t < 0.0 for t in self.hist_times):
            raise ConfigError("hist_times: every time must be at or after the initial time 0")
        # check_phases rejects a phase omega * t that overflows.  omega grows with |h_j| and
        # dispersed couplings are monotone, so h_1 or h_N at the last time decides it.
        h_max = max(self.h + (self._last_coupling(),), key=abs)
        spin = ModelParams(self.delta, (h_max,))
        t_last = float(max((g[-1], *self.hist_times)))
        try:
            check_phases(spin_constants(spin), np.array([t_last]))
        except ValueError as err:
            raise ConfigError(f"delta, h: {err} at t = {t_last!r}") from None
        _check_draws(self.samples, self.seed)
        if self.workers < 1:
            raise ConfigError("workers: must be positive")
        if self.method not in ("auto",) + observables.METHODS:
            raise ConfigError(f"method: unknown method {self.method!r}")
        if self.method == "exact" and self.n > engine.ENUMERATION_CAP:
            raise ConfigError(f"method: exact enumeration is capped at n = {engine.ENUMERATION_CAP}")
        if self.method == "exact-universe" and self.n > universe.DEFAULT_CAP:
            raise ConfigError(f"method: the dense universe is capped at n = {universe.DEFAULT_CAP}")
        # Gershgorin: a sector row holds one diagonal entry of at most n * max(1, |delta|) and
        # n off-diagonal entries of at most max |h_j|, which bounds every eigenvalue |w|.
        bound = self.n * (max(1.0, abs(self.delta)) + abs(h_max))
        if self.method == "exact-universe" and not math.isfinite(bound * t_last):
            raise ConfigError(
                f"delta, h: the sector phase t * w may overflow at t = {t_last!r} "
                f"(|w| up to {bound!r})"
            )
        # universe.thermal_ensemble's log-weights -beta * (mu * s), s the bath's spin sum, are
        # largest in magnitude at s = +-n.
        if self.method == "exact-universe" and not all(
            math.isfinite(-self.beta * (spin.mu * s)) for s in (float(self.n), float(-self.n))
        ):
            raise ConfigError(f"beta: the thermal log-weights -beta * E overflow at n = {self.n}")
        if self.method == "binomial" and not self._constant_couplings():
            raise ConfigError("method: binomial needs all couplings equal")
        cap = engine.ARRAY_BYTES_CAP
        if self.resolved_method() == "binomial" and 8 * (self.n + 1) > cap:
            raise ConfigError(
                f"n: {self.n} spins need a table log k! of {8 * (self.n + 1)} bytes; "
                f"the binomial method is capped at {cap} bytes"
            )
        if self.resolved_method() == "sampled":
            if 8 * self.samples > cap:
                raise ConfigError(
                    f"samples: {self.samples} draws hold {8 * self.samples} bytes of u per grid "
                    f"point; the sampled method is capped at {cap} bytes ({cap // 8} draws)"
                )
            if (estimate := self._sampled_bytes()) > cap:
                raise ConfigError(
                    f"n: {self.n} spins take an estimated {estimate} bytes per sampled grid "
                    f"point at workers = {self.workers}; the sampled method is capped at "
                    f"{cap} bytes"
                )
        if any(c in self.label for c in _LABEL_FORBIDDEN):
            raise ConfigError(f"label: must be a plain file name, got {self.label!r}")
        if "\0" in self.out:
            raise ConfigError(f"out: a path cannot hold a NUL byte, got {self.out!r}")
        return self

    def _sampled_bytes(self) -> int:
        """O(1) estimate of a sampled grid point's N-sized bytes, u aside.

        The larger of the point's two phases, which are never alive
        together (``engine.SAMPLE_SPIN_BYTES``): building both branch
        profiles, then drawing min(workers, chunks) chunks at a time
        while it holds them, each chunk with its own mask and per-spin
        scratch.
        """
        threads = min(self.workers, -(-self.samples // engine.SAMPLE_CHUNK))
        per_thread = engine.SAMPLE_THREAD_SPIN_BYTES * self.n + engine.SAMPLE_MASK_BYTES
        drawing = engine.SAMPLE_HELD_SPIN_BYTES * self.n + threads * per_thread
        return max(engine.SAMPLE_SPIN_BYTES * self.n, drawing)

    def _last_coupling(self) -> float:
        if len(self.h) == self.n:
            return self.h[-1]
        return last_dispersed_coupling(self.h[0], self.delta_h, self.n)

    def _constant_couplings(self) -> bool:
        """``ModelParams.equal_couplings`` of ``params()`` without expanding a scalar h."""
        if len(self.h) == self.n:
            return self.h.count(self.h[0]) == self.n
        return self._last_coupling() == self.h[0]

    def couplings(self) -> np.ndarray:
        """The N couplings: the h list, or ``dispersed_couplings`` of a scalar h.

        A scalar h whose couplings are all equal gives a read-only
        ``np.broadcast_to`` of one float64 value, in O(1).  The value has
        the bits of entry 1 of ``dispersed_couplings``, and so has every
        entry then, sign of zero and an underflowing delta_h included.
        """
        if len(self.h) == self.n:
            return np.array(self.h)
        if self._constant_couplings():
            return np.broadcast_to(np.float64(self.h[0] + 1 * self.delta_h / self.n), (self.n,))
        return dispersed_couplings(self.h[0], self.delta_h, self.n)

    def params(self) -> ModelParams:
        return ModelParams(delta=self.delta, h=self.couplings(), beta=self.beta)

    def alphas(self) -> SystemAmplitudes:
        return SystemAmplitudes.from_up_weight(self.alpha_up_sq, self.phase)

    def grid(self) -> np.ndarray:
        step = (self.t_end - self.t_start) / self.steps
        return self.t_start + (np.arange(self.steps) + 0.5) * step

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        if self.n <= 16:
            return "exact"
        if self._constant_couplings():
            return "binomial"
        return "sampled"

    def h_spec(self) -> str:
        if len(self.h) == self.n and self.n > 1:
            return ";".join(repr(v) for v in self.h)
        if self.delta_h != 0.0:
            return f"{self.h[0]!r}:{self.delta_h!r}"
        return repr(self.h[0])


def _float_list(value: str) -> tuple[float, ...]:
    """A semicolon (or comma) list of floats; empty items are skipped."""
    return tuple(float(v) for v in value.replace(",", ";").split(";") if v.strip())


# Each config key's value parser, chosen by its field's annotation: every
# ExperimentConfig field but ``preset`` is a key, so a new key is one field.
_KEY_PARSERS = {
    f.name: {"int": int, "float": float, "tuple[float, ...]": _float_list, "str": str}[f.type]
    for f in fields(ExperimentConfig)
    if f.name != "preset"
}
# Characters that would take an output file out of its directory or
# that no path may hold.
_LABEL_FORBIDDEN = {sep for sep in (os.sep, os.altsep) if sep} | {"\0"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key-value config document into a config, which is validated when built.

    Each field without a default (n, h) is a required key; an empty h
    list counts as missing.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"unknown key {key!r} on line {lineno}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} on line {lineno}")
        try:
            values[key] = _KEY_PARSERS[key](value)
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
    for f in fields(ExperimentConfig):
        if f.default is MISSING and values.get(f.name, ()) == ():
            raise ConfigError(f"{f.name}: required key missing")
    return ExperimentConfig(**values)


@dataclass
class ResultRecord:
    """One experiment run: resolved config, series, optional histograms."""

    config: ExperimentConfig
    series: ObservableSeries
    histograms: list[tuple[float, ProjectionHistogram]] = field(default_factory=list)
    wall_clock: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def run_config(config: ExperimentConfig) -> ResultRecord:
    """Evaluate one config over its grid and its histogram times.

    The config was validated when it was built, so nothing is checked
    again here.  The evaluation is one ``observables.evaluate`` call.  No
    grid engine meets a degenerate outcome (both branch weights exactly
    zero), so the ``degenerate_retries`` diagnostic is always an empty
    list; it stays in the JSON record, whose readers expect the key.
    """
    start = time.perf_counter()
    series, histograms = observables.evaluate(
        config.params(), config.alphas(), config.grid(), config.hist_times, config.epsilon,
        config.resolved_method(), config.samples, config.seed, config.workers,
    )

    diagnostics = {
        "dropped_atoms": series.dropped,
        "degenerate_retries": [],
        "collapse_time_grid": first_collapse_time(series),
        "collapse_time_note": (
            f"first grid time with P_q < {observables.COLLAPSE_THRESHOLD} (operational definition)"
        ),
    }
    return ResultRecord(
        config=config,
        series=series,
        histograms=histograms,
        wall_clock=time.perf_counter() - start,
        diagnostics=diagnostics,
    )


def _preset_configs(name: str) -> list[ExperimentConfig]:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    base = dict(alpha_up_sq=0.4, epsilon=1e-3, seed=0, preset=name)
    return [ExperimentConfig(**base, **spec) for spec in _PRESETS[name]]


def run_preset(name: str) -> list[ResultRecord]:
    """Run one figure preset; sweep values beyond the quoted endpoints,
    grids and sample counts are package defaults and labeled as such.
    Each preset config was validated when it was built."""
    return [_evaluate_preset(config) for config in _preset_configs(name)]


def _evaluate_preset(config: ExperimentConfig) -> ResultRecord:
    """``run_config`` of one preset config, with the note that labels its defaults."""
    record = run_config(config)
    record.diagnostics["preset_defaults_note"] = (
        "time grid, sample count and intermediate sweep values are package defaults"
    )
    return record


def _record_name(config: ExperimentConfig, fmt: str) -> str:
    """The file name a config's record is written to in ``out``."""
    parts = [p for p in (config.preset, config.label) if p]
    return f"{'_'.join(parts) if parts else 'run'}.{fmt}"


def _series_csv(record: ResultRecord) -> str:
    cfg = record.config
    s = record.series
    n_samples = cfg.samples if s.method == "sampled" else 0
    fixed = (
        f"{s.method},{n_samples},{cfg.seed},{cfg.n},{cfg.delta!r},"
        f"{cfg.h_spec()},{cfg.epsilon!r}"
    )
    rows = zip(s.times.tolist(), s.p_up.tolist(), s.p_down.tolist(), s.p_q.tolist())
    lines = [CSV_COLUMNS]
    lines += [f"{t!r},{up!r},{down!r},{q!r},{fixed}" for t, up, down, q in rows]
    del rows  # the column lists go before the join, which copies every line once more
    return "\n".join(lines) + "\n"


def _record_json(record: ResultRecord) -> str:
    cfg = record.config
    payload = {
        "config": {
            f.name: (list(v) if isinstance(v := getattr(cfg, f.name), tuple) else v)
            for f in fields(cfg)
        },
        "resolved_method": record.series.method,
        "series": {
            "times": record.series.times.tolist(),
            "p_up": record.series.p_up.tolist(),
            "p_down": record.series.p_down.tolist(),
            "p_q": record.series.p_q.tolist(),
        },
        "histograms": [
            {
                "t": t,
                "mass_zero": h.mass_zero,
                "mass_one": h.mass_one,
                "bin_edges": h.bin_edges.tolist(),
                "bin_mass": h.bin_mass.tolist(),
            }
            for t, h in record.histograms
        ],
        "diagnostics": record.diagnostics,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_out(out: str, names: list[str]) -> None:
    """Raise ConfigError unless ``emit_results`` can create ``out`` and write ``names`` into it.

    Creates nothing.  The nearest existing name at or above ``out`` must
    be a directory this process may write into; a dangling symlink counts
    as existing, since ``mkdir`` cannot replace it.  Each name still to be
    created (with a missing ``out``, its record file names too) is looked
    up in that directory, so a name its file system refuses (one too long,
    say) fails here, as any other failed lookup does.  A record file name
    that already exists in ``out`` must be a file this process may write:
    not a directory, a symlink to one or a dangling one.
    """
    path, missing = Path(out), []
    try:
        for existing in (path, *path.parents):
            try:
                os.lstat(existing)
                break
            except FileNotFoundError:
                missing.append(existing.name)
        if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
            raise ConfigError(f"out: {str(existing)!r} is not a writable directory")
        for name in [*missing, *names] if missing else []:
            with contextlib.suppress(FileNotFoundError):
                os.lstat(existing / name)
        for file in (path / name for name in names):
            with contextlib.suppress(FileNotFoundError):
                os.lstat(file)
                if not (file.is_file() and os.access(file, os.W_OK)):
                    raise ConfigError(f"out: {str(file)!r} is not a writable file")
    except OSError as err:
        raise ConfigError(f"out: {err}") from None


def emit_results(records: list[ResultRecord], out_dir, fmt: str = "csv") -> list[Path]:
    """Write one file per record; identical config and seed give identical bytes.

    This is the one place that creates the output directory, just before
    it writes.  An empty record set writes no file.  Records whose file
    names coincide (two unlabeled runs, say) raise ConfigError before
    anything is written.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {fmt!r}")
    names = [_record_name(record.config, fmt) for record in records]
    if len(set(names)) < len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise ConfigError(f"label: two records would both write {duplicate!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in names]
    for record, path in zip(records, paths):
        path.write_text(_series_csv(record) if fmt == "csv" else _record_json(record))
    return paths


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """``config`` rebuilt, and so validated, with every given flag whose name is a config key."""
    given = {k: v for k, v in vars(args).items() if k in _KEY_PARSERS and v is not None}
    return replace(config, **given)


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="override the base RNG seed")
    sub.add_argument("--samples", type=int, default=None, help="override draws per grid point")
    sub.add_argument("--workers", type=int, default=None, help="override sampling worker count")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def main(argv=None) -> int:
    """Run the command line; returns the exit code.

    ``run``, ``preset`` and ``validate`` share one preflight: build the
    configs (the file, or the preset's list), which validates them,
    rebuild each with the command-line overrides (``validate`` takes
    none), which validates it again, and check its ``out`` and the
    record file names in it without creating anything.  ``validate``
    then prints OK; ``run`` and ``preset`` evaluate and write.  Bad input
    exits 1 before any evaluation, a failure after it exits 2.
    """
    parser = argparse.ArgumentParser(
        prog="centralspin",
        description="Trajectory statistics of a central spin in a spin bath",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run one experiment config file")
    run_cmd.add_argument("config", help="path to a key-value config document")
    _add_common_flags(run_cmd)

    preset_cmd = commands.add_parser("preset", help="run a built-in figure preset")
    preset_cmd.add_argument("name", choices=PRESET_NAMES)
    _add_common_flags(preset_cmd)

    validate_cmd = commands.add_parser("validate", help="check a config without running it")
    validate_cmd.add_argument("config")

    check_cmd = commands.add_parser(
        "oracle-check", help="run the oracle-equivalence suite and report"
    )
    check_cmd.add_argument("--samples", type=int, default=20_000)
    check_cmd.add_argument("--seed", type=int, default=20260809)

    args = parser.parse_args(argv)
    try:
        if args.command == "oracle-check":
            _check_draws(args.samples, args.seed)
            if (need := selfcheck.ORACLE_DRAW_BYTES * args.samples) > engine.ARRAY_BYTES_CAP:
                raise ConfigError(
                    f"samples: {args.samples} draws take an estimated {need} bytes in "
                    f"oracle-check, which is capped at {engine.ARRAY_BYTES_CAP} bytes "
                    f"({engine.ARRAY_BYTES_CAP // selfcheck.ORACLE_DRAW_BYTES} draws)"
                )
            results = selfcheck.run_all(seed=args.seed, samples=args.samples)
            for r in results:
                print(f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail}")
            return 0 if all(r.ok for r in results) else 2
        if args.command == "preset":
            configs = _preset_configs(args.name)
        else:
            configs = [parse_config(Path(args.config).read_text())]
        configs = [_apply_overrides(config, args) for config in configs]
        # validate has no --format: it checks the names run writes by default.
        fmt = getattr(args, "format", "csv")
        _check_out(configs[0].out, [_record_name(config, fmt) for config in configs])
        if args.command == "validate":
            print("OK")
            return 0
        evaluate = run_config if args.command == "run" else _evaluate_preset
        records = [evaluate(config) for config in configs]
        paths = emit_results(records, configs[0].out, fmt)
        for record, path in zip(records, paths):
            print(
                f"wrote {path} ({record.series.times.size} points, "
                f"{record.wall_clock:.2f}s)",
                file=sys.stderr,
            )
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
