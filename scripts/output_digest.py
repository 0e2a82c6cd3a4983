#!/usr/bin/env python3
"""Print the SHA-256 of every output file of a fixed set of runs.

Usage:
    python scripts/output_digest.py [--keep DIR]

The runs: the four figure presets, the configs of the four benchmark
workloads (read from perfbench/workloads.py) at seeds 0 and 7, one
run with histogram times per method, three coupling specs that auto
sends to binomial (an explicit list of equal couplings, signed-zero
couplings, h = -0.0 and delta_h = -0.0, and a constant dispersed spec
whose delta_h underflows, h = 1e-300 and delta_h = 1e-320), a one-point
binomial run at odd N = 100,001 (no count k equals N - k in its
log C(N, k)), one-point dispersed exact runs at N = 15, 16, 17
and 20: the largest N whose time is one tile of patterns, then two,
four and 32 tiles, a sampled run of 2 * 8192 + 1 draws per point
(the last chunk holds one draw) at workers 1 and at workers 2, and
exact-universe runs at alpha_up_sq = 0 and 1 and on a grid of two
times below 1e-6, where the keep rule drops the two-flip outcomes.
Each run's records are written in both formats with
``cli.emit_results``; one line per file, sorted by path, reads
"<sha256>  <path>".  Two checkouts with the same lines write
byte-identical files.  The files go to a temporary directory,
or to DIR with --keep.  Takes a few seconds on a 2-core machine.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from centralspin.cli import (  # noqa: E402
    PRESET_NAMES,
    ExperimentConfig,
    emit_results,
    run_config,
    run_preset,
)
from centralspin.engine import SAMPLE_CHUNK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FORMATS = ("csv", "json")
WORKLOAD_SEEDS = (0, 7)
HIST_TIMES = (0.0, 123.4, 400.0)


def _hist_configs() -> list[ExperimentConfig]:
    """One short grid with three histogram times per method."""
    base = dict(n=6, h=(0.01,), delta=0.01, alpha_up_sq=0.4, steps=40, hist_times=HIST_TIMES)
    return [
        ExperimentConfig(
            **base, method=method, samples=20_000, workers=2 if method == "sampled" else 1,
            label=f"hist_{method}",
        )
        for method in ("exact", "binomial", "sampled", "exact-universe")
    ]


def _coupling_configs() -> list[ExperimentConfig]:
    """At N = 20: an explicit equal h list, and signed-zero and underflowing constant specs."""
    base = dict(n=20, delta=0.01, alpha_up_sq=0.4, steps=40)
    return [
        ExperimentConfig(**base, h=(0.01,) * 20, label="h_list"),
        ExperimentConfig(**base, h=(-0.0,), delta_h=-0.0, label="h_signed_zero"),
        ExperimentConfig(**base, h=(1e-300,), delta_h=1e-320, label="h_underflow"),
    ]


def _odd_n_config() -> ExperimentConfig:
    """One binomial point (t = 100) at odd N = 100,001."""
    return ExperimentConfig(
        n=100_001, h=(0.01,), delta=0.01, alpha_up_sq=0.4, t_end=200.0, steps=1,
        method="binomial", label="binomial_odd_n",
    )


def _tile_configs() -> list[ExperimentConfig]:
    """One dispersed exact point (t = 100) at N = 15, 16, 17 and 20: 1, 2, 4 and 32 tiles of patterns."""
    base = dict(h=(0.01,), delta_h=0.02, delta=0.01, alpha_up_sq=0.4, method="exact")
    return [
        ExperimentConfig(**base, n=n, t_end=200.0, steps=1, label=f"exact_n{n}")
        for n in (15, 16, 17, 20)
    ]


def _chunk_configs() -> list[ExperimentConfig]:
    """Three dispersed N = 20 sampled points of 2 * SAMPLE_CHUNK + 1 draws, at workers 1 and 2."""
    base = dict(n=20, h=(0.01,), delta_h=0.02, delta=0.01, alpha_up_sq=0.4, t_end=300.0, steps=3)
    return [
        ExperimentConfig(
            **base, method="sampled", samples=2 * SAMPLE_CHUNK + 1, workers=workers,
            label=f"sampled_w{workers}",
        )
        for workers in (1, 2)
    ]


def _universe_configs() -> list[ExperimentConfig]:
    """Dense-oracle runs at N = 6: all weight on one branch, then times 2.5e-7 and 7.5e-7."""
    base = dict(n=6, h=(0.01,), delta_h=0.02, delta=0.01, method="exact-universe")
    configs = [
        ExperimentConfig(**base, alpha_up_sq=w, steps=40, label=f"universe_up{w:g}")
        for w in (0.0, 1.0)
    ]
    configs.append(ExperimentConfig(
        **base, alpha_up_sq=0.4, t_start=0.0, t_end=1e-6, steps=2, label="universe_near_zero"
    ))
    return configs


def write_outputs(out: Path) -> None:
    """Run every config of the set and write its records under ``out``."""
    for name in PRESET_NAMES:
        records = run_preset(name)
        for fmt in FORMATS:
            emit_results(records, out / "presets", fmt)
    for name, workload in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            records = [run_config(c) for c in workload.configs(seed)]
            for fmt in FORMATS:
                emit_results(records, out / f"{name}_seed{seed}", fmt)
    for name, configs in (
        ("hist_times", _hist_configs()),
        ("couplings", _coupling_configs()),
        ("odd_n", [_odd_n_config()]),
        ("tiles", _tile_configs()),
        ("chunks", _chunk_configs()),
        ("universe", _universe_configs()),
    ):
        records = [run_config(c) for c in configs]
        for fmt in FORMATS:
            emit_results(records, out / name, fmt)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, default=None, help="write the files here and keep them")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        out = args.keep or Path(scratch)
        write_outputs(out)
        for path in sorted(out.rglob("*")):
            if path.suffix in (".csv", ".json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
