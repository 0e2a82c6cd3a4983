"""The benchmark's workloads, built from a seed through the public config type.

Each workload is a list of ``ExperimentConfig`` that one workload run
evaluates with ``cli.run_config`` and writes with ``cli.emit_results``.
Sizes are cut from the paper's full grids so that one run takes about a
second on a 2-core machine; the notes in README.md give the reasons.
``tiny`` variants are a few points each and exist for the smoke test.

The seed becomes the config ``seed``; only the sampled workload's
numbers depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from centralspin.cli import ExperimentConfig

from bench_env import nproc

ALPHA_UP_SQ = 0.4
EPSILON = 1e-3
SAMPLED_WORKERS = 2


def _figures(seed: int, tiny: bool) -> list[ExperimentConfig]:
    """The 13 configs of fig1, fig2_top, fig2_bottom and fig3 on grids 4x coarser."""
    base = dict(alpha_up_sq=ALPHA_UP_SQ, epsilon=EPSILON, seed=seed)
    short = dict(steps=3 if tiny else 150)
    long = dict(t_end=1800.0, steps=3 if tiny else 675)
    configs = [
        ExperimentConfig(n=n, h=(0.01,), label=f"N{n}", preset="fig1", **base, **short)
        for n in (2, 10, 80)
    ]
    configs += [
        ExperimentConfig(
            n=10, h=(0.01,), delta_h=dh, label=label, preset="fig2_top", **base, **long
        )
        for label, dh in (("const_h", 0.0), ("dispersed_h", 0.02))
    ]
    configs += [
        ExperimentConfig(
            n=10, h=(h,), delta_h=0.02, label=f"h{h}", preset="fig2_bottom", **base, **short
        )
        for h in (0.01, 0.5, 10.0)
    ]
    configs += [
        ExperimentConfig(
            n=10, h=(0.01,), delta=d, delta_h=0.02, label=f"delta{d}", preset="fig3",
            **base, **short,
        )
        for d in (0.002, 0.01, 0.02, 0.05, 0.1)
    ]
    return configs


def _large_n(seed: int, tiny: bool) -> list[ExperimentConfig]:
    """Few heavy points: 2^18 enumerated atoms, and N = 1e5 binomial atoms."""
    base = dict(alpha_up_sq=ALPHA_UP_SQ, epsilon=EPSILON, seed=seed, steps=1 if tiny else 6)
    return [
        ExperimentConfig(
            n=18, h=(0.01,), delta_h=0.02, method="exact", label="exact_n18", **base
        ),
        ExperimentConfig(n=100_000, h=(0.01,), method="binomial", label="binomial_n1e5", **base),
    ]


def _sampled_n80(seed: int, tiny: bool) -> list[ExperimentConfig]:
    """The default sampled shape, with the sampler named so auto routing cannot move it."""
    return [
        ExperimentConfig(
            n=80, h=(0.01,), delta_h=0.02, alpha_up_sq=ALPHA_UP_SQ, epsilon=EPSILON,
            method="sampled", samples=100_000, seed=seed,
            workers=min(SAMPLED_WORKERS, nproc()), steps=2 if tiny else 6, label="sampled_n80",
        )
    ]


def _universe_n8(seed: int, tiny: bool) -> list[ExperimentConfig]:
    """The dense oracle at N = 8 with dispersed couplings."""
    return [
        ExperimentConfig(
            n=8, h=(0.01,), delta_h=0.02, alpha_up_sq=ALPHA_UP_SQ, epsilon=EPSILON,
            method="exact-universe", seed=seed, steps=1 if tiny else 3, label="universe_n8",
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    gate: str  # "exact", "sampled" or "oracle": how checks.py verifies the outputs
    build: Callable[[int, bool], list[ExperimentConfig]]

    def configs(self, seed: int, tiny: bool = False) -> list[ExperimentConfig]:
        return [c.validate() for c in self.build(seed, tiny)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figures", "exact", _figures),
        Workload("large_n", "exact", _large_n),
        Workload("sampled_n80", "sampled", _sampled_n80),
        Workload("universe_n8", "oracle", _universe_n8),
    )
}


def first_point(config: ExperimentConfig) -> ExperimentConfig:
    """A one-point config whose only grid point is the first point of ``config``."""
    step = (config.t_end - config.t_start) / config.steps
    return replace(config, t_end=config.t_start + step, steps=1)


def point_count(configs: list[ExperimentConfig]) -> int:
    return sum(c.steps for c in configs)
