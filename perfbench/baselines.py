#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline rows that the benchmark's workloads cover.

    python3 perfbench/baselines.py

Each case runs ``REPEATS`` times in this process after one warm-up and
prints the best and the median, next to the figure the ROADMAP quotes.
The 1-worker against 2-worker sampler row runs as alternating pairs.
The verdicts are recorded by hand in perfbench/README.md.  Takes about
three minutes on a 2-core machine.
"""

import statistics
import time
from dataclasses import replace

import bench_env

REPEATS = 5
PAIRS = 9
RUN_PAIRS = 3


def timings(func, repeats=REPEATS):
    func()
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        out.append(time.perf_counter() - start)
    return out


def row(case, roadmap, values, scale=1.0, unit="s"):
    best, med = min(values) * scale, statistics.median(values) * scale
    print(f"{case:52s} roadmap {roadmap:>18s}   best {best:9.4g} {unit}   median {med:9.4g} {unit}")


def main() -> int:
    bench_env.prepare()

    from centralspin import cli, engine
    from centralspin.cli import ExperimentConfig, _preset_configs
    from centralspin.core import ModelParams, SystemAmplitudes
    from centralspin.universe import thermal_ensemble, trajectory_ensemble

    for name, quoted in (("fig1", ("0.10", "0.15", "0.21")), ("fig2_top", ("0.87", "0.87"))):
        for config, q in zip(_preset_configs(name), quoted):
            row(f"run_config {name} {config.label}", f"{q} s", timings(lambda: cli.run_config(config)))
    for name in ("fig2_bottom", "fig3"):
        for config in _preset_configs(name):
            row(f"run_config {name} {config.label}", "~0.2 s", timings(lambda: cli.run_config(config)))

    alphas = SystemAmplitudes.from_up_weight(0.4)
    dispersed = lambda n: ModelParams(delta=0.0, h=cli.dispersed_couplings(0.01, 0.02, n))  # noqa: E731
    for n, quoted in ((16, "7.5 ms"), (20, "200 ms")):
        params = dispersed(n)
        row(f"enumerate_outcomes N={n}, one t", quoted,
            timings(lambda: engine.enumerate_outcomes(params, alphas, 150.0), 3), 1e3, "ms")
    for n, quoted in ((80, "0.33 ms"), (100_000, "79 ms")):
        params = ModelParams(delta=0.0, h=(0.01,) * n)
        row(f"binomial_outcomes N={n}, one t", quoted,
            timings(lambda: engine.binomial_outcomes(params, alphas, 150.0)), 1e3, "ms")

    params = dispersed(80)
    by_workers = {1: [], 2: []}
    for pair in range(PAIRS):
        for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
            start = time.perf_counter()
            engine.sample_outcomes(params, alphas, 150.0, 100_000, seed=pair, workers=workers)
            by_workers[workers].append(time.perf_counter() - start)
    for workers, quoted in ((1, "0.14 s"), (2, "0.19 s")):
        row(f"sample_outcomes N=80 dispersed 100k, {workers} worker(s)", quoted, by_workers[workers])
    wins = sum(two < one for one, two in zip(by_workers[1], by_workers[2]))
    print(f"{'':52s} 2 workers faster in {wins} of {PAIRS} alternating pairs")

    sampled = ExperimentConfig(n=80, h=(0.01,), delta_h=0.02, alpha_up_sq=0.4, method="sampled",
                               steps=20, t_end=400.0)
    row("run_config N=80 dispersed sampled, 20 points", "3.8 s",
        timings(lambda: cli.run_config(sampled), 2))
    by_workers = {1: [], 2: []}
    for pair in range(RUN_PAIRS):
        for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
            config = replace(sampled, steps=24, workers=workers)
            start = time.perf_counter()
            cli.run_config(config)
            by_workers[workers].append(time.perf_counter() - start)
    for workers in (1, 2):
        row(f"run_config N=80 sampled, 24 points, {workers} worker(s)", "-", by_workers[workers])

    for n, quoted in ((6, "0.27 s"), (8, "0.62 s")):
        params = dispersed(n)
        ensemble = thermal_ensemble(params)
        row(f"trajectory_ensemble N={n}, one t", quoted,
            timings(lambda: trajectory_ensemble(params, alphas, ensemble, 150.0), 3))
    universe = ExperimentConfig(n=8, h=(0.01,), delta_h=0.02, alpha_up_sq=0.4,
                                method="exact-universe", steps=20, t_end=400.0)
    row("run_config exact-universe N=8, 20 points", "9.2 s",
        timings(lambda: cli.run_config(universe), 1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
