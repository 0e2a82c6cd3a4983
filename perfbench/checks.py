"""Correctness gate for the files a workload run writes.

Every emitted CSV is parsed and checked against the config that made
it (header, row count, grid times, N, seed, method, masses summing to
one) and then against a reference:

* ``exact``   committed reference series, to 1e-12 absolute;
* ``oracle``  the dense universe against ``enumerate_outcomes`` at the
              same parameters, to 1e-9 (the oracle-chain tolerance);
* ``sampled`` each class mass within 5*sqrt(2) binomial standard errors
              of a committed run at another seed with the same sample
              count (the difference of two independent estimates has
              sqrt(2) times the standard error of one), for any seed.

The tolerances are fixed here; a failed check is a failed config.
"""

from __future__ import annotations

import json
import math

import numpy as np

from centralspin import engine, observables
from centralspin.cli import ExperimentConfig

from bench_env import REFERENCE_DIR

CSV_HEADER = "t,p_up,p_down,p_q,method,n_samples,seed,N,delta,h_spec,epsilon"
EXACT_TOL = 1e-12
ORACLE_TOL = 1e-9
SAMPLED_SIGMAS = 5.0 * math.sqrt(2.0)
TIME_TOL = 1e-12
SUM_TOL = 1e-9  # the package's own series contract (ObservableSeries)
CLASSES = ("p_up", "p_down", "p_q")


def reference_path(workload: str, tiny: bool):
    return REFERENCE_DIR / f"{workload}{'-tiny' if tiny else ''}.json"


def load_reference(workload: str, tiny: bool) -> list[dict]:
    with open(reference_path(workload, tiny), encoding="utf-8") as f:
        return json.load(f)["configs"]


def series_entry(config: ExperimentConfig, times, p_up, p_down, p_q, method: str) -> dict:
    """One reference entry: a config's label and method with its three class series."""
    return {
        "label": config.label,
        "method": method,
        "times": [float(t) for t in times],
        "p_up": [float(p) for p in p_up],
        "p_down": [float(p) for p in p_down],
        "p_q": [float(p) for p in p_q],
    }


def oracle_reference(config: ExperimentConfig) -> dict:
    """Class masses from ``enumerate_outcomes`` at a dense-universe config's grid."""
    params, alphas, times = config.params(), config.alphas(), config.grid()
    masses = np.array(
        [
            observables.class_probabilities(
                engine.enumerate_outcomes(params, alphas, float(t)), config.epsilon
            )
            for t in times
        ]
    )
    return series_entry(config, times, *masses.T, method="exact-universe")


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header is {lines[0] if lines else ''!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 11 for r in rows):
        raise ValueError("a row does not have 11 columns")
    columns = list(zip(*rows)) if rows else [()] * 11
    as_float = lambda col: np.array([float(v) for v in col])  # noqa: E731
    return {
        "times": as_float(columns[0]),
        "p_up": as_float(columns[1]),
        "p_down": as_float(columns[2]),
        "p_q": as_float(columns[3]),
        "method": set(columns[4]),
        "n_samples": set(columns[5]),
        "seed": set(columns[6]),
        "N": set(columns[7]),
    }


def _close(name: str, got, want, tol: float) -> list[str]:
    gap = float(np.max(np.abs(got - np.asarray(want)))) if len(got) else 0.0
    return [] if gap <= tol else [f"{name}: max |got - reference| = {gap:.3g} > {tol:g}"]


class Gate:
    """Checks the CSV text of each config of a workload against its reference."""

    def __init__(self, kind: str, configs: list[ExperimentConfig], references: list[dict]):
        if kind not in ("exact", "oracle", "sampled"):
            raise ValueError(f"unknown gate kind {kind!r}")
        if [r["label"] for r in references] != [c.label for c in configs]:
            raise ValueError("references do not match the workload's configs")
        self.kind = kind
        self.configs = configs
        self.references = references

    @classmethod
    def for_workload(cls, workload, configs, tiny: bool) -> "Gate":
        if workload.gate == "oracle":
            references = [oracle_reference(c) for c in configs]
        else:
            references = load_reference(workload.name, tiny)
        return cls(workload.gate, configs, references)

    def check(self, index: int, text: str | None) -> list[str]:
        """Problems found in config ``index``'s output; empty when it is correct."""
        config, ref = self.configs[index], self.references[index]
        if text is None:
            return ["no output"]
        try:
            out = parse_csv(text)
        except ValueError as err:
            return [f"unreadable CSV: {err}"]
        if len(out["times"]) != config.steps:
            return [f"{len(out['times'])} rows, expected {config.steps}"]
        samples = str(config.samples) if ref["method"] == "sampled" else "0"
        problems = [
            f"{col} column is {sorted(out[col])}, expected {want}"
            for col, want in (
                ("method", ref["method"]),
                ("n_samples", samples),
                ("seed", str(config.seed)),
                ("N", str(config.n)),
            )
            if out[col] != {want}
        ]
        problems += _close("t", out["times"], config.grid(), TIME_TOL)
        total = out["p_up"] + out["p_down"] + out["p_q"]
        problems += _close("p_up + p_down + p_q", total, 1.0, SUM_TOL)
        if self.kind == "sampled":
            for name in CLASSES:
                problems += _within_sigmas(name, out[name], np.asarray(ref[name]), config.samples)
        else:
            tol = EXACT_TOL if self.kind == "exact" else ORACLE_TOL
            for name in CLASSES:
                problems += _close(name, out[name], ref[name], tol)
        return [f"{config.label}: {p}" for p in problems]


def _within_sigmas(name: str, got: np.ndarray, ref: np.ndarray, samples: int) -> list[str]:
    """Two independent n-sample estimates of one mass differ by < 5 sqrt(2) sigma."""
    pooled = (got + ref) / 2.0
    sigma = np.sqrt(pooled * (1.0 - pooled) / samples)
    excess = np.abs(got - ref) - SAMPLED_SIGMAS * sigma
    bad = np.nonzero(excess > 0)[0]
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [
        f"{name} at point {i}: |{got[i]:.6g} - {ref[i]:.6g}| exceeds "
        f"{SAMPLED_SIGMAS:.3g} standard errors ({sigma[i]:.3g}); {bad.size} points off"
    ]
