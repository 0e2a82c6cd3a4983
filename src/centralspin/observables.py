"""Classical/quantum classification of outcomes and figure-style time series.

An outcome with up-projection u counts as collapsed-down when
u <= epsilon, collapsed-up when u >= 1 - epsilon (both intervals
closed), and as a surviving superposition otherwise.  P_q is defined as
1 - P_up - P_down so the three always sum to one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, universe
from .core import ModelParams, SystemAmplitudes, spin_spectral

DEFAULT_EPSILON = 1e-3
METHODS = ("exact", "binomial", "sampled", "exact-universe")
HISTOGRAM_BINS = 200


def validate_error_threshold(eps: float) -> float:
    """The classicality error must lie strictly between 0 and 0.5."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"error threshold must be in (0, 0.5), got {eps}")
    return float(eps)


def classify(u: float, eps: float = DEFAULT_EPSILON) -> str:
    """'down', 'up' or 'quantum' for one projection value (closed intervals)."""
    validate_error_threshold(eps)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"projection must lie in [0, 1], got {u}")
    if u <= eps:
        return "down"
    if u >= 1.0 - eps:
        return "up"
    return "quantum"


def class_probabilities(
    dist: engine.ProjectionDistribution, eps: float = DEFAULT_EPSILON
) -> tuple[float, float, float]:
    """(P_up, P_down, P_q) mass of a projection distribution."""
    validate_error_threshold(eps)
    if len(dist) == 0:
        raise ValueError("empty distribution")
    up_mask = dist.u >= 1.0 - eps
    down_mask = dist.u <= eps
    if dist.kind == "sampled":
        n = dist.sample_count or len(dist)
        p_up = np.count_nonzero(up_mask) / n
        p_down = np.count_nonzero(down_mask) / n
    else:
        p_up = float(np.sum(dist.weight[up_mask]))
        p_down = float(np.sum(dist.weight[down_mask]))
    # The complement can land a few ulp below zero; keep it in range.
    return p_up, p_down, max(0.0, 1.0 - p_up - p_down)


@dataclass
class ObservableSeries:
    """Evolution of (P_up, P_down, P_q) over a strictly increasing time grid."""

    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    p_q: np.ndarray
    epsilon: float
    method: str
    params: ModelParams
    alphas: SystemAmplitudes
    sample_count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        m = self.times.size
        if not (self.p_up.size == self.p_down.size == self.p_q.size == m):
            raise ValueError("series arrays must have equal length")
        if m > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        total = self.p_up + self.p_down + self.p_q
        if m and np.max(np.abs(total - 1.0)) > 1e-9:
            raise ValueError("class probabilities must sum to one")


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit stream seed for grid point ``index``."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def distribution_at(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    method: str,
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> engine.ProjectionDistribution:
    """Projection distribution at one time via the selected engine."""
    if method == "exact":
        return engine.enumerate_outcomes(params, alphas, t)
    if method == "binomial":
        return engine.binomial_outcomes(params, alphas, t)
    if method == "sampled":
        return engine.sample_outcomes(params, alphas, t, samples, seed, workers)
    if method == "exact-universe":
        ensemble = universe.thermal_ensemble(params)
        outs = universe.trajectory_ensemble(params, alphas, ensemble, t)
        u = np.abs(outs.phi[:, 0]) ** 2
        return engine.ProjectionDistribution(u=u, weight=outs.weight, kind="exact")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def time_series(
    params: ModelParams,
    alphas: SystemAmplitudes,
    times,
    eps: float = DEFAULT_EPSILON,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
) -> ObservableSeries:
    """Class probabilities over a time grid; deterministic under a fixed seed.

    Sampled points use per-point streams derived from (seed, index) so
    the series does not depend on evaluation order or worker count.
    Engine errors propagate with the offending time attached.
    """
    validate_error_threshold(eps)
    times = np.asarray(times, dtype=float)
    p_up = np.empty(times.size)
    p_down = np.empty(times.size)
    p_q = np.empty(times.size)
    for i, t in enumerate(times):
        try:
            dist = distribution_at(
                params, alphas, float(t), method, samples, point_seed(seed, i), workers
            )
        except engine.DegenerateOutcomeError as err:
            raise engine.DegenerateOutcomeError(
                f"degenerate outcome at grid time t={t}: {err}", t=float(t)
            ) from err
        p_up[i], p_down[i], p_q[i] = class_probabilities(dist, eps)
    return ObservableSeries(
        times, p_up, p_down, p_q, eps, method, params, alphas,
        samples if method == "sampled" else None,
        seed if method == "sampled" else None,
    )


def revival_times(params: ModelParams, m_max: int):
    """Times where the down-branch factors all return to their initial values.

    For equal couplings these are m * pi / omega_down, where the
    superposition mass revives; for dispersed couplings the per-spin
    node times rarely coincide, so a list of per-spin arrays is
    returned for diagnostics only.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    m = np.arange(1, m_max + 1, dtype=float)
    if len(set(params.h)) == 1:
        omega = spin_spectral(params, "down", 1).omega
        if omega == 0.0:
            return np.empty(0)
        return m * math.pi / omega
    out = []
    for j in range(1, params.n_env + 1):
        omega = spin_spectral(params, "down", j).omega
        out.append(m * math.pi / omega if omega > 0 else np.empty(0))
    return out


def first_collapse_time(series: ObservableSeries, threshold: float = 0.01):
    """Operational collapse time: first grid time with P_q below threshold.

    The underlying collapse timescale has no sharp definition; this
    grid-resolution proxy is labeled as such wherever it is reported.
    Returns None when the series never collapses.
    """
    hits = np.nonzero(series.p_q < threshold)[0]
    return float(series.times[hits[0]]) if hits.size else None


@dataclass
class ProjectionHistogram:
    """Presentation-only binning of P(u): 200 uniform bins plus point masses.

    Point masses collect the mass at exactly u = 0 and u = 1 (the
    engine returns those values exactly when a branch weight vanishes).
    Never used for classification.
    """

    mass_zero: float
    mass_one: float
    bin_edges: np.ndarray
    bin_mass: np.ndarray

    def total(self) -> float:
        return self.mass_zero + self.mass_one + float(np.sum(self.bin_mass))


def histogram(dist: engine.ProjectionDistribution, bins: int = HISTOGRAM_BINS) -> ProjectionHistogram:
    if len(dist) == 0:
        raise ValueError("empty distribution")
    at_zero = dist.u == 0.0
    at_one = dist.u == 1.0
    interior = ~(at_zero | at_one)
    edges = np.linspace(0.0, 1.0, bins + 1)
    mass, _ = np.histogram(dist.u[interior], bins=edges, weights=dist.weight[interior])
    return ProjectionHistogram(
        mass_zero=float(np.sum(dist.weight[at_zero])),
        mass_one=float(np.sum(dist.weight[at_one])),
        bin_edges=edges,
        bin_mass=mass,
    )
