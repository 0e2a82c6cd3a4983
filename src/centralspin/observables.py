"""Classical/quantum classification of outcomes and figure-style time series.

An outcome with up-projection u counts as collapsed-down when
u <= epsilon, collapsed-up when u >= 1 - epsilon (both intervals
closed), and as a surviving superposition otherwise.  P_q is defined as
1 - P_up - P_down so the three always sum to one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import engine, universe
from .core import ModelParams, SystemAmplitudes, spin_constants, spin_spectral

DEFAULT_EPSILON = 1e-3
HISTOGRAM_BINS = 200
# A series has collapsed at its first grid time with P_q below this.
COLLAPSE_THRESHOLD = 0.01


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
        p_up = np.count_nonzero(up_mask) / len(dist)
        p_down = np.count_nonzero(down_mask) / len(dist)
    else:
        p_up = float(dist.weight[up_mask].sum())
        p_down = float(dist.weight[down_mask].sum())
    # The complement can land a few ulp below zero; keep it in range.
    return p_up, p_down, max(0.0, 1.0 - p_up - p_down)


def check_grid(times: np.ndarray) -> None:
    """A time grid must be 1-D, finite and strictly increasing."""
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


@dataclass
class ObservableSeries:
    """Evolution of (P_up, P_down, P_q) over a strictly increasing time grid.

    method is the engine that produced the masses and dropped counts
    the atoms the grid's distributions dropped.  The run's other inputs
    (epsilon, model, sample count, seed) live with its caller.
    """

    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    p_q: np.ndarray
    method: str
    dropped: int = 0

    def __post_init__(self):
        m = self.times.size
        if not (self.p_up.size == self.p_down.size == self.p_q.size == m):
            raise ValueError("series arrays must have equal length")
        check_grid(self.times)
        total = self.p_up + self.p_down + self.p_q
        # Written so that a NaN total fails it.
        if m and not np.max(np.abs(total - 1.0)) <= 1e-9:
            raise ValueError("class probabilities must sum to one")


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit stream seed for grid point ``index``."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _last_passing(test, lo: float, hi: float) -> float:
    """Largest float x in [lo, hi) with test(x), for a test that holds up to a cutoff and not after.

    test maps one float to a bool; it must hold at lo and fail at hi.
    Plain bisection on the float values: the rounded midpoint lies
    strictly between lo and hi until they are adjacent floats, where it
    rounds to one of them, so the search ends on the exact cutoff.  It
    takes about log2((hi - lo) / spacing) tests, with spacing the gap
    between floats at the cutoff: about 60 for a cutoff of order one.
    """
    while True:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            return lo
        if test(mid):
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=16)
def logit_cutoffs(eps: float) -> tuple[float, float]:
    """(c_up, c_down): u >= 1 - eps exactly when x <= c_up, u <= eps exactly when x > c_down.

    x is the argument of ``engine.u_from_x``, minus the logit of u.
    That u is monotone non-increasing in x in float arithmetic, so each
    class test on u is one comparison on x.  c_up is the largest float
    that still counts as up and c_down the largest that does not yet
    count as down, found by searching the floats with the very
    expression of ``u_from_x``.  x = -inf is up and x = +inf is down; a
    NaN x (both branch weights zero) is neither.  The search takes about
    0.4 ms on a 2-core x86 machine; the result is memoized per eps for
    the life of the process.
    """
    validate_error_threshold(eps)
    # u(-800) = 1 and u(710) = 0 bound both searches.  At x = 0, u = 0.5 may
    # still count as up: 1 - eps rounds to 0.5 for the largest eps < 0.5.
    c_up = _last_passing(lambda x: engine.u_from_x(x) >= 1.0 - eps, -800.0, 710.0)
    c_down = _last_passing(lambda x: engine.u_from_x(x) > eps, -800.0, 710.0)
    return c_up, c_down


# The methods ``prepare`` dispatches on; ``cli.validate`` checks a config against them.
METHODS = ("exact", "binomial", "sampled", "exact-universe")


def prepare(
    params: ModelParams,
    alphas: SystemAmplitudes,
    method: str,
    samples: int = 100_000,
    workers: int = 1,
    times=(),
):
    """Point function (t, seed) -> distribution of one run of ``method``.

    times is the run's grid, 1-D and strictly increasing (empty for a
    caller of one-time points).  The run's time-independent work happens
    here, once: binomial builds its ``engine.BinomialGrid`` from params
    over times, whose rows hold both branches' one-spin profiles at
    every grid time and whose table log k! starts unset.  The grid
    evaluates its times a block at a time: the first point of a block
    computes the log k! of the block's spans that no earlier block of
    the run read, and the atoms of all the block's times in one batch
    of ufunc calls and one merge; every point then takes its own row,
    with the bits a block of its time alone gives, and classifies it.
    A block's cost so falls on its first point.  exact-universe
    builds its sector spectra and thermal ensemble.  Each point function
    looks its engine up in its module at every call, so wrapping
    ``engine.sample_outcomes`` and the like still sees every point.  The
    state lives as long as the caller holds the point function; nothing
    is cached across runs.  An unknown method raises ValueError before
    any work.
    """
    if method == "exact":
        return lambda t, seed: engine.enumerate_outcomes(params, alphas, t)
    if method == "binomial":
        grid = engine.BinomialGrid(params, times)
        return lambda t, seed: engine.binomial_outcomes(params, alphas, t, grid=grid)
    if method == "sampled":
        return lambda t, seed: engine.sample_outcomes(params, alphas, t, samples, seed, workers)
    if method == "exact-universe":
        spectra = universe.sector_spectra(params)
        ensemble = universe.thermal_ensemble(params)
        return lambda t, seed: engine.ProjectionDistribution(
            *universe.projection_outcomes(params, alphas, ensemble, spectra, t), kind="exact"
        )
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def distribution_at(prepared, t: float, seed: int = 0) -> engine.ProjectionDistribution:
    """Projection distribution at one time from the point function ``prepare`` returned.

    A one-time caller writes ``distribution_at(prepare(params, alphas,
    method), t)``; a binomial time on the prepared grid takes its row
    of the grid's block, any other is a block of its own, with the same
    bits.  It stays a named module function, not a bare call of
    ``prepared``, because every grid and histogram point of ``evaluate``
    goes through this name: perfbench's tracer times each point by
    wrapping ``observables.distribution_at``, and tests count points by
    monkeypatching it.
    """
    return prepared(t, seed)


def evaluate(
    params: ModelParams,
    alphas: SystemAmplitudes,
    times,
    hist_times=(),
    eps: float = DEFAULT_EPSILON,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
):
    """(series, [(t, histogram)]) of one run: class masses over a grid and P(u) at hist_times.

    The one run evaluator; deterministic under a fixed seed.  eps and the
    grid (1-D, finite, strictly increasing) are checked before any point
    is evaluated, then the engine is prepared once for the grid
    (``prepare``) and its point function serves the grid and every
    histogram time.  Exact enumeration evaluates its grid in one
    ``engine.exact_class_masses`` call, which classifies each atom by
    comparing x = -logit(u) with ``logit_cutoffs(eps)``: every atom gets
    the class per-point ``distribution_at`` + ``class_probabilities``
    give it, and the masses are within a few ulp of theirs.  The other methods go through
    ``distribution_at`` one grid point at a time, sampled with the
    stream ``point_seed(seed, i)`` of point i, so the series does not
    depend on evaluation order or worker count.  Histogram time k is one
    ``distribution_at`` with the stream ``point_seed(seed, 1_000_000 + k)``
    for every method.  No grid point is degenerate: exact blocks,
    binomial and the oracle drop atoms with both branch weights zero,
    and the sampler never draws one.
    """
    validate_error_threshold(eps)
    times = np.asarray(times, dtype=float)
    check_grid(times)
    prepared = prepare(params, alphas, method, samples, workers, times)
    if method == "exact":
        masses, dropped = engine.exact_class_masses(params, alphas, times, logit_cutoffs(eps))
    else:
        masses = np.empty((3, times.size))
        dropped = 0
        for i, t in enumerate(times.tolist()):
            stream = point_seed(seed, i) if method == "sampled" else seed
            dist = distribution_at(prepared, t, stream)
            masses[:, i] = class_probabilities(dist, eps)
            dropped += dist.dropped
            # Point i's arrays go before point i + 1 is drawn: one point is alive at a time.
            del dist
    series = ObservableSeries(times, masses[0], masses[1], masses[2], method, dropped)
    histograms = [
        (float(t), histogram(distribution_at(prepared, float(t), point_seed(seed, 1_000_000 + k))))
        for k, t in enumerate(hist_times)
    ]
    return series, histograms


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
    """Class probabilities over a time grid: the series of ``evaluate`` with no histogram times."""
    return evaluate(params, alphas, times, (), eps, method, samples, seed, workers)[0]


def revival_times(params: ModelParams, m_max: int):
    """Times where the down-branch factors all return to their initial values.

    For equal couplings these are m * pi / omega_down, where the
    superposition mass revives; for dispersed couplings the per-spin
    node times rarely coincide, so a list of per-spin arrays is
    returned for diagnostics only.  omega_down is ``spin_constants``'
    down row: one spin's for equal couplings, every spin's in one pass
    otherwise.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    m = np.arange(1, m_max + 1, dtype=float)
    if params.equal_couplings:
        omega = spin_spectral(params, "down", 1).omega
        return m * math.pi / omega if omega > 0.0 else np.empty(0)
    omegas = spin_constants(params, ("down",)).omega[0].tolist()
    return [m * math.pi / omega if omega > 0.0 else np.empty(0) for omega in omegas]


def first_collapse_time(series: ObservableSeries):
    """Operational collapse time: first grid time with P_q below COLLAPSE_THRESHOLD.

    The underlying collapse timescale has no sharp definition; this
    grid-resolution proxy is labeled as such wherever it is reported.
    Returns None when the series never collapses.
    """
    hits = np.nonzero(series.p_q < COLLAPSE_THRESHOLD)[0]
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
        return self.mass_zero + self.mass_one + float(self.bin_mass.sum())


def histogram(dist: engine.ProjectionDistribution) -> ProjectionHistogram:
    if len(dist) == 0:
        raise ValueError("empty distribution")
    at_zero = dist.u == 0.0
    at_one = dist.u == 1.0
    interior = ~(at_zero | at_one)
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    mass, _ = np.histogram(dist.u[interior], bins=edges, weights=dist.weight[interior])
    return ProjectionHistogram(
        mass_zero=float(dist.weight[at_zero].sum()),
        mass_one=float(dist.weight[at_one].sum()),
        bin_edges=edges,
        bin_mass=mass,
    )
