"""Classical/quantum classification of outcomes and figure-style time series.

An outcome with up-projection u counts as collapsed-down when
u <= epsilon, collapsed-up when u >= 1 - epsilon (both intervals
closed), and as a surviving superposition otherwise.  P_q is defined as
1 - P_up - P_down so the three always sum to one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import engine, universe
from .core import ModelParams, SystemAmplitudes, spin_spectral

DEFAULT_EPSILON = 1e-3
HISTOGRAM_BINS = 200
# A series has collapsed at its first grid time with P_q below this.
COLLAPSE_THRESHOLD = 0.01
# Atoms per block of a grid evaluation: exact enumeration evaluates
# max(1, GRID_BLOCK_ATOMS >> N) grid times at once.  Enough times to
# spread numpy's per-call cost at small N (8 times at N = 10), while
# each block array stays at 64 KiB (8192 float64) and a block's peak,
# about 3.5 such arrays, stays under what writing a run's files takes.
# A block's profile rows are sliced from its chunk's table (below).
GRID_BLOCK_ATOMS = 8192
# Profile entries (times x N) per chunk of an exact grid: both branches'
# log profiles are built by one call each for a chunk of whole blocks
# with at most this many entries, or for one block where a block alone
# has more (N < 10).  From N = 10 on, the table's four fields then take
# at most 8 KiB next to a block's arrays, so neither the table nor a
# run's peak grows with grid length.  At N = 10 a chunk is 3 blocks
# (24 times), which takes the figure presets' profile calls from two
# per block to two per three blocks.
PROFILE_CHUNK_ENTRIES = 256
_MAGNITUDE = 0x7FFF_FFFF_FFFF_FFFF


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
        p_up = float(np.sum(dist.weight[up_mask]))
        p_down = float(np.sum(dist.weight[down_mask]))
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

    method is the engine that produced the masses, dropped counts the
    atoms the grid's distributions dropped, and retries lists each
    degenerate point's (t, t one ulp later).  The run's other inputs
    (epsilon, model, sample count, seed) live with its caller.
    """

    times: np.ndarray
    p_up: np.ndarray
    p_down: np.ndarray
    p_q: np.ndarray
    method: str
    dropped: int = 0
    retries: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        m = self.times.size
        if not (self.p_up.size == self.p_down.size == self.p_q.size == m):
            raise ValueError("series arrays must have equal length")
        check_grid(self.times)
        total = self.p_up + self.p_down + self.p_q
        if m and np.max(np.abs(total - 1.0)) > 1e-9:
            raise ValueError("class probabilities must sum to one")


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit stream seed for grid point ``index``."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _float_key(x: float) -> int:
    """Integer key of a float64 that orders like the float (-0.0 and 0.0 share 0)."""
    bits = int(np.array(x, dtype=float).view(np.int64))
    return -(bits & _MAGNITUDE) if bits < 0 else bits


def _key_float(key: int) -> float:
    """The float64 of a ``_float_key`` (key 0 gives 0.0)."""
    return math.copysign(float(np.int64(abs(key)).view(np.float64)), key)


def _last_passing(test, lo: float, hi: float) -> float:
    """Largest float x in [lo, hi) with test(x), for a test that holds up to a cutoff and not after.

    test maps one float to a bool; it must hold at lo and fail at hi.
    Plain bisection over the integer keys between them (``_float_key``)
    takes at most 64 tests.
    """
    lo_key, hi_key = _float_key(lo), _float_key(hi)
    while hi_key - lo_key > 1:
        mid = (lo_key + hi_key) // 2
        if test(_key_float(mid)):
            lo_key = mid
        else:
            hi_key = mid
    return _key_float(lo_key)


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
    1-2 ms; the result is memoized per eps for the life of the process.
    """
    validate_error_threshold(eps)
    # u(-800) = 1 and u(710) = 0 bound both searches.  At x = 0, u = 0.5 may
    # still count as up: 1 - eps rounds to 0.5 for the largest eps < 0.5.
    c_up = _last_passing(lambda x: engine.u_from_x(x) >= 1.0 - eps, -800.0, 710.0)
    c_down = _last_passing(lambda x: engine.u_from_x(x) > eps, -800.0, 710.0)
    return c_up, c_down


def _row_sums(weight: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-row sums of the weights under a boolean mask, through the scratch array out.

    The mask is copied in as 0/1 and multiplied in place, which needs
    no cast buffer; each row is then one pairwise sum.
    """
    np.copyto(out, mask)
    out *= weight
    return out.sum(axis=1)


def _exact_block(
    alphas: SystemAmplitudes,
    rows: engine.BranchLogRows,
    cutoffs: tuple[float, float],
) -> tuple[np.ndarray, int]:
    """(3, T) class masses and the dropped-atom count of a time block, by one enumeration.

    rows are the block's ``engine.BranchLogRows``.  cutoffs are
    ``logit_cutoffs(eps)``: the class of every kept atom is the one
    ``class_probabilities`` gives from its u.  Each row's masses
    are one pairwise sum over the block row with the dropped and
    off-class weights zeroed, so they match the per-point
    ``enumerate_outcomes`` + ``class_probabilities`` values to a few
    ulp, not bit for bit (that route sums only the kept class atoms).
    """
    x, weight, keep = engine.enumerate_block(alphas, rows)
    if not np.all(np.any(keep, axis=1)):
        raise ValueError("empty distribution")
    c_up, c_down = cutoffs
    up = x <= c_up
    up &= keep
    down = x > c_down
    down &= keep
    # x is dead: it takes the weights of each class, zero elsewhere, in turn.
    p_up = _row_sums(weight, up, out=x)
    p_down = _row_sums(weight, down, out=x)
    # The complement can land a few ulp below zero; keep it in range.
    p_q = np.maximum(0.0, 1.0 - p_up - p_down)
    return np.stack((p_up, p_down, p_q)), keep.size - int(np.count_nonzero(keep))


def _prepare_exact(params, alphas, samples, workers):
    return lambda t, seed: engine.enumerate_outcomes(params, alphas, t)


def _prepare_binomial(params, alphas, samples, workers):
    log_counts = engine.binomial_log_counts(params.n_env)
    spin = engine.binomial_spin(params)
    return lambda t, seed: engine.binomial_outcomes(
        params, alphas, t, log_counts=log_counts, spin=spin
    )


def _prepare_sampled(params, alphas, samples, workers):
    return lambda t, seed: engine.sample_outcomes(params, alphas, t, samples, seed, workers)


def _prepare_universe(params, alphas, samples, workers):
    spectra = universe.sector_spectra(params)
    ensemble = universe.thermal_ensemble(params)

    def point(t, seed):
        u, weight = universe.projection_outcomes(params, alphas, ensemble, spectra, t)
        return engine.ProjectionDistribution(u=u, weight=weight, kind="exact")

    return point


# Method -> prepare(params, alphas, samples, workers): does the run's
# time-independent work once and returns its point function
# (t, seed) -> ProjectionDistribution; each engine reads what it needs.
ENGINES = {
    "exact": _prepare_exact,
    "binomial": _prepare_binomial,
    "sampled": _prepare_sampled,
    "exact-universe": _prepare_universe,
}
METHODS = tuple(ENGINES)


def prepare(
    params: ModelParams,
    alphas: SystemAmplitudes,
    method: str,
    samples: int = 100_000,
    workers: int = 1,
):
    """Point function (t, seed) -> distribution of one run, from ``ENGINES[method]``.

    Binomial computes its multiplicities and one-spin model here and
    exact-universe its sector spectra.  The state lives as long as the
    caller holds the point function; nothing is cached across runs.
    """
    try:
        engine_prepare = ENGINES[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}") from None
    return engine_prepare(params, alphas, samples, workers)


def distribution_at(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    method: str,
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    *,
    prepared=None,
) -> engine.ProjectionDistribution:
    """Projection distribution at one time via the engine ``ENGINES[method]``.

    prepared, when given, is the point function ``prepare`` returned for
    the same params, alphas, method, samples and workers, so that a run
    does its time-independent work once for all its points; without it
    the engine is prepared for this one call.
    """
    if prepared is None:
        prepared = prepare(params, alphas, method, samples, workers)
    return prepared(t, seed)


def time_series(
    params: ModelParams,
    alphas: SystemAmplitudes,
    times,
    eps: float = DEFAULT_EPSILON,
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
    workers: int = 1,
    *,
    prepared=None,
) -> ObservableSeries:
    """Class probabilities over a time grid; deterministic under a fixed seed.

    The one grid evaluator, which ``cli run`` uses too.  The grid is
    checked (1-D, finite, strictly increasing) before any point is
    evaluated.  Exact enumeration evaluates blocks of
    max(1, GRID_BLOCK_ATOMS >> N) consecutive times at once, slices
    each block's profile rows from a table built once per chunk of
    blocks (``PROFILE_CHUNK_ENTRIES``), and classifies each atom by
    comparing x = -logit(u) with ``logit_cutoffs(eps)``: every atom
    gets the class per-point ``distribution_at`` +
    ``class_probabilities`` give it, and the masses are within a few
    ulp of theirs.  The other methods are
    prepared once per grid by ``prepare`` (or share the point function
    ``prepared`` that the caller made for the same run) and then go
    through ``distribution_at`` one point at a time, sampled with the
    stream ``point_seed(seed, i)`` of point i, so the series does not
    depend on evaluation order or worker count.  A point that raises
    DegenerateOutcomeError (both branch weights exactly zero) is
    re-evaluated one float ulp later and the pair (t, bumped) is logged
    in the series' ``retries``; degenerate again, it raises with its
    grid time attached.  Exact blocks drop zero-weight atoms and never
    raise it.
    """
    validate_error_threshold(eps)
    times = np.asarray(times, dtype=float)
    check_grid(times)
    masses = np.empty((3, times.size))
    dropped = 0
    retries: list[tuple[float, float]] = []
    if method == "exact":
        cutoffs = logit_cutoffs(eps)
        step = max(1, GRID_BLOCK_ATOMS >> params.n_env)
        chunk = step * max(1, PROFILE_CHUNK_ENTRIES // (step * params.n_env))
        for start in range(0, times.size, chunk):
            table = engine.branch_log_rows(params, times[start : start + chunk])
            for first in range(0, table.up_keep.shape[0], step):
                block = slice(start + first, start + first + step)
                rows = table.rows(slice(first, first + step))
                masses[:, block], count = _exact_block(alphas, rows, cutoffs)
                dropped += count
    else:
        if prepared is None:
            prepared = prepare(params, alphas, method, samples, workers)
        at = partial(
            distribution_at, params, alphas, method=method, samples=samples, workers=workers,
            prepared=prepared,
        )
        for i, t in enumerate(times.tolist()):
            stream = point_seed(seed, i) if method == "sampled" else seed
            try:
                dist = at(t, seed=stream)
            except engine.DegenerateOutcomeError:
                bumped = float(np.nextafter(t, np.inf))
                retries.append((t, bumped))
                try:
                    dist = at(bumped, seed=stream)
                except engine.DegenerateOutcomeError as err:
                    raise engine.DegenerateOutcomeError(
                        f"degenerate outcome at grid time t={t}: {err}", t=t
                    ) from err
            masses[:, i] = class_probabilities(dist, eps)
            dropped += dist.dropped
    return ObservableSeries(times, masses[0], masses[1], masses[2], method, dropped, retries)


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
    if params.equal_couplings:
        omega = spin_spectral(params, "down", 1).omega
        if omega == 0.0:
            return np.empty(0)
        return m * math.pi / omega
    out = []
    for j in range(1, params.n_env + 1):
        omega = spin_spectral(params, "down", j).omega
        out.append(m * math.pi / omega if omega > 0 else np.empty(0))
    return out


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
        return self.mass_zero + self.mass_one + float(np.sum(self.bin_mass))


def histogram(dist: engine.ProjectionDistribution) -> ProjectionHistogram:
    if len(dist) == 0:
        raise ValueError("empty distribution")
    at_zero = dist.u == 0.0
    at_one = dist.u == 1.0
    interior = ~(at_zero | at_one)
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    mass, _ = np.histogram(dist.u[interior], bins=edges, weights=dist.weight[interior])
    return ProjectionHistogram(
        mass_zero=float(np.sum(dist.weight[at_zero])),
        mass_one=float(np.sum(dist.weight[at_one])),
        bin_edges=edges,
        bin_mass=mass,
    )
