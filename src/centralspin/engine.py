"""Outcome distributions of the central spin: enumeration, binomial, sampling.

Marginalizing the trajectory law over initial bath states leaves a
distribution over flip patterns d: since every squared per-spin
amplitude depends on d_j alone, the probability of a pattern is

    P(d) = w_up * prod_j p_up_j(d_j)  +  w_down * prod_j p_down_j(d_j)

with w_up = |a_up|^2 and p_S_j(-1) = (1 - r_S_j) sin^2(omega_S_j tau),
p_S_j(+1) = 1 - p_S_j(-1).  That is a two-component mixture of product
Bernoulli distributions, which gives three exact routes to the
distribution of the up-projection u = w_up W_up / (w_up W_up + w_down W_down):

* enumerate all 2^N patterns (N <= 20),
* reduce to flip counts when all h_j are equal (N + 1 atoms, any N),
* draw patterns directly from the mixture (any N, exact sampling).

All pattern weights accumulate in log domain; u is evaluated through
the logit so it comes out finite or exactly 0/1 even at N = 80.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    LOG_SUM_BLOCK,
    EnvironmentTooLarge,
    FlipPattern,
    ModelParams,
    SystemAmplitudes,
    branch_flip_profile,
    pattern_log_weight,
    spin_amplitude,
)

ENUMERATION_CAP = 20
WEIGHT_FLOOR = 1e-300
U_MERGE_TOL = 1e-12
SAMPLE_CHUNK = 8192


class DegenerateOutcomeError(ValueError):
    """Both branch weights vanished: the outcome state is undefined at this time."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


@dataclass
class ProjectionDistribution:
    """Distribution of the up-projection u at one time, as parallel arrays.

    kind is 'exact' (one atom per flip pattern), 'binomial' (one atom
    per flip count, equal-u atoms merged) or 'sampled' (every atom
    carries weight 1/len).  pattern_codes, when present, give the flip
    pattern of each atom as a bit code (bit i set = spin i+1 flipped);
    only ``enumerate_outcomes`` fills them.  dropped reports atoms
    removed for carrying weight below 1e-300; they are excluded from
    normalization checks.
    """

    u: np.ndarray
    weight: np.ndarray
    kind: str
    pattern_codes: np.ndarray | None = None
    dropped: int = 0

    def __post_init__(self):
        if self.kind not in ("exact", "binomial", "sampled"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.u.shape != self.weight.shape:
            raise ValueError("u and weight must be parallel arrays")

    def __len__(self) -> int:
        return self.u.size

    def total_weight(self) -> float:
        return float(np.sum(self.weight))


def _log_mixture_weights(alphas: SystemAmplitudes) -> tuple[float, float]:
    """(log w_up, log w_down), -inf for a vanishing weight."""
    lw_up = math.log(alphas.w_up) if alphas.w_up > 0 else -math.inf
    lw_down = math.log(alphas.w_down) if alphas.w_down > 0 else -math.inf
    return lw_up, lw_down


def _log_branch_pair(params, alphas, t):
    """Both branch profiles and log mixture weights, for one pattern, binomial and sampling."""
    up = branch_flip_profile(params, "up", t)
    down = branch_flip_profile(params, "down", t)
    return (up, down) + _log_mixture_weights(alphas)


class BranchLogRows(NamedTuple):
    """Both branches' per-spin log factors at T times, each T x N (row k is time k).

    The input of ``enumerate_block``.  ``rows`` takes a block of
    consecutive times out of a longer table without copying.
    """

    up_keep: np.ndarray
    up_flip: np.ndarray
    down_keep: np.ndarray
    down_flip: np.ndarray

    def rows(self, block: slice) -> "BranchLogRows":
        # A list, not a generator: star-unpacking a generator resizes a
        # tuple, which then stays in CPython's tuple free list, one per
        # call, and counts toward a run's tracemalloc peak.
        return BranchLogRows(*[field[block] for field in self])


def branch_log_rows(params: ModelParams, times: np.ndarray) -> BranchLogRows:
    """``BranchLogRows`` at a 1-D array of times, one ``branch_flip_profile`` call per branch.

    Row k is bit for bit the profile at times[k] alone, so any split of
    a grid into tables gives the same rows.  Only the log fields are
    kept.
    """
    up = branch_flip_profile(params, "up", times)
    down = branch_flip_profile(params, "down", times)
    return BranchLogRows(up.log_keep, up.log_flip, down.log_keep, down.log_flip)


def u_from_x(x):
    """Up-projection u = 1/(1 + exp(x)) of x = log(w_down W_down) - log(w_up W_up).

    x is minus the logit of u.  u is exactly 0 at x = +inf (the up
    branch weight vanishes) and exactly 1 at x = -inf (the down one
    does).  x is NaN only where both branch weights vanish; callers
    exclude that degenerate case.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(x))


def _pattern_logit(
    params: ModelParams, alphas: SystemAmplitudes, t: float, pattern: FlipPattern
) -> float:
    """x = log(w_down W_down) - log(w_up W_up) of one flip pattern at time t.

    The branch totals are mixed as ``enumerate_block`` mixes them, so
    ``u_from_x(x)`` is the enumerated u of the pattern bit for bit.  x is
    NaN exactly when both totals are -inf; that raises
    DegenerateOutcomeError.
    """
    if len(pattern) != params.n_env:
        raise ValueError("pattern length does not match environment size")
    up, down, lw_up, lw_down = _log_branch_pair(params, alphas, t)
    flipped = pattern.flipped
    x = (lw_down + pattern_log_weight(down, flipped)) - (lw_up + pattern_log_weight(up, flipped))
    if math.isnan(x):
        raise DegenerateOutcomeError(
            f"both branch weights vanish for this pattern at t={t}", t=t
        )
    return x


def pattern_projection(
    params: ModelParams, alphas: SystemAmplitudes, t: float, pattern: FlipPattern
) -> float:
    """Up-projection u of the trajectory state selected by a flip pattern.

    Raises DegenerateOutcomeError when both branch weights are exactly
    zero (a measure-zero set of times); never returns NaN.
    """
    return float(u_from_x(_pattern_logit(params, alphas, t, pattern)))


def pattern_log_weights(log_keep: np.ndarray, log_flip: np.ndarray) -> np.ndarray:
    """Log-weights of all 2^N flip patterns at each of T times, by subset doubling.

    log_keep and log_flip are T x N; column c of the T x 2^N result is
    the pattern whose bit i is set when spin i+1 flipped.  The doubling
    runs in a pattern-major 2^N x T layout, where spin i doubles the
    rows in place: rows [0, 2^i) keep it, rows [2^i, 2^(i+1)) flip it.
    Both halves are contiguous and disjoint, so numpy adds them with no
    overlap copy, and each half adds the spin's T factors as one
    contiguous row.  One transposing copy returns the row-major T x 2^N
    array (at T = 1 both layouts are the same memory and nothing is
    copied), so a call holds at most two result-sized arrays.  The
    layout moves where a sum is stored, not how it is formed: each
    entry is still the left-to-right sum over spins 1..N, so it equals
    a spin-by-spin loop bit for bit; -inf factors stay -inf (no +inf
    term exists, so inf - inf never occurs).

    The left-to-right order is load-bearing: ``core.pattern_log_weight``
    sums a sampled or single pattern's logs in the same order, so its u
    coincides bit for bit with the enumerated u of the pattern, which
    the sampler-vs-enumeration KS check (acceptance criterion 3) relies
    on.  A split into two half-patterns (meet in the middle) rounds
    differently and must change that sum with it.
    """
    t, n = log_keep.shape
    keep, flip = np.ascontiguousarray(log_keep.T), np.ascontiguousarray(log_flip.T)
    acc = np.empty((1 << n, t))
    acc[0] = 0.0
    for i in range(n):
        width = 1 << i
        np.add(acc[:width], flip[i], out=acc[width : 2 * width])
        acc[:width] += keep[i]
    return np.ascontiguousarray(acc.T)


def enumerate_block(
    alphas: SystemAmplitudes, rows: BranchLogRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, weight, keep) of every flip pattern at a block of T times, each T x 2^N.

    rows are both branches' T x N log factors at the block's times
    (``branch_log_rows``, or a block of a longer table).  Columns are
    pattern codes.  x = log(w_down W_down) - log(w_up W_up) is minus the
    logit of u (``u_from_x`` gives u); keep marks the atoms with weight
    at or above 1e-300.  x is meaningful on kept atoms only: a dropped
    atom may have both branch weights zero and x NaN.

    Memory: three block-sized float arrays at a time, plus a half-block
    temporary while the down weights are added.  The up log-weights
    stay alive while the down ones are doubled, and a doubling holds
    two block-sized arrays for T > 1 (the pattern-major accumulator and
    its transposed copy) and one at T = 1.
    """
    n = rows.up_keep.shape[1]
    if n > ENUMERATION_CAP:
        raise EnvironmentTooLarge(f"N={n} exceeds enumeration cap {ENUMERATION_CAP} (2^N atoms)")
    lw_up, lw_down = _log_mixture_weights(alphas)
    log_wu = pattern_log_weights(rows.up_keep, rows.up_flip)
    log_wd = pattern_log_weights(rows.down_keep, rows.down_flip)
    weight = np.exp(log_wu)
    weight *= alphas.w_up
    # The down weights go in one contiguous half of the block at a time.
    flat_weight, flat_wd = weight.reshape(-1), log_wd.reshape(-1)
    down_weight = np.empty(flat_weight.size // 2)
    for part in (slice(None, down_weight.size), slice(down_weight.size, None)):
        np.exp(flat_wd[part], out=down_weight)
        down_weight *= alphas.w_down
        flat_weight[part] += down_weight
    del down_weight
    # x in place in the down logs: (log_wd + lw_down) - (log_wu + lw_up).
    log_wu += lw_up
    log_wd += lw_down
    with np.errstate(invalid="ignore"):
        log_wd -= log_wu
    return log_wd, weight, weight >= WEIGHT_FLOOR


def enumerate_outcomes(
    params: ModelParams, alphas: SystemAmplitudes, t: float
) -> ProjectionDistribution:
    """Exact distribution with one atom per flip pattern (2^N of them).

    The initial-state marginal drops out because squared per-spin
    amplitudes depend only on d_j, so the result is independent of the
    bath occupation and of beta.  Atoms with weight below 1e-300
    (including exact zeros) are dropped and counted in ``dropped``.
    This is ``enumerate_block`` on the one-time block [t].
    """
    rows = branch_log_rows(params, np.array([t]))
    x, weight, keep = (a[0] for a in enumerate_block(alphas, rows))
    return ProjectionDistribution(
        u=u_from_x(x[keep]),
        weight=weight[keep],
        kind="exact",
        pattern_codes=np.flatnonzero(keep),
        dropped=int(np.count_nonzero(~keep)),
    )


def binomial_log_counts(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, from math.lgamma; independent of time."""
    lg = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    return lg[n] - lg - lg[::-1]


def binomial_spin(params: ModelParams) -> ModelParams:
    """The one-spin model that carries every spin's profile when all h_j are equal."""
    if not params.equal_couplings:
        raise ValueError("binomial reduction requires all couplings equal")
    return ModelParams(params.delta, params.h[:1], params.beta, params.t0)


def binomial_outcomes(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    *,
    log_counts: np.ndarray | None = None,
    spin: ModelParams | None = None,
) -> ProjectionDistribution:
    """Exact distribution for equal couplings, indexed by flip count.

    With all h_j equal the branch weight depends only on how many spins
    flipped, so the 2^N patterns collapse onto N + 1 atoms with binomial
    multiplicity, and one spin's profile serves them all.  Atoms whose u
    coincide within 1e-12 are merged, so an atom no longer names one
    flip count.  Agrees with enumerate_outcomes exactly (after the same
    merging) wherever both apply.  log_counts and spin, when given, must
    be ``binomial_log_counts(N)`` and ``binomial_spin(params)``; a grid
    computes them once for every point.
    """
    n = params.n_env
    if spin is None:
        spin = binomial_spin(params)
    up, down, lw_up, lw_down = _log_branch_pair(spin, alphas, t)
    k = np.arange(n + 1, dtype=np.int64)

    def log_w(profile):
        # 0 * (-inf) would be nan; the where() masks those slots out.
        with np.errstate(invalid="ignore"):
            keep_part = np.where(k < n, (n - k) * profile.log_keep[0], 0.0)
            flip_part = np.where(k > 0, k * profile.log_flip[0], 0.0)
        return keep_part + flip_part

    log_wu = log_w(up)
    log_wd = log_w(down)
    log_count = binomial_log_counts(n) if log_counts is None else log_counts
    with np.errstate(over="ignore"):
        weight = alphas.w_up * np.exp(log_count + log_wu) + alphas.w_down * np.exp(
            log_count + log_wd
        )
    keep = weight >= WEIGHT_FLOOR
    u = u_from_x((lw_down + log_wd[keep]) - (lw_up + log_wu[keep]))
    dist = ProjectionDistribution(
        u=u,
        weight=weight[keep],
        kind="binomial",
        dropped=int(np.count_nonzero(~keep)),
    )
    return merge_by_u(dist)


def merge_by_u(dist: ProjectionDistribution) -> ProjectionDistribution:
    """Merge atoms whose u values coincide within U_MERGE_TOL (weights add).

    Sorted by u, a group ends where the next u exceeds the last by more
    than U_MERGE_TOL = 1e-12.  The merged u is the weight-weighted mean
    of the group (its first u when the group weighs nothing).  Pattern
    codes are discarded (a merged atom has no single pattern).
    """
    if dist.u.size == 0:
        return dist
    order = np.argsort(dist.u, kind="stable")
    u_sorted = dist.u[order]
    w_sorted = dist.weight[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(u_sorted) > U_MERGE_TOL)))
    w_out = np.add.reduceat(w_sorted, starts)
    uw_out = np.add.reduceat(u_sorted * w_sorted, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_out = np.where(w_out > 0, uw_out / w_out, u_sorted[starts])
    return ProjectionDistribution(
        u=u_out,
        weight=w_out,
        kind=dist.kind,
        dropped=dist.dropped,
    )


def _sample_chunk(branches, alphas, seed, chunk_index, size):
    """Draw one deterministic chunk of patterns and return their u values.

    branches is the point's ``_log_branch_pair``.  The chunk stream is
    PCG64 seeded with SeedSequence(entropy=seed, spawn_key=(chunk_index,));
    within a chunk the draw order is fixed: ``size`` uniforms pick the
    mixture branch, then size x N uniforms, row by row, pick the flips.
    The flip uniforms are drawn into a reused block of rows (about
    LOG_SUM_BLOCK floats), each row's flip probabilities are gathered
    from the two branch profiles by its branch index, and the compare
    goes into one spin-major N x size bool mask that both branch
    log-sums (``core.pattern_log_weight``) read.  So the scratch is one
    byte per (sample, spin) plus a few blocks, and every draw and u is
    the one a whole (size, N) block of uniforms would give.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    up, down, lw_up, lw_down = branches
    n = up.flip.size
    branch = (rng.random(size) < alphas.w_up).view(np.uint8)
    flip_table = np.stack((down.flip, up.flip))
    rows = max(1, min(size, LOG_SUM_BLOCK // n))
    draws = np.empty((rows, n))
    flip_prob = np.empty((rows, n))
    block = np.empty((rows, n), dtype=bool)
    flips = np.empty((n, size), dtype=bool)
    for start in range(0, size, rows):
        m = min(rows, size - start)
        rng.random(out=draws[:m])
        np.take(flip_table, branch[start : start + m], axis=0, out=flip_prob[:m], mode="clip")
        np.less(draws[:m], flip_prob[:m], out=block[:m])
        flips[:, start : start + m] = block[:m].T
    log_wu = pattern_log_weight(up, flips.T)
    log_wd = pattern_log_weight(down, flips.T)
    return u_from_x((lw_down + log_wd) - (lw_up + log_wu))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_outcomes(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    count: int,
    seed: int,
    workers: int = 1,
) -> ProjectionDistribution:
    """Draw ``count`` outcomes from the exact pattern law.

    Why this is exact and not approximate: the marginal pattern weight
    is w_up * B_up(d) + w_down * B_down(d) where each B_S is a product
    of independent per-spin Bernoulli factors (flip probability
    (1 - r_S_j) sin^2(omega_S_j tau)).  Picking the branch with
    probability w_S and then flipping each spin independently with its
    branch's probability therefore reproduces the mixture law exactly,
    at O(N) cost per sample, with no rejection or Markov-chain error.
    Sampled patterns always have positive weight under their own
    branch, so u is always well defined.

    Samples are produced in fixed chunks of 8192; chunk c uses the
    stream SeedSequence(entropy=seed, spawn_key=(c,)) and results are
    concatenated in chunk order, so the output is byte-identical for
    any worker count.  The branch profiles are computed once per call;
    at most min(workers, chunks, usable CPUs) threads run the chunks.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    sizes = [SAMPLE_CHUNK] * (count // SAMPLE_CHUNK)
    if count % SAMPLE_CHUNK:
        sizes.append(count % SAMPLE_CHUNK)
    branches = _log_branch_pair(params, alphas, t)
    jobs = list(enumerate(sizes))
    threads = min(workers, len(jobs), _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda job: _sample_chunk(branches, alphas, seed, *job), jobs))
    else:
        parts = [_sample_chunk(branches, alphas, seed, c, s) for c, s in jobs]
    return ProjectionDistribution(
        u=np.concatenate(parts), weight=np.full(count, 1.0 / count), kind="sampled"
    )


def wavefunction_of_pattern(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    initial_spins,
    pattern: FlipPattern,
) -> np.ndarray:
    """Normalized system state for one (initial spins, flip pattern) outcome.

    Unlike the squared weights, the complex branch amplitudes carry
    phases that depend on the initial orientations (each kept spin
    contributes cos - i a s_j sin / omega).  The magnitudes are the
    square roots of ``u_from_x`` at x and -x, with x the pattern's
    minus-logit from log weights, so they stay finite at large N and
    |phi_up|^2 is ``pattern_projection`` to a few ulp.
    """
    n = params.n_env
    # Checked before the int cast, which would turn 1.5 into 1.
    spins = np.asarray(list(initial_spins))
    if spins.shape != (n,) or not np.all((spins == 1) | (spins == -1)):
        raise ValueError("initial spins must be N values of +1/-1")
    spins = spins.astype(int)
    x = _pattern_logit(params, alphas, t, pattern)

    def branch_phase(branch):
        phase = 0.0
        for j in range(1, n + 1):
            g = spin_amplitude(params, branch, j, t, int(spins[j - 1]), bool(pattern.flipped[j - 1]))
            if g != 0:
                phase += math.atan2(g.imag, g.real)
        return complex(math.cos(phase), math.sin(phase))

    up_amp = math.sqrt(u_from_x(x)) * branch_phase("up")
    down_amp = math.sqrt(u_from_x(-x)) * branch_phase("down")
    phase_up_coeff = alphas.a_up / abs(alphas.a_up) if alphas.a_up != 0 else 1.0
    phase_down_coeff = alphas.a_down / abs(alphas.a_down) if alphas.a_down != 0 else 1.0
    return np.array([up_amp * phase_up_coeff, down_amp * phase_down_coeff], dtype=complex)
