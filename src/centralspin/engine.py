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
# Bytes of a chunk's flip mask, one per (draw, spin): a chunk's draws go
# through it in tiles of budget // N draws (one tile up to N = 512).
SAMPLE_MASK_BYTES = 4 << 20
# Atoms per block of a grid evaluation: exact enumeration evaluates
# max(1, GRID_BLOCK_ATOMS >> N) grid times at once.  Enough times to
# spread numpy's per-call cost at small N (8 times at N = 10), while
# each block array stays at 64 KiB (8192 float64).  A grid allocates one
# block workspace of three such arrays (``BlockWorkspace``), of
# min(block, grid length) times, and every block writes into it: the
# arrays are allocated and their pages faulted in once per grid, not
# once per block (2 MiB each at N = 18, where a block is one time).  A
# block's peak, the workspace and numpy's buffer for the doubling's
# broadcast adds, stays at about 3.5 block arrays.  A block's profile
# rows are sliced from its chunk's table (below).
GRID_BLOCK_ATOMS = 8192
# Profile entries (times x N) per chunk of an exact grid: both branches'
# log profiles are built by one call each for a chunk of whole blocks
# with at most this many entries, or for one block where a block alone
# has more (N < 10).  From N = 10 on, the (2, 2, C, N) table then takes
# at most 8 KiB next to a block's arrays, so neither the table nor a
# run's peak grows with grid length.  At N = 10 a chunk is 3 blocks
# (24 times), which takes the figure presets' profile calls from two
# per block to two per three blocks.
PROFILE_CHUNK_ENTRIES = 256
# Entries of a chunk's low-spin table (``low_spin_table``, 16 KiB):
# each chunk doubles spins 1..k of both branches once at its C times, k
# the largest with 2^k * 2C entries within this bound (k = 5 at N = 10,
# C = 24; k = 6 at N = 18, C = 14), and each block continues its
# doubling from spin k + 1, two numpy calls fewer per spin and branch.
LOW_SPIN_ENTRIES = 2048


class DegenerateOutcomeError(ValueError):
    """Both branch weights vanished: the outcome state is undefined at this time."""


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


def branch_log_rows(params: ModelParams, times: np.ndarray) -> np.ndarray:
    """Both branches' per-spin log factors at a 1-D array of T times, as one (2, 2, T, N) table.

    table[b] is (log_keep, log_flip) of ``core.BRANCHES[b]``, each T x N
    with row k at times[k]; a block of consecutive times is the view
    table[:, :, block].  One ``branch_flip_profile`` call per branch,
    and row k is bit for bit the profile at times[k] alone, so any split
    of a grid into tables gives the same rows.
    """
    up = branch_flip_profile(params, "up", times)
    down = branch_flip_profile(params, "down", times)
    return np.stack(((up.log_keep, up.log_flip), (down.log_keep, down.log_flip)))


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
    DegenerateOutcomeError.  Only the single-pattern APIs get here: the
    grid engines drop or never draw a pattern with both weights zero.
    """
    if len(pattern) != params.n_env:
        raise ValueError("pattern length does not match environment size")
    up, down, lw_up, lw_down = _log_branch_pair(params, alphas, t)
    flipped = pattern.flipped
    x = (lw_down + pattern_log_weight(down, flipped)) - (lw_up + pattern_log_weight(up, flipped))
    if math.isnan(x):
        raise DegenerateOutcomeError(f"both branch weights vanish for this pattern at t={t}")
    return x


def pattern_projection(
    params: ModelParams, alphas: SystemAmplitudes, t: float, pattern: FlipPattern
) -> float:
    """Up-projection u of the trajectory state selected by a flip pattern.

    Raises DegenerateOutcomeError when both branch weights are exactly
    zero (a measure-zero set of times); never returns NaN.
    """
    return float(u_from_x(_pattern_logit(params, alphas, t, pattern)))


class BlockWorkspace:
    """The arrays ``enumerate_block`` writes a block of T times at N spins into.

    Three float buffers of T * 2^N entries hold every block-sized array
    of a block; a grid allocates them once (``block_workspace``) and
    reuses them for every block.  Views on the buffers:

    * acc: the 2^N x T pattern-major doubling accumulator, whose bytes
      read as T x 2^N are the pattern weights (``weight``);
    * log_up, log_down: T x 2^N branch log-weights; log_down becomes x;
    * keep, up, down: T x 2^N bool masks in the bytes of log_up, written
      once x is formed.

    ``sized(T')`` gives the views of a shorter final block on the same
    buffers; a block of the full T uses the views built here.
    """

    def __init__(self, buffers: tuple, n: int, times: int):
        self.buffers, self.n, self.times = buffers, n, times
        acc, log_up, log_down = (b[: times << n] for b in buffers)
        shape = (times, 1 << n)
        self.acc = acc.reshape(1 << n, times)
        self.weight = acc.reshape(shape)
        self.log_up = log_up.reshape(shape)
        self.log_down = log_down.reshape(shape)
        self.keep, self.up, self.down = log_up.view(bool)[: 3 * acc.size].reshape((3,) + shape)

    def sized(self, times: int) -> "BlockWorkspace":
        """Views for a block of ``times`` times, at most the workspace's own T."""
        if times == self.times:
            return self
        return BlockWorkspace(self.buffers, self.n, times)


def block_workspace(n: int, times: int) -> BlockWorkspace:
    """A ``BlockWorkspace`` for blocks of up to ``times`` times at N = n.

    The enumeration cap is checked before anything is allocated.
    """
    if n > ENUMERATION_CAP:
        raise EnvironmentTooLarge(f"N={n} exceeds enumeration cap {ENUMERATION_CAP} (2^N atoms)")
    size = times << n
    return BlockWorkspace((np.empty(size), np.empty(size), np.empty(size)), n, times)


def _double(acc: np.ndarray, keep: np.ndarray, flip: np.ndarray, start: int) -> np.ndarray:
    """Continue the subset doubling of the pattern-major acc from spin start + 1.

    acc is 2^N x T with rows [0, 2^start) holding the sums over spins
    1..start; keep and flip are the N x T spin-major log factors.  Spin
    i + 1 doubles the rows in place: rows [0, 2^i) keep it, rows
    [2^i, 2^(i+1)) flip it.  Both halves are contiguous and disjoint,
    so numpy adds them with no overlap copy.
    """
    for i in range(start, keep.shape[0]):
        width = 1 << i
        np.add(acc[:width], flip[i], out=acc[width : 2 * width])
        acc[:width] += keep[i]
    return acc


def pattern_log_weights(
    log_keep: np.ndarray,
    log_flip: np.ndarray,
    out: np.ndarray | None = None,
    *,
    acc: np.ndarray | None = None,
    prefix: np.ndarray | None = None,
) -> np.ndarray:
    """Log-weights of all 2^N flip patterns at each of T times, by subset doubling.

    log_keep and log_flip are T x N; column c of the T x 2^N result is
    the pattern whose bit i is set when spin i+1 flipped.  The doubling
    runs in a pattern-major 2^N x T accumulator (``_double``), and one
    transposing copy writes the row-major result; at T = 1 both layouts
    are the same memory, so the doubling runs in the result itself and
    nothing is copied.  out (T x 2^N) and acc (2^N x T, used for T > 1)
    are allocated when not given.  prefix, when given, is the 2^k x T
    pattern-major table of the sums over spins 1..k at the same times
    (such as a slice of ``low_spin_table``); the doubling starts from it
    at spin k + 1.

    The layout moves where a sum is stored, not how it is formed: each
    entry is still the left-to-right sum over spins 1..N, from a prefix
    or not, so it equals a spin-by-spin loop bit for bit; -inf factors
    stay -inf (no +inf term exists, so inf - inf never occurs).

    The left-to-right order is load-bearing: ``core.pattern_log_weight``
    sums a sampled or single pattern's logs in the same order, so its u
    coincides bit for bit with the enumerated u of the pattern, which
    the sampler-vs-enumeration KS check (acceptance criterion 3) relies
    on.  A split into two half-patterns (meet in the middle) rounds
    differently and must change that sum with it.
    """
    t, n = log_keep.shape
    if out is None:
        out = np.empty((t, 1 << n))
    if t == 1:
        acc = out.reshape(1 << n, 1)
    elif acc is None:
        acc = np.empty((1 << n, t))
    if prefix is None:
        acc[0] = 0.0
        start = 0
    else:
        acc[: prefix.shape[0]] = prefix
        start = prefix.shape[0].bit_length() - 1
    _double(acc, log_keep.T, log_flip.T, start)
    if t > 1:
        np.copyto(out, acc.T)
    return out


def low_spin_table(table: np.ndarray, k: int) -> np.ndarray:
    """Sums over spins 1..k of all 2^k low patterns of both branches, at a table's C times.

    table is a ``branch_log_rows`` table.  One pattern-major 2^k x 2C
    doubling, returned as 2^k x 2 x C: [:, 0] is the up branch and
    [:, 1] the down one, and a block's columns of either are the
    ``prefix`` of its ``pattern_log_weights``.
    """
    keep, flip = (np.concatenate(table[:, field, :, :k]).T for field in (0, 1))
    acc = np.empty((1 << k, keep.shape[1]))
    acc[0] = 0.0
    return _double(acc, keep, flip, 0).reshape(1 << k, 2, -1)


def _low_spins(n: int, times: int) -> int:
    """Spins k of a chunk's low-spin table: the largest k <= n with 2^k * 2 * times <= the bound."""
    return min(n, max(0, (LOW_SPIN_ENTRIES // (2 * times)).bit_length() - 1))


def enumerate_block(
    alphas: SystemAmplitudes,
    rows: np.ndarray,
    workspace: BlockWorkspace,
    prefix: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, weight, keep) of every flip pattern at a block of T times, each T x 2^N.

    rows is the (2, 2, T, N) table of both branches' log factors at the
    block's times (``branch_log_rows``, or the view of a block of a
    longer table).  Columns are pattern codes.  x = log(w_down W_down) -
    log(w_up W_up) is minus the logit of u (``u_from_x`` gives u); keep
    marks the atoms with weight at or above 1e-300.  x is meaningful on
    kept atoms only: a dropped atom may have both branch weights zero
    and x NaN.

    Every block-sized array is a view of workspace (a ``BlockWorkspace``
    of T times at the rows' N), so a block allocates nothing that grows
    with 2^N, and the next block overwrites the three results.  The
    weights and x are formed one contiguous half of the block at a
    time, and each half's down weights go to memory that is free by
    then: the weights' second half, then the up logs' first half.  So
    the workspace is three block arrays, and numpy's own buffer for the
    broadcast adds of a T > 1 doubling (up to half a block) stays within
    3.5.  prefix is the block's 2^k x 2 x T slice of ``low_spin_table``
    (any k from 0 to N gives the same bits): both doublings continue
    from it at spin k + 1.
    """
    ws = workspace
    lw_up, lw_down = _log_mixture_weights(alphas)
    log_wu = pattern_log_weights(*rows[0], ws.log_up, acc=ws.acc, prefix=prefix[:, 0])
    log_wd = pattern_log_weights(*rows[1], ws.log_down, acc=ws.acc, prefix=prefix[:, 1])
    # The accumulator is free from here on and takes the weights.
    flat_weight, flat_wu, flat_wd = (a.reshape(-1) for a in (ws.weight, log_wu, log_wd))
    half = flat_weight.size // 2
    first, second = slice(None, half), slice(half, None)
    for part, spare in ((first, flat_weight[second]), (second, flat_wu[first])):
        down_weight = np.exp(flat_wd[part], out=spare)
        down_weight *= alphas.w_down
        weight = np.exp(flat_wu[part], out=flat_weight[part])
        weight *= alphas.w_up
        weight += down_weight
        # x in place in the down logs: (log_wd + lw_down) - (log_wu + lw_up).
        flat_wu[part] += lw_up
        flat_wd[part] += lw_down
        with np.errstate(invalid="ignore"):
            flat_wd[part] -= flat_wu[part]
    return log_wd, ws.weight, np.greater_equal(ws.weight, WEIGHT_FLOOR, out=ws.keep)


def enumerate_outcomes(
    params: ModelParams, alphas: SystemAmplitudes, t: float
) -> ProjectionDistribution:
    """Exact distribution with one atom per flip pattern (2^N of them).

    The initial-state marginal drops out because squared per-spin
    amplitudes depend only on d_j, so the result is independent of the
    bath occupation and of beta.  Atoms with weight below 1e-300
    (including exact zeros) are dropped and counted in ``dropped``.
    This is ``enumerate_block`` on the one-time block [t], in a
    workspace and with a low-spin table of its own.
    """
    n = params.n_env
    workspace = block_workspace(n, 1)
    rows = branch_log_rows(params, np.array([t]))
    low = low_spin_table(rows, _low_spins(n, 1))
    x, weight, keep = (a[0] for a in enumerate_block(alphas, rows, workspace, low))
    return ProjectionDistribution(
        u=u_from_x(x[keep]),
        weight=weight[keep],
        kind="exact",
        pattern_codes=np.flatnonzero(keep),
        dropped=int(np.count_nonzero(~keep)),
    )


def exact_class_masses(
    params: ModelParams,
    alphas: SystemAmplitudes,
    times: np.ndarray,
    cutoffs: tuple[float, float],
) -> tuple[np.ndarray, int]:
    """(3, T) class masses (P_up, P_down, P_q) and the dropped-atom count of a grid, by enumeration.

    times is a checked 1-D grid and cutoffs are
    ``observables.logit_cutoffs(eps)``: an atom is up when x <= c_up and
    down when x > c_down, which is the class its u gives.  The
    enumeration cap is checked and one ``BlockWorkspace`` allocated
    before anything else; the grid then runs in blocks of
    max(1, GRID_BLOCK_ATOMS >> N) consecutive times.  Each chunk of
    blocks (``PROFILE_CHUNK_ENTRIES``) builds one ``branch_log_rows``
    table and one ``low_spin_table`` (``LOW_SPIN_ENTRIES``), and each
    block is ``enumerate_block`` on its view of both.  Each row's masses
    are one pairwise sum over the block row with the dropped and
    off-class weights zeroed, so they match the per-point
    ``enumerate_outcomes`` + ``observables.class_probabilities`` values
    to a few ulp, not bit for bit (that route sums only the kept class
    atoms).  Rows are independent: the bits do not depend on the block
    or chunk size.
    """
    n = params.n_env
    step = max(1, GRID_BLOCK_ATOMS >> n)
    workspace = block_workspace(n, min(step, times.size))
    c_up, c_down = cutoffs
    masses = np.empty((3, times.size))
    dropped = 0
    chunk = step * max(1, PROFILE_CHUNK_ENTRIES // (step * n))
    for start in range(0, times.size, chunk):
        table = branch_log_rows(params, times[start : start + chunk])
        size = table.shape[2]
        low = low_spin_table(table, _low_spins(n, size))
        for first in range(0, size, step):
            span = slice(first, first + step)
            rows = table[:, :, span]
            ws = workspace.sized(rows.shape[2])
            x, weight, keep = enumerate_block(alphas, rows, ws, low[:, :, span])
            if not np.all(np.any(keep, axis=1)):
                raise ValueError("empty distribution")
            dropped += keep.size - int(np.count_nonzero(keep))
            up = np.less_equal(x, c_up, out=ws.up)
            up &= keep
            down = np.greater(x, c_down, out=ws.down)
            down &= keep
            # x is dead: it takes the weights of each class, zero elsewhere, in turn.
            # The mask is copied in as 0/1 and multiplied in place, which needs no
            # cast buffer; each row is then one pairwise sum.
            for mass, mask in zip(masses[:2, start + first : start + first + step], (up, down)):
                np.copyto(x, mask)
                x *= weight
                x.sum(axis=1, out=mass)
    # The complement can land a few ulp below zero; keep it in range.
    np.maximum(0.0, 1.0 - masses[0] - masses[1], out=masses[2])
    return masses, dropped


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
    The draws go through in tiles of at most SAMPLE_MASK_BYTES // N
    patterns.  Within a tile the flip uniforms are drawn into a reused
    block of rows (about LOG_SUM_BLOCK floats), each row's flip
    probabilities are gathered from the two branch profiles by its
    branch index, and the compare goes into the tile's spin-major N x
    cols bool mask that both branch log-sums (``core.pattern_log_weight``)
    read.  So the scratch is the mask, at most SAMPLE_MASK_BYTES, plus a
    few blocks, whatever N is, and every draw and u is the one a whole
    (size, N) block of uniforms would give.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    up, down, lw_up, lw_down = branches
    n = up.flip.size
    branch = (rng.random(size) < alphas.w_up).view(np.uint8)
    flip_table = np.stack((down.flip, up.flip))
    cols = max(1, min(size, SAMPLE_MASK_BYTES // n))
    rows = max(1, min(cols, LOG_SUM_BLOCK // n))
    draws = np.empty((rows, n))
    flip_prob = np.empty((rows, n))
    block = np.empty((rows, n), dtype=bool)
    mask = np.empty(n * cols, dtype=bool)
    u = np.empty(size)
    for tile in range(0, size, cols):
        width = min(cols, size - tile)
        flips = mask[: n * width].reshape(n, width)
        for start in range(0, width, rows):
            m = min(rows, width - start)
            picks = branch[tile + start : tile + start + m]
            rng.random(out=draws[:m])
            np.take(flip_table, picks, axis=0, out=flip_prob[:m], mode="clip")
            np.less(draws[:m], flip_prob[:m], out=block[:m])
            flips[:, start : start + m] = block[:m].T
        log_wu = pattern_log_weight(up, flips.T)
        log_wd = pattern_log_weight(down, flips.T)
        u[tile : tile + width] = u_from_x((lw_down + log_wd) - (lw_up + log_wu))
    return u


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
