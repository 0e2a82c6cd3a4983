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
* reduce to flip counts when all h_j are equal (N + 1 atoms, any N; a
  point evaluates only the O(sqrt N) counts a tail bound lets reach
  1e-300, ``binomial_spans``),
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
    FlipProfile,
    ModelParams,
    SystemAmplitudes,
    branch_flip_profile,
    pattern_log_weight,
    spin_amplitude,
)

ENUMERATION_CAP = 20
# Bytes of one grid point's sampled u, 8 per draw: ``cli`` rejects a
# sampled config whose samples exceed it (2^25 = 33,554,432 draws).
SAMPLE_BYTES_CAP = 256 << 20
WEIGHT_FLOOR = 1e-300
# Nats by which a binomial term outside its branch's flip-count span
# (``binomial_spans``) is proven to lie under WEIGHT_FLOOR / 2: e^8, about
# 3000, against a float error of about 1e-8 nats in a computed log weight.
WINDOW_MARGIN = 8.0
U_MERGE_TOL = 1e-12
SAMPLE_CHUNK = 8192
# Bytes of a chunk's flip mask, one per (draw, spin): a chunk's draws go
# through it in tiles of budget // N draws (one tile up to N = 512).
SAMPLE_MASK_BYTES = 4 << 20
# Bytes per spin of a sampled point besides u, for ``cli``'s estimate,
# with headroom over tracemalloc peaks measured at N = 2e5 and 1e6:
# SAMPLE_SPIN_BYTES once, for the couplings, both branch profiles and
# the temporaries that build them (130 measured), and
# SAMPLE_THREAD_SPIN_BYTES per running chunk, for its flip table and its
# one-row blocks of uniforms, flip probabilities and compares (33
# measured), next to its SAMPLE_MASK_BYTES mask.  ``cli`` rejects a
# sampled config whose estimate exceeds SAMPLE_ARRAYS_CAP (about
# 1.5 million spins at one worker).
SAMPLE_SPIN_BYTES = 136
SAMPLE_THREAD_SPIN_BYTES = 40
SAMPLE_ARRAYS_CAP = 256 << 20
# Atoms per tile of a grid block: exact enumeration evaluates
# max(1, GRID_BLOCK_ATOMS >> B) grid times at once, B = min(N, TILE_BITS).
# Enough times to spread numpy's per-call cost at small N (8 times at
# N = 10), while each block array stays at 64 KiB (8192 float64) up to
# N = 13.  A grid allocates one block workspace of three such arrays
# (``BlockWorkspace``), of min(block, grid length) times, and every
# block writes into it: the arrays are allocated and their pages faulted
# in once per grid, not once per block.  A block's peak, the workspace
# and numpy's buffer for the doubling's broadcast adds, stays at about
# 3.5 block arrays.  A block's profile rows are sliced from its chunk's
# table (below).
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
# Pattern bits B of a tile of an exact grid, at most N.  A block of T
# times runs in 2^(N - B) tiles of 2^B consecutive pattern codes
# (``_block_masses``), one tile up to N = TILE_BITS.  Above it a block is
# one time and the grid's arrays are five tile arrays of 256 KiB, within
# a 2 MiB L2 cache, whatever N is.  A row's class masses are its tile
# sums combined in numpy's own pairwise tree (``tile_tree_sum``), so the
# bits do not depend on this constant (any value from 7 up gives them).
TILE_BITS = 15


class DegenerateOutcomeError(ValueError):
    """Both branch weights vanished: the outcome state is undefined at this time."""


@dataclass
class ProjectionDistribution:
    """Distribution of the up-projection u at one time, as parallel arrays.

    kind is 'exact' (one atom per flip pattern), 'binomial' (one atom
    per flip count, equal-u atoms merged) or 'sampled' (one atom per
    draw; 'sampled' weights are a read-only broadcast of 1/len).
    pattern_codes, when present, give the flip pattern of each atom as a
    bit code (bit i set = spin i+1 flipped); only ``enumerate_outcomes``
    fills them.  dropped reports atoms removed for carrying weight below
    1e-300; they are excluded from normalization checks.
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

    The branch totals are mixed as ``_mix_block`` mixes them, so
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
    """The arrays that a block of T times at N spins is enumerated into.

    Three float buffers of T * 2^N entries hold every block-sized array
    of a block; a grid allocates them once (``block_workspace``) and
    reuses them for every block.  So a block allocates nothing that
    grows with 2^N, and the next block overwrites the last one's
    results.  With numpy's own buffer for the broadcast adds of a T > 1
    doubling (up to half a block), a block's peak stays within about 3.5
    block arrays.  An exact grid's workspace holds one tile of B =
    min(N, TILE_BITS) pattern bits, and every tile of every block writes
    into it (``_block_masses``).  Views on the buffers:

    * acc: the 2^N x T pattern-major doubling accumulator, whose bytes
      read as T x 2^N are the pattern weights (``weight``);
    * log_up, log_down: T x 2^N branch log-weights
      (``pattern_log_weights``); ``_mix_block`` turns log_down into x;
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


def _check_enumeration_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise EnvironmentTooLarge(f"N={n} exceeds enumeration cap {ENUMERATION_CAP} (2^N atoms)")


def block_workspace(n: int, times: int) -> BlockWorkspace:
    """A ``BlockWorkspace`` for blocks of up to ``times`` times at N = n.

    The enumeration cap is checked before anything is allocated.
    """
    _check_enumeration_cap(n)
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
    out: np.ndarray,
    acc: np.ndarray,
    prefix: np.ndarray,
) -> np.ndarray:
    """Log-weights of all 2^N flip patterns at each of T times, by subset doubling, into out.

    log_keep and log_flip are T x N; column c of the T x 2^N result out
    is the pattern whose bit i is set when spin i+1 flipped.  The
    doubling runs in the pattern-major 2^N x T accumulator acc
    (``_double``), and one transposing copy writes the row-major result;
    at T = 1 both layouts are the same memory, so the doubling runs in
    out itself and acc is not touched.  prefix is the 2^k x T
    pattern-major table of the sums over spins 1..k at the same times
    (such as a slice of ``low_spin_table``); the doubling starts from it
    at spin k + 1.  A k = 0 prefix is one row of zeros, np.zeros((1, T)).

    The layout moves where a sum is stored, not how it is formed: each
    entry is still the left-to-right sum over spins 1..N, from any k, so
    it equals a spin-by-spin loop bit for bit; -inf factors stay -inf
    (no +inf term exists, so inf - inf never occurs).

    The left-to-right order is load-bearing: ``core.pattern_log_weight``
    sums a sampled or single pattern's logs in the same order, so its u
    coincides bit for bit with the enumerated u of the pattern, which
    the sampler-vs-enumeration KS check (acceptance criterion 3) relies
    on.  A split into two half-patterns (meet in the middle) rounds
    differently and must change that sum with it.
    """
    t, n = log_keep.shape
    if t == 1:
        acc = out.reshape(1 << n, 1)
    acc[: prefix.shape[0]] = prefix
    _double(acc, log_keep.T, log_flip.T, prefix.shape[0].bit_length() - 1)
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


def _mix_block(alphas: SystemAmplitudes, ws: BlockWorkspace) -> tuple:
    """(x, weight, keep) of every flip pattern of a block, each T x 2^N, from its branch log-weights.

    ws.log_up and ws.log_down hold both branches' ``pattern_log_weights``
    at the block's T times; columns are pattern codes.  x = log(w_down
    W_down) - log(w_up W_up) is minus the logit of u (``u_from_x`` gives
    u) and is formed in place in ws.log_down; the weights go to
    ws.weight, and keep, in ws.keep, marks the atoms with weight at or
    above 1e-300.  x is meaningful on kept atoms only: a dropped atom
    may have both branch weights zero and x NaN.

    The weights and x are formed one contiguous half of the block at a
    time, and each half's down weights go to memory that is free by
    then: the weights' second half, then the up logs' first half.  So
    mixing needs no block-sized array beyond the workspace's three.
    """
    lw_up, lw_down = _log_mixture_weights(alphas)
    log_wd = ws.log_down
    # The accumulator is free from here on and takes the weights.
    flat_weight, flat_wu, flat_wd = (a.reshape(-1) for a in (ws.weight, ws.log_up, log_wd))
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
    The one-time block [t] is formed as on the exact grid, in a
    workspace of its own (``block_workspace`` checks the enumeration cap
    before allocating it): both branches' log-weights are doubled from
    a low-spin table of their own, and ``_mix_block`` mixes them.
    """
    n = params.n_env
    ws = block_workspace(n, 1)
    rows = branch_log_rows(params, np.array([t]))
    low = low_spin_table(rows, _low_spins(n, 1))
    for branch, log in enumerate((ws.log_up, ws.log_down)):
        pattern_log_weights(*rows[branch], log, ws.acc, low[:, branch])
    x, weight, keep = (a[0] for a in _mix_block(alphas, ws))
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
    enumeration cap is checked and one ``BlockWorkspace`` of B =
    min(N, TILE_BITS) pattern bits allocated before anything else.  The
    grid runs in blocks of max(1, GRID_BLOCK_ATOMS >> B) consecutive
    times, and each block's 2^N patterns in 2^(N - B) tiles of 2^B
    (``_block_masses``): one tile up to N = TILE_BITS.  Each chunk of
    blocks (``PROFILE_CHUNK_ENTRIES``) builds one ``branch_log_rows``
    table and one ``low_spin_table`` (``LOW_SPIN_ENTRIES``), and a block
    takes its view of both.  Each row's masses are one pairwise sum over
    the row with the dropped and off-class weights zeroed, formed tile by
    tile, so they match the per-point ``enumerate_outcomes`` +
    ``observables.class_probabilities`` values to a few ulp, not bit for
    bit (that route sums only the kept class atoms).  Rows are
    independent: the bits do not depend on the block, chunk or tile size.
    """
    n = params.n_env
    _check_enumeration_cap(n)
    bits = min(n, TILE_BITS)
    step = max(1, GRID_BLOCK_ATOMS >> bits)
    workspace = block_workspace(bits, min(step, times.size))
    # Both branches' sums over spins 1..B, which every tile continues; up to N = B the
    # workspace's own branch log-weights serve.
    base = np.empty((2, workspace.times, 1 << bits)) if n > bits else None
    masses = np.empty((3, times.size))
    dropped = 0
    chunk = step * max(1, PROFILE_CHUNK_ENTRIES // (step * n))
    for start in range(0, times.size, chunk):
        table = branch_log_rows(params, times[start : start + chunk])
        size = table.shape[2]
        low = low_spin_table(table, min(bits, _low_spins(n, size)))
        for first in range(0, size, step):
            span = slice(first, first + step)
            out = masses[:2, start + first : start + first + step]
            dropped += _block_masses(
                alphas, table[:, :, span], workspace, low[:, :, span], base, cutoffs, out
            )
    # The complement can land a few ulp below zero; keep it in range.
    np.maximum(0.0, 1.0 - masses[0] - masses[1], out=masses[2])
    return masses, dropped


def _block_masses(alphas, rows, workspace: BlockWorkspace, prefix, base, cutoffs, out) -> int:
    """A block's up and down masses into out (2 x T), and its dropped count.

    rows is the block's (2, 2, T, N) ``branch_log_rows`` view, prefix its
    2^k x 2 x T low-spin slice, workspace a grid's workspace of B pattern
    bits and base its 2 x T x 2^B buffer, or None at N = B.  Both
    branches' sums over spins 1..B are doubled once into base (at N = B,
    into the workspace's log_up and log_down).  Tile j holds the pattern
    codes [j 2^B, (j + 1) 2^B), whose spins B + 1..N are the bits of j:
    each branch adds their T x 1 log factors to its base one spin at a
    time, which is the left-to-right sum a whole-block doubling forms.
    ``_mix_block`` runs on the tile, and each row's class masses are one
    pairwise sum over the row with the dropped and off-class weights
    zeroed; x, dead once the class masks are formed, takes each class's
    weights in turn.

    numpy's row sum is the pairwise sum 0.0 + pairwise(row), whose tree
    halves a 2^N row down to 128-entry leaves; the tile sums, combined
    in that tree in code order (``tile_tree_sum``), are its subtrees, and
    0.0 + s = s for the non-negative masses.  So masses and the dropped
    count are the whole-block bits.  A row with no kept atom raises.
    """
    ws = workspace.sized(rows.shape[2])
    bits, times = ws.n, ws.times
    high = rows.shape[3] - bits
    logs = (ws.log_up, ws.log_down)
    starts = logs if base is None else base[:, :times]
    for branch, start in enumerate(starts):
        pattern_log_weights(*rows[branch, :, :, :bits], start, ws.acc, prefix[:, branch])
    c_up, c_down = cutoffs
    sums = np.empty((2, times, 1 << high))
    found, every_row = np.zeros(times, bool), np.arange(times)
    kept = 0
    for tile in range(1 << high):
        # Bit s of the tile is spin B + 1 + s: its T x 1 keep or flip log factors.
        for s in range(high):
            for branch, log in enumerate(logs):
                factor = rows[branch, tile >> s & 1, :, bits + s, None]
                np.add(log if s else starts[branch], factor, out=log)
        x, weight, keep = _mix_block(alphas, ws)
        kept += int(np.count_nonzero(keep))
        # argmax stops at each row's first kept atom; in a row that keeps none it gives atom 0.
        found |= keep[every_row, keep.argmax(axis=1)]
        up = np.less_equal(x, c_up, out=ws.up)
        up &= keep
        down = np.greater(x, c_down, out=ws.down)
        down &= keep
        # The mask is copied into x as 0/1 and multiplied in place, which needs no cast buffer.
        for mass, mask in zip(sums[:, :, tile], (up, down)):
            np.copyto(x, mask)
            x *= weight
            x.sum(axis=1, out=mass)
    if not found.all():
        raise ValueError("empty distribution")
    out[:] = tile_tree_sum(sums)
    return (times << rows.shape[3]) - kept


def tile_tree_sum(sums: np.ndarray) -> np.ndarray:
    """Sums over the last axis, whose length is a power of two, as a balanced binary tree in order.

    Adjacent entries are added level by level, so a row's 2^m tile sums
    of 2^b >= 128 entries each combine into numpy's own pairwise sum of
    the whole row, bit for bit.
    """
    while sums.shape[-1] > 1:
        sums = sums[..., 0::2] + sums[..., 1::2]
    return sums[..., 0]


def log_factorials(n: int) -> np.ndarray:
    """log k! = lgamma(k + 1) for k = 0..n, from math.lgamma; independent of time."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)


def binomial_spin(params: ModelParams) -> ModelParams:
    """The one-spin model that carries every spin's profile when all h_j are equal."""
    if not params.equal_couplings:
        raise ValueError("binomial reduction requires all couplings equal")
    return ModelParams(params.delta, params.h[:1], params.beta)


def _branch_span(n: int, weight: float, profile: FlipProfile) -> tuple[int, int] | None:
    """The flip counts [lo, hi] of one branch's terms that can reach the weight floor, or None.

    With keep and flip the one-spin floats, s = keep + flip and p = flip / s,
    the count-k term is weight * s^n * Bin(k; n, p).  The Chernoff bound
    Bin(k; n, p) <= exp(-n D(k/n || p)), relaxed by Pinsker's inequality
    D >= 2 (k/n - p)^2 (Chernoff 1952, Hoeffding 1963), puts it at most
    exp(-2 (k - np)^2 / n).  So outside |k - np| <= r, r^2 = n / 2 *
    (log weight + n log s - log(WEIGHT_FLOOR / 2) + WINDOW_MARGIN), the
    term is below WEIGHT_FLOOR / 2 * exp(-WINDOW_MARGIN).  A zero weight
    or a negative radicand leaves no count.
    """
    if weight == 0.0:
        return None
    keep, flip = float(profile.keep[0]), float(profile.flip[0])
    s = keep + flip
    radicand = n / 2 * (
        math.log(weight) + n * math.log(s) - math.log(WEIGHT_FLOOR / 2) + WINDOW_MARGIN
    )
    if radicand < 0.0:
        return None
    center, r = n * (flip / s), math.sqrt(radicand)
    return max(0, math.floor(center - r)), min(n, math.ceil(center + r))


def binomial_spans(
    n: int, alphas: SystemAmplitudes, up: FlipProfile, down: FlipProfile
) -> list[tuple[int, int]]:
    """Ascending, disjoint spans [lo, hi] of the flip counts whose weight can reach 1e-300.

    up and down are the one-spin profiles of both branches at one time.
    Each branch with positive weight gives one span (``_branch_span``);
    overlapping or adjacent spans are merged.  A count outside every span
    has both terms below WEIGHT_FLOOR / 2 * exp(-WINDOW_MARGIN), so its
    weight is below the floor by that margin.  One branch weighs at least
    1/2 and keep + flip = 1 to a few ulp, so its radicand is positive for
    any N below about 10^18: there is always a span.
    """
    spans = sorted(
        span
        for span in (_branch_span(n, alphas.w_up, up), _branch_span(n, alphas.w_down, down))
        if span is not None
    )
    if len(spans) == 2 and spans[1][0] <= spans[0][1] + 1:
        spans = [(spans[0][0], max(spans[0][1], spans[1][1]))]
    return spans


def binomial_outcomes(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    *,
    log_fact: np.ndarray | None = None,
) -> ProjectionDistribution:
    """Exact distribution for equal couplings, indexed by flip count.

    With all h_j equal the branch weight depends only on how many spins
    flipped, so the 2^N patterns collapse onto N + 1 atoms with binomial
    multiplicity, and one spin's profile serves them all.  Atoms whose u
    coincide within 1e-12 are merged, so an atom no longer names one
    flip count.  Agrees with enumerate_outcomes exactly (after the same
    merging) wherever both apply.  log_fact, when given, must be
    ``log_factorials(N)`` (shape (N + 1,), else ValueError); a grid
    builds it once for every point.  The one-spin model comes from
    ``binomial_spin(params)`` at each point, O(1) for the broadcast h
    that equal couplings from a scalar h hold.  The table is the route's
    one array of N + 1 floats.

    Only the flip counts in ``binomial_spans`` are evaluated, O(sqrt N)
    of them (about 12% per branch at N = 10^5, all at N = 80).  A tail
    bound proves that every other count's term lies under 1e-300 / 2 by
    WINDOW_MARGIN = 8 nats on each branch, far more than the float error
    of a computed log weight (about 1e-8 nats at N = 10^6), so the full
    range would drop it too; it is counted in ``dropped`` without being
    computed.

    Each span is evaluated on its own (``_span_atoms``), in four float
    arrays of its length besides log_fact, all freed before the merge
    of the kept atoms.  One holds k in ascending order and one N - k,
    both exact.  The k buffer takes the down branch's log weight
    (N - k) log keep + k log flip, and the N - k buffer its keep term and
    then its weighted term; the up branch's log weight takes the third,
    and the fourth its flip term, then the span's log C(N, k) =
    (log N! - log k!) - log (N - k)!, then the up and the mixed weight.
    The zero-count term of each sum is 0.0 (not 0 * -inf), and every
    kept entry takes the same IEEE operations as the closed form
    (n - k) * log keep + k * log flip over all N + 1 counts, so u,
    weight, ``dropped`` and the merge are its bits.
    """
    n = params.n_env
    spin = binomial_spin(params)
    if log_fact is None:
        log_fact = log_factorials(n)
    elif log_fact.shape != (n + 1,):
        raise ValueError(f"log_fact has shape {log_fact.shape}, not ({n + 1},)")
    branches = _log_branch_pair(spin, alphas, t)
    spans = binomial_spans(n, alphas, *branches[:2])
    parts = [_span_atoms(n, alphas, branches, log_fact, lo, hi) for lo, hi in spans]
    u, weight = map(np.concatenate, zip(*parts))
    return merge_by_u(
        ProjectionDistribution(u=u, weight=weight, kind="binomial", dropped=n + 1 - u.size)
    )


def _span_atoms(n, alphas, branches, log_fact, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(u, weight) of the kept flip counts k = lo..hi of ``binomial_outcomes``, ascending in k.

    log_fact is ``log_factorials(n)``; the span's log C(n, k) is formed
    in the flip-term buffer once the up log weight has taken that term.
    """
    up, down, lw_up, lw_down = branches
    n_minus_k = np.arange(n - lo, n - hi - 1, -1, dtype=float)
    k = np.arange(lo, hi + 1, dtype=float)
    # 0 * (-inf) would be nan; the keep terms at k = N and the flip terms at k = 0 are set to 0.0.
    with np.errstate(invalid="ignore"):
        log_wu = np.multiply(n_minus_k, up.log_keep[0])
        flip_up = np.multiply(k, up.log_flip[0])
        log_wd = np.multiply(k, down.log_flip[0], out=k)
        keep_down = np.multiply(n_minus_k, down.log_keep[0], out=n_minus_k)
        if hi == n:
            log_wu[-1] = keep_down[-1] = 0.0
        if lo == 0:
            flip_up[0] = log_wd[0] = 0.0
        log_wu += flip_up
        log_wd += keep_down
    log_count = np.subtract(log_fact[n], log_fact[lo : hi + 1], out=flip_up)
    log_count -= log_fact[n - hi : n - lo + 1][::-1]
    with np.errstate(over="ignore"):
        down_weight = np.add(log_count, log_wd, out=keep_down)
        np.exp(down_weight, out=down_weight)
        down_weight *= alphas.w_down
        weight = np.add(log_count, log_wu, out=log_count)
        np.exp(weight, out=weight)
        weight *= alphas.w_up
        weight += down_weight
    keep = weight >= WEIGHT_FLOOR
    return u_from_x((lw_down + log_wd[keep]) - (lw_up + log_wu[keep])), weight[keep]


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


def _sample_chunk(branches, alphas, seed, chunk_index, u):
    """Draw one deterministic chunk of patterns and write their u values into ``u``.

    branches is the point's ``_log_branch_pair``, and u is the chunk's
    slice of the point's output: its length is the chunk's ``size``.
    The chunk stream is PCG64 seeded with SeedSequence(entropy=seed,
    spawn_key=(chunk_index,)); within a chunk the draw order is fixed:
    ``size`` uniforms pick the mixture branch, then size x N uniforms,
    row by row, pick the flips.  The draws go through in tiles of at
    most SAMPLE_MASK_BYTES // N patterns.  Within a tile the flip
    uniforms are drawn into a reused block of rows (about LOG_SUM_BLOCK
    floats), each row's flip probabilities are gathered from the two
    branch profiles by its branch index, and the compare goes into the
    tile's spin-major N x cols bool mask that both branch log-sums
    (``core.pattern_log_weight``) read.  The tile's row blocks are freed before those log-sums allocate
    theirs.  So the scratch is the mask, at most SAMPLE_MASK_BYTES, plus
    a few blocks, whatever N is, and every draw and u is the one a whole
    (size, N) block of uniforms would give.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    up, down, lw_up, lw_down = branches
    n, size = up.flip.size, u.size
    branch = (rng.random(size) < alphas.w_up).view(np.uint8)
    flip_table = np.stack((down.flip, up.flip))
    cols = max(1, min(size, SAMPLE_MASK_BYTES // n))
    rows = max(1, min(cols, LOG_SUM_BLOCK // n))
    mask = np.empty(n * cols, dtype=bool)
    for tile in range(0, size, cols):
        width = min(cols, size - tile)
        flips = mask[: n * width].reshape(n, width)
        draws = np.empty((rows, n))
        flip_prob = np.empty((rows, n))
        block = np.empty((rows, n), dtype=bool)
        for start in range(0, width, rows):
            m = min(rows, width - start)
            picks = branch[tile + start : tile + start + m]
            rng.random(out=draws[:m])
            np.take(flip_table, picks, axis=0, out=flip_prob[:m], mode="clip")
            np.less(draws[:m], flip_prob[:m], out=block[:m])
            flips[:, start : start + m] = block[:m].T
        del draws, flip_prob, block  # freed before the log-sums allocate their own blocks
        log_wu = pattern_log_weight(up, flips.T)
        log_wd = pattern_log_weight(down, flips.T)
        u[tile : tile + width] = u_from_x((lw_down + log_wd) - (lw_up + log_wu))


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
    stream SeedSequence(entropy=seed, spawn_key=(c,)) and writes its
    draws in place into slice c of the one output array u, so the output
    is byte-identical for any worker count.  A point holds one 8-byte u
    per draw plus each running chunk's scratch (``_sample_chunk``);
    'sampled' weights are a read-only broadcast of 1/len, one float.
    The branch profiles are computed once per call.  Every call runs its
    chunks through one pool of min(workers, chunks, usable CPUs)
    threads, so one worker is a pool of one thread.  A count or workers
    below 1 raises ValueError before any work.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    branches = _log_branch_pair(params, alphas, t)
    u = np.empty(count)
    chunks = range(-(-count // SAMPLE_CHUNK))

    def draw(c):
        _sample_chunk(branches, alphas, seed, c, u[c * SAMPLE_CHUNK : (c + 1) * SAMPLE_CHUNK])

    with ThreadPoolExecutor(max_workers=min(workers, len(chunks), _usable_cpus())) as pool:
        list(pool.map(draw, chunks))  # reading each result re-raises a chunk's error
    return ProjectionDistribution(u=u, weight=np.broadcast_to(1.0 / count, (count,)), kind="sampled")


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
