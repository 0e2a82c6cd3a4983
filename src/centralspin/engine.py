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
  1e-300, ``binomial_spans`` at the radius of ``count_span``, and a
  grid evaluates a block of consecutive times in one set of ufunc calls
  and one merge into a list of the times' distributions,
  ``BinomialGrid``),
* draw patterns directly from the mixture (any N, exact sampling).

All pattern weights accumulate in log domain; u is evaluated through
the logit so it comes out finite or exactly 0/1 even at N = 80.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_SUM_BLOCK,
    EnvironmentTooLarge,
    FlipPattern,
    FlipProfile,
    ModelParams,
    SpinConstants,
    SystemAmplitudes,
    branch_flip_profile,
    checked_constants,
    flip_squares,
    pattern_log_weight,
    spin_amplitude,
)

ENUMERATION_CAP = 20
# Bytes that one array or estimate of a run may take: ``cli`` rejects a
# config whose results, ``cli.RESULT_POINT_BYTES`` per grid point and
# ``cli.RESULT_HISTOGRAM_BYTES`` per histogram time (447,392 points), a
# sampled config whose u, 8 bytes per draw (2^25 = 33,554,432 draws), or
# whose N-sized arrays (SAMPLE_SPIN_BYTES below) exceed it, a binomial
# config whose table log k!, 8 (N + 1) bytes (N <= 33,554,431), does,
# and an oracle-check whose draws (``selfcheck.ORACLE_DRAW_BYTES`` each) do.
ARRAY_BYTES_CAP = 256 << 20
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
# with headroom over tracemalloc peaks measured at N = 2e5 and 1e6.  A
# point builds its profiles, then draws its chunks; the estimate is the
# larger of the two phases.  Building peaks at SAMPLE_SPIN_BYTES, for
# the couplings, both branch profiles and the temporaries that build
# them (129-133 measured).  Drawing holds SAMPLE_HELD_SPIN_BYTES, the
# couplings and both profiles (72 measured), plus per running chunk
# SAMPLE_THREAD_SPIN_BYTES, for its flip table and its one-row blocks of
# uniforms, flip probabilities and compares (33 measured), next to its
# SAMPLE_MASK_BYTES mask.  ``cli`` rejects a sampled config whose
# estimate exceeds ARRAY_BYTES_CAP (about 1.97 million spins at one
# worker).
SAMPLE_SPIN_BYTES = 136
SAMPLE_HELD_SPIN_BYTES = 80
SAMPLE_THREAD_SPIN_BYTES = 40
# Atoms per tile of a grid block: exact enumeration evaluates
# max(1, GRID_BLOCK_ATOMS >> B) grid times at once, B = min(N, TILE_BITS).
# Enough times to spread numpy's per-call cost at small N (12 times at
# N = 10), while each block array stays at most 96 KiB (12288 float64) up
# to N = 13.  A grid allocates one block workspace of three such arrays
# (``BlockWorkspace``), of min(block, grid length) times, and every
# block writes into it: the arrays are allocated and their pages faulted
# in once per grid, not once per block.  A block's peak is the
# workspace and numpy's buffers of at most DOUBLING_BUFSIZE elements.  A
# block's profile rows are sliced from its chunk's table (below).
# 16384- and 32768-atom blocks run ``figures`` 12% and 21% faster but
# raise its peak memory 17% and 100% (ROADMAP, "Measured to pay").
GRID_BLOCK_ATOMS = 12288
# Entries (times x flip counts) of a binomial grid's block: a grid
# evaluates max(1, BINOMIAL_BLOCK_ENTRIES // (N + 1)) consecutive times at
# once (``BinomialGrid``): 25 at N = 80, and one from N = 1024 on, where
# two times' counts exceed the budget.  A block's B x W arrays, four
# floats per entry, and the kept atoms' merge stay below an exact block's
# three GRID_BLOCK_ATOMS arrays: ``figures``' N = 80 run peaks at about
# 130 KB, its N = 10 exact run at about 350 KB.
BINOMIAL_BLOCK_ENTRIES = GRID_BLOCK_ATOMS // 6
# Elements of numpy's ufunc buffer while an exact route runs
# (``_grid_state``, set once per grid), so ``pattern_log_weights``
# doubles at this size.  numpy buffers an add's broadcast factors and,
# in steps narrower than the buffer, its strided output, one buffer per
# operand: at the default 8192 elements one N = 10, T = 12 doubling
# mallocs 130 KiB (tracemalloc, numpy 2.4), and a one-block N = 10 grid
# peaks at 463 KB instead of 340 KB.  At 512 the doubling peaks at 10
# KiB, two 4 KiB buffers and the iterator, and takes 59 us against 78-93
# us at 8192 (median of 9 rounds of 300 calls, 2-core x86 host).
DOUBLING_BUFSIZE = 512
# Profile entries (times x N) per chunk of an exact grid: both branches'
# log profiles are built by one table fill (``_log_rows``) for a chunk
# of whole blocks with at most this many entries, or for one block where
# a block alone has more (N < 8).  From N = 8 on, the (2, 2, C, N) table
# then takes at most 16 KiB next to a block's arrays, so neither the
# table nor a run's peak grows with grid length.  At N = 10 a chunk is
# 4 blocks (48 times).
PROFILE_CHUNK_ENTRIES = 512
# Entries of a chunk's low-spin table (``low_spin_table``, 24 KiB):
# each chunk doubles spins 1..k of both branches once at its C times, k
# the largest with 2^k * 2C entries within this bound (k = 5 at N = 10,
# C = 48, and at N = 18, C = 28), and each block continues its doubling
# from spin k + 1, two numpy calls fewer per spin.
LOW_SPIN_ENTRIES = 3072
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
        return float(self.weight.sum())


def _mixture(alphas: SystemAmplitudes) -> tuple[float, float, float, float]:
    """(w_up, w_down, log w_up, log w_down), a log -inf for a vanishing weight, formed once.

    ``_mixed_weight`` reads the weights and ``_logit`` the logs, ``[2:]``.
    """
    weights = (alphas.w_up, alphas.w_down)
    return weights + tuple(math.log(w) if w > 0 else -math.inf for w in weights)


def _log_branch_pair(params, alphas, t):
    """Both branch profiles and log mixture weights, for one pattern and for sampling."""
    up = branch_flip_profile(params, "up", t)
    down = branch_flip_profile(params, "down", t)
    return (up, down) + _mixture(alphas)[2:]


def branch_log_rows(params: ModelParams, times: np.ndarray) -> np.ndarray:
    """Both branches' per-spin log factors at a 1-D array of T times, as one (2, 2, T, N) table.

    table[b] is (log_keep, log_flip) of ``core.BRANCHES[b]``, each T x N
    with row k at times[k]; a block of consecutive times is the view
    table[:, :, block].  The times are checked as ``branch_flip_profile``
    checks them, with its messages, and row k is bit for bit that
    profile at times[k] alone, so any split of a grid into tables gives
    the same rows.  A one-off table, in its own numpy error state: the
    exact routes form the constants once (``core.checked_constants``)
    and fill each table with ``_log_rows`` in their own state.
    """
    spins, tau = checked_constants(params, times)
    with np.errstate(divide="ignore"):
        return _log_rows(spins, tau)


def _log_rows(spins: SpinConstants, tau: np.ndarray) -> np.ndarray:
    """The ``branch_log_rows`` table at the checked times tau, from both branches' constants.

    One set of ufunc calls over both branches into one array:
    ``core.flip_squares`` writes keep into table[:, 0] and flip into
    table[:, 1], and one log over the table takes both.  It runs in its
    caller's numpy state, which must let log(0) = -inf pass silently
    (``_grid_state`` does).
    """
    table = np.empty((2, 2, tau.size, spins.omega.shape[1]))
    flip_squares(spins, tau, table[:, 0], table[:, 1])
    return np.log(table, out=table)


def _logit(logs: tuple[float, float], log_wu: np.ndarray, log_wd: np.ndarray) -> np.ndarray:
    """x = (log w_down + log W_down) - (log w_up + log W_up) of patterns, formed in log_wd.

    logs is (log w_up, log w_down) of ``_mixture`` and log_wu, log_wd
    the patterns' branch log-sums, arrays of one shape that x may
    overwrite: log_wu takes log w_up + log W_up and log_wd then x, which
    is returned.  This is the one place x is formed, so every route
    (``_mix_block``, ``_count_atoms``, ``_sample_chunk``,
    ``_pattern_logit``) gives a pattern the same x, bit for bit.  x is
    NaN where both branch log-sums are -inf; the caller's numpy state
    decides whether that warns.
    """
    lw_up, lw_down = logs
    # x = (lw_down + log_wd) - (lw_up + log_wu), in place: IEEE addition commutes.
    log_wu += lw_up
    log_wd += lw_down
    log_wd -= log_wu
    return log_wd


def _mixed_weight(mix: tuple, log_wu, log_wd, weight: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The mixed weight w_up e^(log_wu) + w_down e^(log_wd) of patterns, formed in weight.

    mix is ``_mixture(alphas)``; spare, of weight's shape, takes the down
    term, and either may be the memory of the log-sum it is formed from.
    The one place a pattern's weight is mixed (``_mix_block``, and
    ``_count_atoms`` after it adds log C(N, k) to both log-sums).
    """
    down = np.exp(log_wd, out=spare)
    down *= mix[1]
    np.exp(log_wu, out=weight)
    weight *= mix[0]
    weight += down
    return weight


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
    up, down, *logs = _log_branch_pair(params, alphas, t)
    # A one-pattern mask, summed as the 1-D mask is, so that x is formed as an array.
    flipped = pattern.flipped[None]
    with np.errstate(invalid="ignore"):
        x = float(_logit(logs, pattern_log_weight(up, flipped), pattern_log_weight(down, flipped))[0])
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

    Two float buffers, of T * 2^N and 2 * T * 2^N entries, hold every
    block-sized array of a block; a grid allocates them once
    (``block_workspace``) and reuses them for every block.  So a block
    allocates nothing that grows with 2^N, and the next block overwrites
    the last one's results.  A block's peak is these three block arrays
    and numpy's buffers of at most DOUBLING_BUFSIZE elements.  An exact
    grid's workspace holds one tile of B = min(N, TILE_BITS) pattern
    bits, and every tile of every block writes into it
    (``_block_masses``).  Views on the buffers:

    * spare: the first buffer, flat, which the doubling alternates with
      logs (``pattern_log_weights``); weight, T x 2^N, is the same memory
      and takes the pattern weights;
    * logs: the 2 x T x 2^N branch log-weights, log_up and log_down its
      halves; ``_mix_block`` turns log_down into x;
    * keep, up, down: T x 2^N bool masks in the bytes of log_up, written
      once x is formed;
    * halves: for each contiguous half of the block, its flat down logs,
      up logs and weights and the free memory that takes its down
      weights (``_mix_block``).

    Three small buffers hold the per-row scratch of ``_block_masses``:
    sums, the 2 x T x tiles class mass of each row's tiles; found, a T
    bool marking the rows that kept an atom; and every_row, arange(T).

    ``sized(T')`` gives the views of a shorter final block on the same
    buffers; a block of the full T uses the views built here.
    """

    def __init__(self, buffers: tuple, n: int, times: int):
        self.buffers, self.n, self.times = buffers, n, times
        size, shape = times << n, (times, 1 << n)
        self.spare = buffers[0][:size]
        self.weight = self.spare.reshape(shape)
        self.logs = buffers[1][: 2 * size].reshape((2,) + shape)
        self.log_up, self.log_down = self.logs
        self.keep, self.up, self.down = buffers[1].view(bool)[: 3 * size].reshape((3,) + shape)
        self.sums = buffers[2][:, :times]
        flat_weight, flat_wu, flat_wd = (
            a.reshape(-1) for a in (self.weight, self.log_up, self.log_down)
        )
        first, second = slice(None, size // 2), slice(size // 2, None)
        self.halves = tuple(
            (flat_wd[part], flat_wu[part], flat_weight[part], spare)
            for part, spare in ((first, flat_weight[second]), (second, flat_wu[first]))
        )
        self.found, self.every_row = buffers[3][:times], buffers[4][:times]

    def sized(self, times: int) -> "BlockWorkspace":
        """Views for a block of ``times`` times, at most the workspace's own T."""
        if times == self.times:
            return self
        return BlockWorkspace(self.buffers, self.n, times)


def _check_enumeration_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise EnvironmentTooLarge(f"N={n} exceeds enumeration cap {ENUMERATION_CAP} (2^N atoms)")


def block_workspace(n: int, times: int, tiles: int = 1) -> BlockWorkspace:
    """A ``BlockWorkspace`` for blocks of up to ``times`` times at N = n, in ``tiles`` tiles.

    The enumeration cap is checked before anything is allocated.
    """
    _check_enumeration_cap(n)
    size = times << n
    rows = (np.empty((2, times, tiles)), np.empty(times, dtype=bool), np.arange(times))
    return BlockWorkspace((np.empty(size), np.empty(2 * size)) + rows, n, times)


@contextmanager
def _grid_state():
    """numpy's state for enumerating: its ufunc buffer at DOUBLING_BUFSIZE, log(0) and inf - inf silent.

    The caller's buffer size and error state are back on the way out,
    whatever happens.  An exact grid enters it once (``exact_class_masses``)
    and ``enumerate_outcomes`` once per call; everything they call runs in it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        old = np.setbufsize(DOUBLING_BUFSIZE)
        try:
            yield
        finally:
            np.setbufsize(old)


def pattern_log_weights(
    rows: np.ndarray, prefix: np.ndarray, out: np.ndarray, spare: np.ndarray
) -> np.ndarray:
    """Log-weights of all 2^N flip patterns of both branches at T times, by subset doubling.

    rows is a 2 x 2 x T x N ``branch_log_rows`` table (or a view of its
    first N spins): rows[b, 0] and rows[b, 1] are branch b's log keep
    and log flip factors.  Entry [b, t, c] of the 2 x T x 2^N result,
    written into out, is branch b's pattern c at time t, whose bit i is
    set when spin i+1 flipped.  prefix is the 2 x T x 2^k table of the
    sums over spins 1..k at the same times (a block's slice of
    ``low_spin_table``, or np.zeros((2, T, 1)) for k = 0), and the
    doubling continues from it at spin k + 1.  Spin i + 1 is one add:
    dst, viewed as 2 x T x 2 x w (w = 2^i), takes src + (keep_i, flip_i),
    so dst[..., :w] = src + keep_i and dst[..., w:2w] = src + flip_i,
    both branches, both factors and all T times in one call.  Every
    step's dst is compact, 2 x T x 2w in the first entries of out or of
    spare (a flat array of at least T * 2^N entries), alternating so
    that the last step lands in out and no add reads the array it
    writes.  So out must be C-contiguous (else ValueError), and every
    src is contiguous: numpy buffers only the factors and, in steps
    narrower than its buffer, dst.  At k = N, prefix is copied into out.

    The doubling runs in its caller's numpy state and sets none itself:
    ``exact_class_masses`` (once per grid, for every block's and
    ``low_spin_table``'s call) and ``enumerate_outcomes`` (once per
    call) set numpy's buffer to DOUBLING_BUFSIZE elements
    (``_grid_state``).

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
    if not out.flags.c_contiguous:
        raise ValueError("the doubling's out array must be C-contiguous")
    n, k = rows.shape[-1], prefix.shape[-1].bit_length() - 1
    times = out.shape[1]
    flat = (out.reshape(-1), spare)
    # [b, t, keep or flip, spin]: spin i's factors broadcast over a step's 2 x T x 2 x w dst.
    factors = rows.transpose(0, 2, 1, 3)
    src = prefix
    for i in range(k, n):
        width = 1 << i
        dst = flat[(n - 1 - i) & 1][: 4 * times * width].reshape(2, times, 2, width)
        np.add(src[:, :, None], factors[..., i, None], out=dst)
        src = dst.reshape(2, times, 2 * width)
    if k == n:
        np.copyto(out, prefix)
    return out


def low_spin_table(table: np.ndarray, k: int, spare: np.ndarray) -> np.ndarray:
    """Sums over spins 1..k of all 2^k low patterns of both branches, at a table's C times.

    table is a ``branch_log_rows`` table.  One ``pattern_log_weights``
    call from zeros, in the caller's numpy state, returned as 2 x C x
    2^k: [0] is the up branch and [1] the down one, and a block's times
    [:, block] of it are the ``prefix`` of its ``pattern_log_weights``.
    spare, a flat array of at least C * 2^k entries, takes the
    doubling's sums before the last step; an exact grid passes its
    workspace's, which is free between blocks, so building a chunk's
    tables peaks below a block.
    """
    times = table.shape[2]
    out = np.empty((2, times, 1 << k))
    return pattern_log_weights(table[..., :k], np.zeros((2, times, 1)), out, spare)


def _low_spins(n: int, times: int) -> int:
    """Spins k of a chunk's low-spin table: the largest k <= n with 2^k * 2 * times <= the bound."""
    return min(n, max(0, (LOW_SPIN_ENTRIES // (2 * times)).bit_length() - 1))


def _mix_block(mix: tuple, ws: BlockWorkspace) -> tuple:
    """(x, weight, keep) of every flip pattern of a block, each T x 2^N, from its branch log-weights.

    ws.log_up and ws.log_down hold both branches' ``pattern_log_weights``
    at the block's T times; columns are pattern codes.  x = log(w_down
    W_down) - log(w_up W_up) is minus the logit of u (``u_from_x`` gives
    u) and is formed in place in ws.log_down; the weights go to
    ws.weight, and keep, in ws.keep, marks the atoms with weight at or
    above 1e-300.  x is meaningful on kept atoms only: a dropped atom
    may have both branch weights zero and x NaN.

    The weights and x are formed one contiguous half of the block at a
    time (``ws.halves``), and each half's down weights go to memory that
    is free by then: the weights' second half, then the up logs' first
    half.  So mixing needs no block-sized array beyond the workspace's
    three.

    mix is the grid's ``_mixture``.  It runs in its caller's numpy state,
    which must let inf - inf = NaN pass silently (``_grid_state`` does).
    """
    for log_wd, log_wu, weight, spare in ws.halves:
        _mixed_weight(mix, log_wu, log_wd, weight, spare)
        _logit(mix[2:], log_wu, log_wd)
    return ws.log_down, ws.weight, np.greater_equal(ws.weight, WEIGHT_FLOOR, out=ws.keep)


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
    zeros in one ``pattern_log_weights`` call, and ``_mix_block`` mixes
    them, all in one entry of ``_grid_state``.
    """
    ws = block_workspace(params.n_env, 1)
    spins, tau = checked_constants(params, np.array([t]))
    with _grid_state():
        rows = _log_rows(spins, tau)
        pattern_log_weights(rows, np.zeros((2, 1, 1)), ws.logs, ws.spare)
        x, weight, keep = (a[0] for a in _mix_block(_mixture(alphas), ws))
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
    enumeration cap is checked first, then the times and phases, with
    ``branch_log_rows``' messages; then one ``BlockWorkspace`` of B =
    min(N, TILE_BITS) pattern bits is allocated.  The grid runs in
    blocks of max(1, GRID_BLOCK_ATOMS >> B) consecutive times, and each
    block's 2^N patterns in 2^(N - B) tiles of 2^B
    (``_block_masses``): one tile up to N = TILE_BITS.  What does not
    depend on time is formed once per grid: both branches' per-spin
    constants (``core.spin_constants``), the mixture weights, the
    workspace with its per-row scratch, and numpy's state (``_grid_state``,
    entered once).  Each chunk of blocks (``PROFILE_CHUNK_ENTRIES``)
    fills one ``branch_log_rows`` table (``_log_rows``) and builds one
    ``low_spin_table`` (``LOW_SPIN_ENTRIES``), and a block takes its
    view of both.  Each row's masses are one pairwise sum over
    the row with the dropped and off-class weights zeroed, formed tile by
    tile, so they match the per-point ``enumerate_outcomes`` +
    ``observables.class_probabilities`` values to a few ulp, not bit for
    bit (that route sums only the kept class atoms).  Rows are
    independent: the bits do not depend on the block, chunk or tile size.
    """
    n = params.n_env
    _check_enumeration_cap(n)
    spins, tau = checked_constants(params, times)
    bits = min(n, TILE_BITS)
    step = max(1, GRID_BLOCK_ATOMS >> bits)
    workspace = block_workspace(bits, min(step, times.size), 1 << (n - bits))
    # Both branches' sums over spins 1..B, which every tile continues; up to N = B the
    # workspace's own logs serve.
    base = np.empty(2 * workspace.times << bits) if n > bits else None
    masses = np.empty((3, times.size))
    dropped = 0
    chunk = step * max(1, PROFILE_CHUNK_ENTRIES // (step * n))
    mix = _mixture(alphas)
    with _grid_state():
        for start in range(0, times.size, chunk):
            table = _log_rows(spins, tau[start : start + chunk])
            size = table.shape[2]
            low = low_spin_table(table, min(bits, _low_spins(n, size)), workspace.spare)
            for first in range(0, size, step):
                span = slice(first, first + step)
                out = masses[:2, start + first : start + first + step]
                dropped += _block_masses(
                    mix, table[:, :, span], workspace, low[:, span], base, cutoffs, out
                )
            # Freed before the next chunk's tables are built, so a chunk change peaks as a
            # block does.
            del table, low
    # The complement can land a few ulp below zero; keep it in range.
    np.maximum(0.0, 1.0 - masses[0] - masses[1], out=masses[2])
    return masses, dropped


def _block_masses(mix, rows, workspace: BlockWorkspace, prefix, base, cutoffs, out) -> int:
    """A block's up and down masses into out (2 x T), and its dropped count.

    mix is the grid's ``_mixture``, rows the block's (2, 2, T, N)
    ``branch_log_rows`` view, prefix its 2 x T x 2^k low-spin slice,
    workspace a grid's workspace of B pattern bits and 2^(N - B) tiles,
    and base a flat buffer of at least 2 x T x 2^B entries, whose first
    ones the block takes as its C-contiguous 2 x T x 2^B base, or None
    at N = B.  It runs in the
    grid's numpy state (``_grid_state``).  Both
    branches' sums over spins 1..B are doubled once, in one
    ``pattern_log_weights`` call, into base (at N = B, into the
    workspace's logs).  Tile j holds the pattern codes [j 2^B, (j + 1)
    2^B), whose spins B + 1..N are the bits of j: one add per spin puts
    both branches' 2 x T x 1 log factors on the base, which is the
    left-to-right sum a whole-block doubling forms.
    ``_mix_block`` runs on the tile, and each row's class masses are one
    pairwise sum over the row with the dropped and off-class weights
    zeroed; x, dead once the class masks are formed, takes each class's
    weights in turn.  Two skips keep those bits: a tile that keeps every
    atom marks every row found and leaves the class masks as the
    comparisons give them, with no ``&= keep``; and a class with no atom
    in the tile gets row sums of +0.0 without its pass, the sums of 0.0
    times finite non-negative weights.  On the ``figures`` and
    ``large_n`` benchmark grids every tile keeps every atom, and about a
    third have an empty up class.

    numpy's row sum is the pairwise sum 0.0 + pairwise(row), whose tree
    halves a 2^N row down to 128-entry leaves; the tile sums, combined
    in that tree in code order (``tile_tree_sum``), are its subtrees, and
    0.0 + s = s for the non-negative masses.  So masses and the dropped
    count are the whole-block bits.  A row with no kept atom raises.
    """
    ws = workspace.sized(rows.shape[2])
    bits, times = ws.n, ws.times
    high = rows.shape[3] - bits
    start = ws.logs if base is None else base[: 2 * times << bits].reshape(2, times, 1 << bits)
    pattern_log_weights(rows[..., :bits], prefix, start, ws.spare)
    c_up, c_down = cutoffs
    sums, found, every_row = ws.sums, ws.found, ws.every_row
    found.fill(False)
    kept = 0
    for tile in range(1 << high):
        # Bit s of the tile is spin B + 1 + s: both branches' T x 1 keep or flip log factors.
        for s in range(high):
            np.add(ws.logs if s else start, rows[:, tile >> s & 1, :, bits + s, None], out=ws.logs)
        x, weight, keep = _mix_block(mix, ws)
        count = int(np.count_nonzero(keep))
        kept += count
        up = np.less_equal(x, c_up, out=ws.up)
        down = np.greater(x, c_down, out=ws.down)
        if count < keep.size:
            # argmax stops at each row's first kept atom; in a row that keeps none it gives atom 0.
            found |= keep[every_row, keep.argmax(axis=1)]
            up &= keep
            down &= keep
        else:
            found.fill(True)
        # The mask is copied into x as 0/1 and multiplied in place, which needs no cast buffer.
        for mass, mask in zip(sums[:, :, tile], (up, down)):
            if not mask.any():
                mass.fill(0.0)
                continue
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


def log_factorials(n: int, start: int = 0) -> np.ndarray:
    """log k! = lgamma(k + 1) for k = start..n, from math.lgamma; independent of time.

    ``math.lgamma`` takes the floats k + 1, which it would form from the
    ints anyway (exactly, below 2^53), so every entry has the bits of
    ``math.lgamma(k + 1)`` on an int without the per-entry conversion.
    """
    return np.fromiter(map(math.lgamma, itertools.count(float(start + 1))), float, n + 1 - start)


def binomial_spin(params: ModelParams) -> ModelParams:
    """The one-spin model that carries every spin's profile when all h_j are equal."""
    if not params.equal_couplings:
        raise ValueError("binomial reduction requires all couplings equal")
    return ModelParams(params.delta, params.h[:1], params.beta)


class BinomialGrid:
    """A binomial model's table log k!, its one-spin profiles over its grid, and its current block.

    params is the model, whose couplings must be equal, and times its
    grid, 1-D and strictly increasing (empty for a run of one-time
    calls).  Built here, once: ``binomial_spin(params)``, which checks
    the couplings, and both branches' profiles over the whole grid, one
    ``branch_flip_profile`` call per branch (64 bytes per grid time).
    Row k of such a call is bit for bit the profile at times[k] alone,
    so a point's profiles do not depend on the grid.  The table
    log_fact holds N + 1 floats but starts unset (NaN) except log N!:
    each block fills the counts it reads (``fill``), so a run computes
    log k! only over the union of its blocks' spans, with the bits of
    ``log_factorials(N)``.  filled lists the ranges set so far.

    The grid falls into blocks of step = max(1, BINOMIAL_BLOCK_ENTRIES //
    (N + 1)) consecutive times: block b holds times[b step:(b + 1) step]
    (25 times at N = 80, one from N = 1024 on).  ``binomial_outcomes``
    computes a block, for all its times, at the first touch of one of
    them, and serves the block's other times from it: block is the last
    block computed, the list of its rows' distributions, and block_key
    the index of its first time and the mixture weights it was computed
    for.  So a block
    fills the table for the spans of all its times.  The profiles never
    change, the table only gains entries, block changes a whole block at
    a time (one caller at a time), and the grid serves this params
    object alone
    (``binomial_outcomes`` rejects any other: ``ModelParams`` compares
    by identity).
    """

    def __init__(self, params: ModelParams, times=()):
        self.params = params
        self.spin = binomial_spin(params)
        n = params.n_env
        self.log_fact = np.full(n + 1, np.nan)
        self.filled: list[tuple[int, int]] = []
        self.fill(n, n)
        self.times = np.asarray(times, dtype=float)
        self.up = branch_flip_profile(self.spin, "up", self.times)
        self.down = branch_flip_profile(self.spin, "down", self.times)
        self.step = max(1, BINOMIAL_BLOCK_ENTRIES // (n + 1))
        self.block: list[ProjectionDistribution] | None = None
        self.block_key = None

    def fill(self, lo: int, hi: int) -> None:
        """Set the table's entries lo..hi that no earlier call set.

        Each gap of [lo, hi] between the ranges of filled is one
        ``log_factorials`` call, no longer than [lo, hi] itself, so an
        entry is computed once.  filled then takes [lo, hi] through
        ``_span_union``: sorted, with no two ranges overlapping or adjacent.
        """
        cursor = lo
        for a, b in self.filled:
            if a > hi:
                break
            if cursor < a:
                self.log_fact[cursor:a] = log_factorials(a - 1, cursor)
            cursor = max(cursor, b + 1)
        if cursor <= hi:
            self.log_fact[cursor : hi + 1] = log_factorials(hi, cursor)
        self.filled = _span_union(self.filled + [(lo, hi)])


def _profile_row(profile: FlipProfile, k) -> FlipProfile:
    """Row k of a profile over times, or rows k for a slice, a view of each field.

    Each field is indexed by name: a generator over the fields leaves
    blocks that tracemalloc still counts after the run.
    """
    return FlipProfile(profile.keep[k], profile.flip[k], profile.log_keep[k], profile.log_flip[k])


def count_span(n: int, p: float, q: float, nats: float) -> tuple[int, int]:
    """The counts [lo, hi] of Binomial(n, p) outside which the pmf lies under exp(-nats).

    q is 1 - p as the caller forms it, and nats >= 0.  Two tail bounds
    give a radius r beyond which |k - np| puts Bin(k; n, p) there, and
    the span takes the smaller, clipped to [0, n]:

    * Chernoff's Bin(k; n, p) <= exp(-n D(k/n || p)), relaxed by
      Pinsker's inequality D >= 2 (k/n - p)^2 (Chernoff 1952, Hoeffding
      1963): r^2 = n nats / 2;
    * Bernstein's exp(-d^2 / (2 (sigma^2 + d / 3))) on either tail at
      distance d from np, sigma^2 = n p q (Boucheron, Lugosi & Massart,
      Concentration Inequalities, 2013, Thm 2.10; each Bernoulli lies
      within 1 of its mean): r = nats / 3 + sqrt(nats^2 / 9 + 2 nats
      sigma^2), far narrower where p is far from 1/2.

    This is the only place the radius is formed: a binomial point's
    branch spans (``binomial_spans``) and the sums of
    ``selfcheck.binomial_two_sided_p`` both take it from here.
    """
    variance = n * p * q
    bernstein = nats / 3 + math.sqrt(nats * nats / 9 + 2 * nats * variance)
    center, r = n * p, min(math.sqrt(n / 2 * nats), bernstein)
    return max(0, math.floor(center - r)), min(n, math.ceil(center + r))


def _branch_span(n: int, weight: float, profile: FlipProfile) -> tuple[int, int] | None:
    """The flip counts [lo, hi] of one branch's terms that can reach the weight floor, or None.

    With keep and flip the one-spin floats, s = keep + flip and p = flip / s,
    the count-k term is weight * s^n * Bin(k; n, p), and it lies under
    WEIGHT_FLOOR / 2 * exp(-WINDOW_MARGIN) once Bin(k; n, p) is below
    exp(-c), c = log weight + n log s - log(WEIGHT_FLOOR / 2) +
    WINDOW_MARGIN nats: outside ``count_span(n, p, keep / s, c)``.  A
    zero weight or a negative c leaves no count.
    """
    if weight == 0.0:
        return None
    keep, flip = float(profile.keep[0]), float(profile.flip[0])
    s = keep + flip
    nats = math.log(weight) + n * math.log(s) - math.log(WEIGHT_FLOOR / 2) + WINDOW_MARGIN
    if nats < 0.0:
        return None
    return count_span(n, flip / s, keep / s, nats)


def binomial_spans(
    n: int, alphas: SystemAmplitudes, up: FlipProfile, down: FlipProfile
) -> list[tuple[int, int]]:
    """Ascending, disjoint spans [lo, hi] of the flip counts whose weight can reach 1e-300.

    up and down are the one-spin profiles of both branches at one time.
    Each branch with positive weight gives one span (``_branch_span``,
    the smaller of a Pinsker and a Bernstein radius about np from
    ``count_span``); overlapping or adjacent spans are merged
    (``_span_union``).  A count outside every span has both
    terms below WEIGHT_FLOOR / 2 * exp(-WINDOW_MARGIN), so its weight is
    below the floor by that margin.  One branch weighs at least 1/2 and
    keep + flip = 1 to a few ulp, so its nats budget is positive for any
    N below about 10^18: there is always a span.
    """
    spans = (_branch_span(n, alphas.w_up, up), _branch_span(n, alphas.w_down, down))
    return _span_union(span for span in spans if span is not None)


def binomial_outcomes(
    params: ModelParams,
    alphas: SystemAmplitudes,
    t: float,
    *,
    grid: BinomialGrid | None = None,
) -> ProjectionDistribution:
    """Exact distribution for equal couplings, indexed by flip count.

    With all h_j equal the branch weight depends only on how many spins
    flipped, so the 2^N patterns collapse onto N + 1 atoms with binomial
    multiplicity, and one spin's profile serves them all.  Atoms whose u
    coincide within 1e-12 are merged, so an atom no longer names one
    flip count.  Agrees with enumerate_outcomes exactly (after the same
    merging) wherever both apply.  grid, when given, is the run's
    ``BinomialGrid``, built for this params object (else ValueError).
    Without a grid the call builds one of the single time t.  The
    grid's table is the route's one array of N + 1 floats.

    A grid time returns its row of the grid's current block, which the
    first call at any of the block's times computes, for these alphas,
    from the grid's profile rows.  A time off the grid (a histogram
    time, a grid of no times) computes both one-spin profiles at t and
    is a block of its own, which the grid does not keep.  Either way one
    ``_binomial_block`` call forms the atoms, and a row's u, weight and
    ``dropped`` are bit for bit those of a block of its time alone: the
    bits depend neither on the block size nor on the order of the
    calls.  The row's arrays are views of the block's.

    Only the flip counts in ``binomial_spans`` are evaluated, O(sqrt N)
    of them (at N = 10^5 and h = 0.01 about 0.5% of the counts for the
    up branch and 9% for the down one; all at N = 80).  A tail bound
    proves that every other count's term lies under 1e-300 / 2 by
    WINDOW_MARGIN = 8 nats on each branch, far more than the float
    error of a computed log weight (about 1e-8 nats at N = 10^6), so the
    full range would drop it too; it is counted in ``dropped`` without
    being computed.  Every kept count takes the IEEE operations of the
    closed form (n - k) * log keep + k * log flip over all N + 1 counts
    (``_count_atoms``), so u, weight, ``dropped`` and the merge are its
    bits.
    """
    if grid is None:
        grid = BinomialGrid(params, (t,))
    elif grid.params is not params:
        raise ValueError("the binomial grid was built for another model")
    k = int(grid.times.searchsorted(t))
    if k == grid.times.size or grid.times[k] != t:
        times = np.array([t], dtype=float)
        up, down = (branch_flip_profile(grid.spin, branch, times) for branch in ("up", "down"))
        return _binomial_block(grid, alphas, up, down)[0]
    first = k - k % grid.step
    key = (first, alphas.w_up, alphas.w_down)
    if grid.block_key != key:
        # The last block goes before this one's arrays exist.
        grid.block = grid.block_key = None
        rows = slice(first, first + grid.step)
        grid.block = _binomial_block(
            grid, alphas, _profile_row(grid.up, rows), _profile_row(grid.down, rows)
        )
        grid.block_key = key
    return grid.block[k - first]


def _binomial_block(
    grid: BinomialGrid, alphas: SystemAmplitudes, up: FlipProfile, down: FlipProfile
) -> list[ProjectionDistribution]:
    """The distributions of the B times whose one-spin profiles are up and down, B x 1 fields.

    Row j's flip counts are ``binomial_spans`` at its time; the block
    evaluates the union of its rows' spans, a list of disjoint intervals
    (not their hull), for every row at once.  A count of the union that
    lies outside a row's own spans weighs under the floor there by the
    spans' margin, so that row drops it as a row of its own would drop
    it unevaluated.  Before the atoms are formed the grid fills its
    table over each interval [lo, hi] of the union and its mirror
    [N - hi, N - lo] (``BinomialGrid.fill``).  ``_count_atoms`` forms
    the kept atoms and ``_merge_rows`` merges each row's.  Row j of the
    list is the block's time j: its u and weight are views of the merged
    arrays, and its ``dropped`` counts the flip counts it did not keep.
    """
    n = grid.params.n_env
    spans: list[tuple[int, int]] = []
    for j in range(up.keep.shape[0]):
        own = binomial_spans(n, alphas, _profile_row(up, j), _profile_row(down, j))
        spans = _span_union(spans + own)
        if spans == [(0, n)]:
            break  # every count already: the later rows' spans cannot widen the union
    for lo, hi in spans:
        grid.fill(lo, hi)
        grid.fill(n - hi, n - lo)
    u, weight, kept = _count_atoms(n, _mixture(alphas), up, down, spans, grid.log_fact)
    u, weight, offsets = _merge_rows(u, weight, kept)
    ends = offsets.tolist()
    return [
        ProjectionDistribution(u[a:b], weight[a:b], "binomial", dropped=n + 1 - count)
        for a, b, count in zip(ends, ends[1:], kept.tolist())
    ]


def _span_union(spans) -> list[tuple[int, int]]:
    """The spans [lo, hi] as ascending, disjoint intervals; overlapping or adjacent spans join."""
    union: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if union and lo <= union[-1][1] + 1:
            union[-1] = (union[-1][0], max(union[-1][1], hi))
        else:
            union.append((lo, hi))
    return union


def _count_atoms(n, mix, up, down, spans, log_fact) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, weight, kept) of a block's kept flip counts: atoms row after row, ascending in k.

    mix is ``_mixture(alphas)``, up and down the rows' one-spin
    profiles (B x 1 fields), spans the ascending intervals of counts
    the block evaluates, W counts in all, and log_fact the grid's table,
    set at n and over each interval and its mirror.  kept[j] counts row
    j's atoms.  Each of both branches' log weights and the mixed weight
    and u takes one B x W ufunc call, and log C(n, k) = (log N! - log
    k!) - log (N - k)! two W-sized ones that read the table at the
    counts and their mirrors, with the IEEE operations of the closed
    form (n - k) * log keep + k * log flip over all N + 1 counts at each
    time alone; the zero-count term of each sum is 0.0 (not 0 * -inf).
    So u, weight and the kept set are its bits.

    The arrays are formed in place: four B x W floats (the up log
    weight, the up flip term, then log C and the up and mixed weights,
    the down log weight, and the down keep term, then the down weight)
    and four W-vectors (the integer counts, whose mirrors N - k replace
    them to index the table, and the floats k, N - k and log C).  A
    block of one row, as at large N, forms the down branch's terms in
    the k and N - k vectors and log C in the up flip term's row: four
    W-sized floats besides the counts.
    """
    one_row = up.keep.shape[0] == 1
    counts = np.concatenate([np.arange(lo, hi + 1) for lo, hi in spans])
    k = counts.astype(float)
    n_minus_k = np.subtract(n, k)
    # 0 * (-inf) would be nan; the keep terms at k = N and the flip terms at k = 0 are set to 0.0.
    with np.errstate(invalid="ignore"):
        log_wu = np.multiply(n_minus_k, up.log_keep)
        flip_up = np.multiply(k, up.log_flip)
        log_wd = np.multiply(k, down.log_flip, out=k[None] if one_row else None)
        keep_down = np.multiply(n_minus_k, down.log_keep, out=n_minus_k[None] if one_row else None)
        if spans[-1][1] == n:
            log_wu[:, -1] = keep_down[:, -1] = 0.0
        if spans[0][0] == 0:
            flip_up[:, 0] = log_wd[:, 0] = 0.0
        log_wu += flip_up
        log_wd += keep_down
    log_count = flip_up[0] if one_row else np.empty(counts.size)
    np.subtract(log_fact[n], log_fact[counts], out=log_count)
    # The counts turn into their mirrors N - k in place, so the mirror index allocates no W ints.
    log_count -= log_fact[np.subtract(n, counts, out=counts)]
    np.add(log_count, log_wd, out=keep_down)
    np.add(log_count, log_wu, out=flip_up)
    with np.errstate(over="ignore"):
        weight = _mixed_weight(mix, flip_up, keep_down, flip_up, keep_down)
    del keep_down, log_count, counts
    keep = weight >= WEIGHT_FLOOR
    u = u_from_x(_logit(mix[2:], log_wu[keep], log_wd[keep]))
    return u, weight[keep], np.count_nonzero(keep, axis=1)


def _merge_rows(u, weight, kept) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's atoms merged by u: (u, weight, offsets) of the merged atoms, row after row.

    u and weight hold the rows' atoms, row after row, kept[j] of row j;
    row j's merged atoms are [offsets[j], offsets[j + 1]).  One order
    for all rows, the order of ``np.lexsort((u, row))``: by row, then by
    u, stable.  It is formed as lexsort forms it, a stable sort by u and
    then a stable sort by row, but with the rows in the smallest
    unsigned type, which numpy radix-sorts: 95 against 155 us for
    lexsort on ``figures``' 25-row blocks at N = 80.  Within a row a
    group ends where the next u exceeds the last by more than
    U_MERGE_TOL = 1e-12, and every row ends one; each group is one
    ``np.add.reduceat`` segment.  The merged u is the weight-weighted mean of the group
    (its first u when the group weighs nothing).  A row's result
    depends on its own atoms alone, bit for bit.
    """
    offsets = np.zeros(kept.size + 1, dtype=np.intp)
    if u.size == 0:
        return u, weight, offsets
    rows = np.repeat(np.arange(kept.size, dtype=np.min_scalar_type(kept.size)), kept)
    order = np.argsort(u, kind="stable")
    if kept.size > 1:
        order = order[np.argsort(rows[order], kind="stable")]
    u_sorted, w_sorted = u[order], weight[order]
    del order
    # The rows are ascending already, so the sort leaves them in place.
    ends = np.diff(u_sorted) > U_MERGE_TOL
    ends |= rows[1:] != rows[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ends)))
    del ends
    w_out = np.add.reduceat(w_sorted, starts)
    uw_out = np.add.reduceat(u_sorted * w_sorted, starts)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_out = np.where(w_out > 0, uw_out / w_out, u_sorted[starts])
    np.cumsum(np.bincount(rows[starts], minlength=kept.size), out=offsets[1:])
    return u_out, w_out, offsets


def merge_by_u(dist: ProjectionDistribution) -> ProjectionDistribution:
    """Merge atoms whose u values coincide within U_MERGE_TOL (weights add).

    The one-row case of ``_merge_rows``, the merge every binomial block
    runs: sorted by u, a group ends where the next u exceeds the last by
    more than U_MERGE_TOL = 1e-12, and the merged u is the
    weight-weighted mean of the group (its first u when the group
    weighs nothing).  Pattern codes are discarded (a merged atom has no
    single pattern).
    """
    u, weight, _ = _merge_rows(dist.u, dist.weight, np.array([dist.u.size]))
    return ProjectionDistribution(u=u, weight=weight, kind=dist.kind, dropped=dist.dropped)


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
    up, down, *logs = branches
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
        x = _logit(logs, pattern_log_weight(up, flips.T), pattern_log_weight(down, flips.T))
        u[tile : tile + width] = u_from_x(x)


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
