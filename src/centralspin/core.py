"""Central-spin model parameters and per-spin transition algebra.

The universe is one system spin-1/2 coupled to N environment spins-1/2.
The environment level splitting is mu, the longitudinal coupling is nu,
and spin j carries a vertical coupling h_j.  Energies are measured in
units of mu + nu, so both couplings are fixed by the single detuning
delta = mu - nu.  Conditioned on the system pointing up or down, the
j-th environment spin evolves under an effective 2x2 Hamiltonian

    up:    (mu + nu) sz + h_j sx  =        sz + h_j sx
    down:  (mu - nu) sz - h_j sx  =  delta sz - h_j sx

whose propagator matrix elements between initial and final spin
eigenstates are the per-spin transition amplitudes computed here.  With
omega = sqrt(a^2 + h^2) and ratio r = a^2 / omega^2 (a the sz
coefficient of the branch), the squared moduli are

    |G|^2 = cos^2(omega*tau) + r sin^2(omega*tau)   spin kept
    |G|^2 = (1 - r) sin^2(omega*tau)                spin flipped

and the two always sum to one.  Branch weights are products of N such
factors; at N = 80 raw products underflow float64, so all accumulation
happens in natural-log domain and exact zeros map to -inf.

Everything in this module is a pure function of immutable inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

BRANCHES = ("up", "down")

NORM_TOL = 1e-12

# Float64 elements in one block of scratch: the per-spin log terms of
# ``pattern_log_weight`` and the sampler's rows of uniforms (512 KiB).
LOG_SUM_BLOCK = 1 << 16


class EnvironmentTooLarge(ValueError):
    """Exact construction refused beyond the configured environment-size cap."""


def dispersed_couplings(h: float, delta_h: float, n: int) -> np.ndarray:
    """Vertical couplings spread over [h, h + delta_h): h_j = h + (j-1)*delta_h/n.

    A float64 array holding the scalar formula's bits for every j, sign
    of zero included; an overflow gives inf, which ``ModelParams`` rejects.
    """
    if n < 1:
        raise ValueError("need at least one environment spin")
    with np.errstate(over="ignore", invalid="ignore"):
        return h + np.arange(n) * delta_h / n


def last_dispersed_coupling(h: float, delta_h: float, n: int) -> float:
    """h_n of ``dispersed_couplings(h, delta_h, n)`` in O(1).

    h_j is monotone in j, so h_1 = h and h_n bound every coupling: all are
    finite when h_n is, and all are equal when h_n == h.
    """
    if n < 1:
        raise ValueError("need at least one environment spin")
    return h + (n - 1) * delta_h / n


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Immutable central-spin universe: detuning, couplings, bath temperature.

    delta is mu - nu with mu + nu = 1 enforced by construction, so
    mu = (1 + delta)/2 and nu = (1 - delta)/2.  h holds the N couplings
    as one read-only 1-D float64 array, copied from the argument.  A 1-D
    argument of stride 0 (equal couplings, as ``np.broadcast_to`` of one
    value gives) is kept as a read-only broadcast of a copy of that one
    value, so N equal couplings hold 8 bytes, not 8N; every other
    argument, an explicit list of equal values included, is copied
    whole.  beta is the inverse temperature of the initial bath
    ensemble.  Times are measured from the initial time 0.
    """

    delta: float
    h: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        h = self.h
        compact = isinstance(h, np.ndarray) and h.ndim == 1 and h.size > 1 and h.strides == (0,)
        if compact:
            h = np.broadcast_to(np.array(h[0], dtype=np.float64), h.shape)
        else:
            h = np.array(h, dtype=np.float64)
        if h.ndim != 1 or h.size < 1:
            raise ValueError("need at least one environment spin, as a 1-d sequence of couplings")
        if not np.isfinite(h[:1] if compact else h).all():
            raise ValueError("couplings must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        for name in ("delta", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")

    @property
    def n_env(self) -> int:
        return self.h.size

    @property
    def equal_couplings(self) -> bool:
        """True when every h_j equals h_1 (0.0 and -0.0 count as equal); O(1) for a broadcast h."""
        return self.h.strides == (0,) or bool((self.h == self.h[0]).all())

    @property
    def mu(self) -> float:
        return (1.0 + self.delta) / 2.0

    @property
    def nu(self) -> float:
        return (1.0 - self.delta) / 2.0

    @staticmethod
    def elapsed(t):
        """t, one time or an array of times since the initial time 0, checked finite and >= 0."""
        finite = np.isfinite(t)
        if not np.all(finite):
            raise ValueError(f"t must be finite, got {np.asarray(t)[~finite].flat[0]}")
        if np.any(t < 0):
            raise ValueError(f"t={np.min(t)} precedes the initial time 0")
        return t


@dataclass(frozen=True)
class SystemAmplitudes:
    """Initial system state a_up|up> + a_down|down>, normalized to one."""

    a_up: complex
    a_down: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.a_up) and cmath.isfinite(self.a_down)):
            raise ValueError(f"amplitudes must be finite, got {self.a_up!r}, {self.a_down!r}")
        norm = abs(self.a_up) ** 2 + abs(self.a_down) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalized: |a|^2 = {norm}")

    @classmethod
    def from_up_weight(cls, w_up: float, phase: float = 0.0) -> "SystemAmplitudes":
        """State with |a_up|^2 = w_up and relative phase on the down amplitude."""
        if not 0.0 <= w_up <= 1.0:
            raise ValueError("up weight must lie in [0, 1]")
        if not math.isfinite(phase):
            raise ValueError(f"phase must be finite, got {phase}")
        return cls(math.sqrt(w_up), math.sqrt(1.0 - w_up) * complex(math.cos(phase), math.sin(phase)))

    @property
    def w_up(self) -> float:
        return abs(self.a_up) ** 2

    @property
    def w_down(self) -> float:
        return abs(self.a_down) ** 2

    def vector(self) -> np.ndarray:
        return np.array([self.a_up, self.a_down], dtype=complex)


@dataclass(frozen=True)
class SpinSpectral:
    """Frequency and kept-weight floor of one environment spin on one branch."""

    branch: str
    omega: float
    ratio: float


class FlipPattern:
    """Which environment spins differ between initial and final bath states.

    d[i] = +1 means spin j = i+1 kept its orientation, -1 means it
    flipped.  Squared per-spin amplitudes depend on the pattern only,
    never on the initial orientations themselves.
    """

    __slots__ = ("d",)

    def __init__(self, d: Iterable[int]):
        # Checked before the int8 cast, which would turn 1.5 or 257 into 1.
        arr = np.asarray(d if isinstance(d, np.ndarray) else list(d))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("pattern must be a non-empty 1-d sequence")
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("pattern entries must be +1 or -1")
        self.d = arr.astype(np.int8, copy=False)

    def __len__(self) -> int:
        return self.d.size

    def __eq__(self, other) -> bool:
        return isinstance(other, FlipPattern) and np.array_equal(self.d, other.d)

    def __repr__(self) -> str:
        return f"FlipPattern({self.d.tolist()})"

    @property
    def flipped(self) -> np.ndarray:
        return self.d == -1

    @property
    def flip_count(self) -> int:
        return int(np.count_nonzero(self.d == -1))

    @classmethod
    def none(cls, n: int) -> "FlipPattern":
        return cls(np.ones(n, dtype=np.int8))

    @classmethod
    def from_code(cls, code: int, n: int) -> "FlipPattern":
        """Bit i of ``code`` set means spin j = i+1 flipped; a Python int, so any N.

        ``code`` must lie in [0, 2^n): a negative code, or one with a bit
        at or above n, names no pattern of n spins and raises ValueError.
        """
        if code < 0 or code >> n:
            raise ValueError(f"pattern code {code} outside [0, 2^{n})")
        return cls([-1 if (code >> i) & 1 else 1 for i in range(n)])

    def code(self) -> int:
        """The inverse of ``from_code``: a Python int, distinct for every pattern at any N."""
        return sum(1 << i for i in np.flatnonzero(self.flipped).tolist())


def branch_axis(params: ModelParams, branch: str) -> tuple[float, float]:
    """(sz coefficient, sign of the sx coefficient) of the branch Hamiltonian."""
    if branch == "up":
        return params.mu + params.nu, 1.0
    if branch == "down":
        return params.mu - params.nu, -1.0
    raise ValueError(f"branch must be 'up' or 'down', got {branch!r}")


def spin_spectral(params: ModelParams, branch: str, j: int) -> SpinSpectral:
    """Frequency omega and ratio r of environment spin j (1-based) on a branch.

    omega = sqrt(a^2 + h_j^2), r = a^2 / omega^2 with a = 1 on the up
    branch and a = delta on the down branch.  r * omega^2 equals the
    squared sz coefficient.  When omega = 0 (delta = 0 and h_j = 0 on
    the down branch) the spin cannot flip at all; r is set to 1 by
    convention so the kept weight stays exactly 1.  The entry [branch,
    j] of ``spin_constants``, bit for bit, from that spin alone: O(1).
    """
    if not 1 <= j <= params.n_env:
        raise IndexError(f"spin index {j} outside 1..{params.n_env}")
    spins = spin_constants(ModelParams(params.delta, params.h[j - 1 : j]), (branch,))
    return SpinSpectral(branch, float(spins.omega[0, 0]), float(spins.ratio[0, 0]))


def spin_amplitude(
    params: ModelParams, branch: str, j: int, t: float, s: int, flipped: bool
) -> complex:
    """Exact propagator matrix element <s'| exp(-i tau (a sz + b sx)) |s>.

    s is the initial orientation (+1/-1) of spin j; the final one is s
    or -s according to ``flipped``.  From
    exp(-i tau (a sz + b sx)) = cos(w tau) I - i sin(w tau)(a sz + b sx)/w
    with w = sqrt(a^2 + b^2):

        kept:    cos(w tau) - i (a s / w) sin(w tau)
        flipped: -i (b / w) sin(w tau)
    """
    if s not in (1, -1):
        raise ValueError("initial spin must be +1 or -1")
    # hypot ignores signs, so spin_spectral's omega = hypot(a, h_j) is hypot(a, b).
    omega = spin_spectral(params, branch, j).omega
    tau = params.elapsed(t)
    a, b_sign = branch_axis(params, branch)
    b = b_sign * float(params.h[j - 1])
    if omega == 0.0:
        return 0.0 + 0.0j if flipped else 1.0 + 0.0j
    c, sn = math.cos(omega * tau), math.sin(omega * tau)
    if flipped:
        return complex(0.0, -b * sn / omega)
    return complex(c, -a * s * sn / omega)


class FlipProfile(NamedTuple):
    """Per-spin kept/flipped squared amplitudes of one branch, linear and log."""

    keep: np.ndarray
    flip: np.ndarray
    log_keep: np.ndarray
    log_flip: np.ndarray


class SpinConstants(NamedTuple):
    """Time-independent per-spin constants of some branches, each B x N (``spin_constants``)."""

    branches: tuple[str, ...]
    omega: np.ndarray
    ratio: np.ndarray
    one_minus: np.ndarray


def spin_constants(params: ModelParams, branches: tuple[str, ...] = BRANCHES) -> SpinConstants:
    """omega, r and 1 - r of every spin on each of the branches: row b is ``branches[b]``.

    omega = hypot(a, h_j), r = (a / omega)^2 and 1 - r = (h_j / omega)^2,
    a the branch's sz coefficient; 1 - r is formed as written, not as a
    difference.  omega == 0 only when a == h_j == 0: that spin is frozen,
    with r = 1 and 1 - r = 0 (keep 1, flip 0).
    """
    a = np.array([[branch_axis(params, branch)[0]] for branch in branches])
    h = params.h
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = np.hypot(a, h)
        moving = omega > 0.0
        safe = np.where(moving, omega, 1.0)
        ratio = np.where(moving, (a / safe) ** 2, 1.0)
        one_minus = np.where(moving, (h / safe) ** 2, 0.0)
    return SpinConstants(tuple(branches), omega, ratio, one_minus)


def check_phases(spins: SpinConstants, tau: np.ndarray) -> None:
    """Raise ValueError when a phase omega * t overflows: its sine and cosine would be NaN.

    tau holds times that ``ModelParams.elapsed`` accepted.  omega and tau
    are >= 0 and rounding is monotone, so every phase of a branch is
    finite exactly when its largest omega times the largest tau is: one
    product per branch, in the order of ``spins.branches``.
    """
    if tau.size:
        last = float(np.max(tau))
        for branch, omega in zip(spins.branches, spins.omega):
            if not math.isfinite(float(np.max(omega)) * last):
                raise ValueError(f"phase omega * t must be finite on the {branch} branch")


def checked_constants(
    params: ModelParams, t, branches: tuple[str, ...] = BRANCHES
) -> tuple[SpinConstants, np.ndarray]:
    """The branches' ``spin_constants`` and the times t as a float array tau, both checked.

    t is one time or an array of times.  tau is checked by
    ``ModelParams.elapsed``, then every phase by ``check_phases``, with
    their messages: the one check of every route that builds profiles.
    """
    tau = params.elapsed(np.asarray(t, dtype=float))
    spins = spin_constants(params, branches)
    check_phases(spins, tau)
    return spins, tau


def flip_squares(spins: SpinConstants, tau: np.ndarray, keep: np.ndarray, flip: np.ndarray) -> None:
    """Squared kept and flipped amplitudes of every spin on the branches at the 1-D times tau.

    keep and flip, each B x T x N, take cos^2(omega t) + r sin^2(omega t)
    and (1 - r) sin^2(omega t); row [b, k] is branch b at tau[k].  The
    phases go through keep, so nothing else of that size is allocated but
    the product r sin^2.  No check: ``check_phases`` has passed tau.
    """
    np.multiply(spins.omega[:, None], tau[:, None], out=keep)
    np.sin(keep, out=flip)
    np.square(flip, out=flip)
    np.cos(keep, out=keep)
    np.square(keep, out=keep)
    keep += spins.ratio[:, None] * flip
    np.multiply(spins.one_minus[:, None], flip, out=flip)


def branch_flip_profile(params: ModelParams, branch: str, t) -> FlipProfile:
    """Squared per-spin amplitudes of a branch at time t.

    t is one time, giving length-N fields, or a 1-D array of T times,
    giving T x N fields whose row k is bit-identical to the profile at
    t[k].  keep + flip = 1 to a few ulp for every spin (asserted at
    1e-12 in the tests); logs of exact zeros are -inf.  Raises
    ValueError when a phase omega * t overflows (``checked_constants``).
    The branch's slice of the two steps that build both branches at
    once: ``checked_constants`` and ``flip_squares``.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be one time or a 1-D array of times")
    spins, tau = checked_constants(params, times, (branch,))
    keep, flip = np.empty((2, 1, tau.size, params.n_env))
    flip_squares(spins, tau.reshape(-1), keep, flip)
    keep, flip = (a.reshape(times.shape + (params.n_env,)) for a in (keep, flip))
    with np.errstate(divide="ignore"):
        return FlipProfile(keep, flip, np.log(keep), np.log(flip))


def pattern_log_weight(profile: FlipProfile, flipped: np.ndarray) -> float | np.ndarray:
    """Sum over spins of log |G_j|^2 for flip patterns, left to right from spin 1.

    profile holds one time's length-N fields.  flipped is a boolean
    length-N mask (True = spin flipped), giving a float, or an S x N
    mask, giving the S sums.  Exactly -inf when any factor vanishes.

    The sums run spin-major: spin i's S log terms are one row, and the
    rows are added into a running total that starts at 0.  A row is
    chosen exactly on the int64 bits of the two logs (keep bits, XOR the
    keep-flip difference where the spin flipped), so -inf needs no
    special case.  The rows are built in blocks of about LOG_SUM_BLOCK
    elements (at least two rows of S), so the scratch does not grow with N.  An S x N mask is
    transposed once; a spin-major one (the transpose of a C-ordered
    N x S array, as the sampler passes) is used without a copy.  Row 0
    of each block holds the running total, and one ``np.add.reduce``
    over axis 0 of the C-ordered block adds the rows to it in order.

    The order is load-bearing: ``engine.pattern_log_weights`` builds
    every enumerated pattern's sum, of both branches at all of a block's
    times in one time-major array, in the same order, starting from 0;
    the layout moves only where a sum is stored.  So a sampled or
    single-pattern u equals the enumerated u of its pattern bit for bit,
    which the sampler-vs-enumeration KS check
    (acceptance criterion 3) relies on.  A pairwise ``np.sum`` or an
    ``np.add.reduce`` over the spins rounds differently from N = 8 on;
    numpy reduces a one-column block that way too, so a single column
    is summed as two equal ones.
    """
    flipped = np.asarray(flipped, dtype=bool)
    spin_major = flipped[:, None] if flipped.ndim == 1 else np.ascontiguousarray(flipped.T)
    s = spin_major.shape[1]
    if s == 1:
        spin_major = np.repeat(spin_major, 2, axis=1)
    n, width = spin_major.shape
    keep_bits = profile.log_keep.view(np.int64)
    toggle = keep_bits ^ profile.log_flip.view(np.int64)
    k = max(1, min(n, LOG_SUM_BLOCK // width - 1))
    bits = np.empty((k + 1, width), dtype=np.int64)
    block = bits.view(np.float64)
    total = np.zeros(width)
    for i in range(0, n, k):
        m = min(k, n - i)
        np.multiply(spin_major[i : i + k], toggle[i : i + k, None], out=bits[1 : m + 1])
        bits[1 : m + 1] ^= keep_bits[i : i + k, None]
        block[0] = total
        np.add.reduce(block[: m + 1], axis=0, out=total)
    return float(total[0]) if flipped.ndim == 1 else total[:s]


def log_branch_weight(params: ModelParams, branch: str, t: float, pattern: FlipPattern) -> float:
    """Natural log of the branch weight: sum over spins of log |G_j|^2.

    Depends on the flip pattern only (not on initial orientations);
    exactly -inf when any factor vanishes.
    """
    if len(pattern) != params.n_env:
        raise ValueError("pattern length does not match environment size")
    return pattern_log_weight(branch_flip_profile(params, branch, t), pattern.flipped)
