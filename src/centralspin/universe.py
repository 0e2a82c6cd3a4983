"""Brute-force universe oracle: dense Hamiltonian, exact propagation, outcomes.

Builds the full 2^(N+1)-dimensional Hamiltonian of system plus bath,
propagates by eigendecomposition (exact at any time, no stepping error
beyond linear algebra), and enumerates every trajectory outcome
(n_final, n_initial) with its weight as parallel arrays.  Used to
validate the factorized engine and the reduced-density-matrix identity.

H commutes with sz_S, so on the basis below it is block-diagonal: the
system-up sector is indices [0, M) and the system-down sector [M, 2M),
with M = 2^N.  The oracle checks that both off-sector blocks are exactly
zero, then diagonalizes each dense M x M sector block and propagates it
on its own.  Nothing is factorized per spin, so the oracle shares no
assumption with the engines it checks.

Practical for small N only; the cap is N = 12.  The dense real H
takes 8 * 4^(N+1) bytes (512 MiB at N = 12), the two complex sector
propagators 32 * 4^N bytes together (another 512 MiB), and the outcome
arrays 56 bytes per outcome for up to 4^N outcomes (896 MiB), plus eigh
workspace and transient copies.

A time grid takes a lighter path: ``sector_spectra`` builds H and runs
both eigh once, and ``projection_outcomes`` evaluates each time from
them.  Between times the grid holds two real M x M eigenvector matrices,
16 * 4^N bytes (1 MiB at N = 8).  Per time it forms the real C and S
parts of one sector at a time and returns (u, weight) arrays, 16 bytes
per outcome: no complex propagator, outcome state or label.

Basis ordering is documented bit-exactly: a universe basis index is
sys_bit * 2^N + env_index with sys_bit 0 for system up, 1 for down; in
env_index, environment spin j sits at bit N - j, bit value 0 meaning
spin up (+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import EnvironmentTooLarge, FlipPattern, ModelParams, SystemAmplitudes

DEFAULT_CAP = 12
# Outcomes with squared norm g at or below this are dropped (see trajectory_ensemble).
G_FLOOR = 1e-24


@dataclass(frozen=True)
class ThermalEnsemble:
    """Initial bath occupation f_n = exp(-beta E_n) / Z over the product basis; Z is not kept."""

    f: np.ndarray

    def __post_init__(self):
        # Written so that a NaN weight fails it.
        if not (abs(float(np.sum(self.f)) - 1.0) <= 1e-9 and np.all(self.f >= 0)):
            raise ValueError("occupation weights must be a probability vector")


@dataclass
class TrajectoryOutcome:
    """One possible system wave-function with its probability.

    labels = (n_final, n_initial) are environment basis indices; None
    for analytically constructed outcomes.
    """

    phi: np.ndarray
    weight: float
    labels: tuple[int, int] | None = None


@dataclass(frozen=True)
class TrajectoryOutcomes:
    """All trajectory outcomes at one time, as parallel arrays.

    Row k is one outcome: phi[k] its normalized system state, weight[k]
    its probability and labels[k] = (n_final, n_initial).  len() counts
    the outcomes; iterating yields one TrajectoryOutcome per row, whose
    phi is a view into the phi array.
    """

    phi: np.ndarray
    weight: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        k = self.weight.shape
        if len(k) != 1 or self.phi.shape != k + (2,) or self.labels.shape != k + (2,):
            raise ValueError("outcome arrays must be phi (K, 2), weight (K,), labels (K, 2)")

    def __len__(self) -> int:
        return self.weight.size

    def __iter__(self) -> Iterator[TrajectoryOutcome]:
        for phi, weight, labels in zip(self.phi, self.weight.tolist(), self.labels.tolist()):
            yield TrajectoryOutcome(phi, weight, tuple(labels))


def spins_of_index(index: int, n: int) -> tuple[int, ...]:
    """Spin orientations (s_1 .. s_N) of env basis index; spin j at bit N - j."""
    return tuple(1 if ((index >> (n - j)) & 1) == 0 else -1 for j in range(1, n + 1))


def pattern_between(n_initial: int, n_final: int, n: int) -> FlipPattern:
    """Flip pattern d_j = s_j s'_j between two env basis indices."""
    xor = n_initial ^ n_final
    d = [(-1 if ((xor >> (n - j)) & 1) else 1) for j in range(1, n + 1)]
    return FlipPattern(d)


def _spin_sums(n: int) -> np.ndarray:
    """Sum of s_j over the bath for every env index."""
    idx = np.arange(2**n, dtype=np.int64)
    total = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        total += (idx >> bit) & 1
    return (n - 2 * total).astype(float)


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """Dense Hermitian H = H_E + V_SE on the documented product basis.

    H_E = mu * sum_j sz_j and V_SE = sz_S * sum_j (h_j sx_j + nu sz_j);
    the system's own Hamiltonian vanishes.  All entries are real, so the
    matrix is returned as float64 (real symmetric is Hermitian).
    """
    n = params.n_env
    if n > DEFAULT_CAP:
        # H, the two sector propagators and the outcome arrays (module docstring).
        footprint = 8 * 4 ** (n + 1) + 32 * 4**n + 56 * 4**n
        raise EnvironmentTooLarge(
            f"N={n} exceeds cap {DEFAULT_CAP}; "
            f"a dense universe needs ~{footprint / 2 ** 30:.1f} GiB"
        )
    m = 2**n
    dim = 2 * m
    mu, nu = params.mu, params.nu
    sz = _spin_sums(n)

    h_mat = np.zeros((dim, dim))
    # Diagonal: branch up sees (mu + nu) sum sz_j, branch down (mu - nu).
    h_mat[np.arange(m), np.arange(m)] = (mu + nu) * sz
    h_mat[np.arange(m, dim), np.arange(m, dim)] = (mu - nu) * sz
    # Off-diagonal: sx_j flips bit N - j, with sign from sz_S.
    env = np.arange(m)
    for j in range(1, n + 1):
        partner = env ^ (1 << (n - j))
        hj = float(params.h[j - 1])
        h_mat[env, partner] += hj
        h_mat[m + env, m + partner] += -hj
    return h_mat


def thermal_ensemble(params: ModelParams) -> ThermalEnsemble:
    """Thermal bath occupation at inverse temperature params.beta.

    Raises ValueError when a log-weight -beta * E overflows, which
    ``cli.ExperimentConfig.validate`` checks at the extreme energies.
    """
    energies = params.mu * _spin_sums(params.n_env)
    with np.errstate(over="ignore"):
        logw = -params.beta * energies
        if not np.all(np.isfinite(logw)):
            raise ValueError(f"thermal log-weights -beta * E overflow at beta = {params.beta!r}")
        # A shift that overflows to -inf is the exact zero-weight limit.
        shift = logw - np.max(logw)
    w = np.exp(shift)
    total = float(np.sum(w))
    return ThermalEnsemble(w / total)


def sector_spectra(params: ModelParams) -> tuple:
    """Eigenpairs (w, V) of the system-up and system-down sector blocks of H.

    Checks the cap, builds H, checks that both off-sector blocks are
    exactly zero and diagonalizes each M x M sector block; H is released
    on return.  The spectra depend on params alone, so a grid computes
    them once for all its times.
    """
    h_mat = build_hamiltonian(params)
    m = 2 ** params.n_env
    # [H, sz_S] vanishes exactly when both off-sector blocks are zero.
    if np.any(h_mat[:m, m:]) or np.any(h_mat[m:, :m]):
        raise ValueError("H does not commute with sz_S: an off-sector block is non-zero")
    return tuple(np.linalg.eigh(block) for block in (h_mat[:m, :m], h_mat[m:, m:]))


def _cos_sin(spectrum, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) = (V cos(tau w) V^T, V sin(tau w) V^T), so exp(-i tau H_s) = C - i S.

    H is real symmetric, so each sector block has real eigenvectors and
    its propagator is formed as these two real products.  Raises
    ValueError when a phase tau * w overflows.
    """
    w, v = spectrum
    with np.errstate(over="ignore"):
        phase = tau * w
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"phase tau * w must be finite; it overflows at tau = {tau!r}")
    return (v * np.cos(phase)) @ v.T, (v * np.sin(phase)) @ v.T


def _kept(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Outcomes kept from g indexed [n_initial, n_final]: f_n != 0 and g > G_FLOOR.

    A NaN g fails "g <= G_FLOOR" and is kept, so that it shows downstream.
    """
    return (f != 0.0)[:, None] & ~(g <= G_FLOOR)


def _evolved_blocks(
    params: ModelParams, alphas: SystemAmplitudes, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Up and down components of exp(-i tau H)|phi>|n>, indexed [n_final, n_initial].

    Each is a_S times the sector propagator U_s = C - i S.
    """
    tau = params.elapsed(t)
    blocks = []
    for spectrum, amplitude in zip(sector_spectra(params), (alphas.a_up, alphas.a_down)):
        c, s = _cos_sin(spectrum, tau)
        block = np.empty(c.shape, dtype=complex)
        block.real = c
        block.imag = -s
        block *= amplitude
        blocks.append(block)
    return blocks[0], blocks[1]


def trajectory_ensemble(
    params: ModelParams,
    alphas: SystemAmplitudes,
    ensemble: ThermalEnsemble,
    t: float,
) -> TrajectoryOutcomes:
    """All trajectory outcomes (n_final, n_initial) at time t.

    For each initial bath state n with f_n > 0 and each final n', the
    outcome state is the n'-component of the evolved universe vector,
    renormalized; its probability is f_n times the squared norm g.
    Outcomes with g at or below the squared propagator roundoff
    (G_FLOOR = 1e-24) are omitted: under exact arithmetic their
    probability is zero and their direction is pure numerical noise.
    The listed weights still sum to one to the stated tolerance.
    Outcomes are ordered by n_initial, then by n_final.
    """
    m = 2 ** params.n_env
    if ensemble.f.shape != (m,):
        raise ValueError("ensemble size does not match environment size")
    up, down = _evolved_blocks(params, alphas, t)
    # Transposed, row-major order runs over n_initial outer, n_final inner.
    up, down = up.T, down.T
    g = np.abs(up) ** 2
    g += np.abs(down) ** 2
    keep = _kept(ensemble.f, g)
    n_init, n_fin = np.nonzero(keep)
    g = g[keep]
    phi = np.empty((g.size, 2), dtype=complex)
    phi[:, 0] = up[keep]
    phi[:, 1] = down[keep]
    phi /= np.sqrt(g)[:, None]
    return TrajectoryOutcomes(
        phi=phi, weight=ensemble.f[n_init] * g, labels=np.stack((n_fin, n_init), axis=1)
    )


def projection_outcomes(
    params: ModelParams,
    alphas: SystemAmplitudes,
    ensemble: ThermalEnsemble,
    spectra: tuple,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Up-projection u and weight of every trajectory outcome at time t.

    The outcomes of ``trajectory_ensemble`` in its order and with its
    keep rule, from the ``sector_spectra`` of params: u is |phi_up|^2 =
    w_up |U_up|^2 / g and the weight f_n g, with |U_s|^2 = C_s^2 + S_s^2
    and g = w_up |U_up|^2 + w_down |U_down|^2.  No complex propagator,
    outcome state or label is formed.
    """
    tau = params.elapsed(t)
    moduli = []
    for spectrum, branch_weight in zip(spectra, (alphas.w_up, alphas.w_down)):
        c, s = _cos_sin(spectrum, tau)
        c *= c
        s *= s
        c += s
        c *= branch_weight
        # Transposed, row-major order runs over n_initial outer, n_final inner.
        moduli.append(c.T)
    up, down = moduli
    g = up + down
    keep = _kept(ensemble.f, g)
    g_kept = g[keep]
    weight = np.broadcast_to(ensemble.f[:, None], g.shape)[keep] * g_kept
    return up[keep] / g_kept, weight


def reduced_density_check(
    outcomes: TrajectoryOutcomes,
    params: ModelParams,
    alphas: SystemAmplitudes,
    ensemble: ThermalEnsemble,
    t: float,
) -> float:
    """Max elementwise gap between Tr_E rho(t) and sum of P |phi><phi|.

    The left side traces the environment directly out of the evolved
    universe density matrix; the right side resums the supplied
    outcomes.  The two agree to roundoff (contract: <= 1e-9).
    """
    up, down = _evolved_blocks(params, alphas, t)
    columns = np.stack((up, down))
    rho_traced = np.einsum("anm,bnm,m->ab", columns, columns.conj(), ensemble.f)
    rho_ensemble = (outcomes.phi * outcomes.weight[:, None]).T @ outcomes.phi.conj()
    return float(np.max(np.abs(rho_traced - rho_ensemble)))


def phase_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Global-phase-invariant distance 1 - |<x|y>| between unit vectors."""
    return 1.0 - abs(np.vdot(x, y))
