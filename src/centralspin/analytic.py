"""Closed-form special cases in which the superposition never collapses.

Two parameter choices admit exact solutions:

* all vertical couplings zero with the bath in its ground state: the
  trajectory is deterministic, the two system amplitudes just rotate
  with opposite phases, and u stays at |a_up|^2 forever;
* nu = 0 with equal couplings: every outcome is exactly
  a_up|up> + (-1)^k a_down|down> with k the number of flipped spins,
  so the state set has two members whose probabilities are the flip
  parity split; in the large-N limit the split is 1/2 each except at
  the recovery times m*pi/sqrt(mu^2 + h^2), where the initial state
  returns with certainty.

The functions below are these solutions, as reference values for the
tests; each checks only the inputs its own formula needs.  They form
omega = sqrt(mu^2 + h^2) with CPython's ``math.hypot`` on purpose, as
a reference independent of ``core``: ``core.spin_constants`` uses
numpy's ``hypot``, which can differ in the last bit, so the tests
compare these values with the engine's within tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelParams, SystemAmplitudes
from .universe import TrajectoryOutcome


def zero_h_phase_rate(params: ModelParams) -> float:
    """Effective counter-rotation rate E for the zero-coupling ground-state case.

    With h_j = 0 the bath configuration is frozen and the branches
    accumulate phases exp(-i t (mu +- nu) M) with M the total bath
    orientation; stripping the global part leaves
    a_up e^{-i t E} |up> + a_down e^{+i t E} |down> with E = nu * M.
    At zero temperature M = -N * sign(mu) (all spins aligned against
    the splitting), so E = -nu * N for mu > 0.
    """
    if np.any(params.h != 0.0):
        raise ValueError("zero-coupling solution requires all h_j = 0")
    m_gs = -params.n_env if params.mu > 0 else params.n_env
    return params.nu * m_gs


def zero_h_solution(alphas: SystemAmplitudes, e_gs: float, t: float) -> TrajectoryOutcome:
    """Deterministic state a_up e^{-i t E}|up> + a_down e^{i t E}|down>, weight 1.

    The phase parameter is supplied by the caller; for a ground-state
    bath the physically matching value is zero_h_phase_rate(params).
    """
    phi = np.array(
        [alphas.a_up * np.exp(-1j * t * e_gs), alphas.a_down * np.exp(1j * t * e_gs)],
        dtype=complex,
    )
    return TrajectoryOutcome(phi=phi, weight=1.0, labels=None)


def recovery_times(mu: float, h: float, m_max: int) -> np.ndarray:
    """m * pi / sqrt(mu^2 + h^2) for m = 1 .. m_max.

    omega is ``math.hypot``'s, not ``core``'s (module docstring), so
    ``observables.revival_times`` can differ from it in the last bit.
    """
    omega = math.hypot(mu, h)
    if omega == 0.0:
        return np.empty(0)
    return np.arange(1, m_max + 1, dtype=float) * math.pi / omega


def flip_parity_split(mu: float, h: float, t: float, n: int) -> tuple[float, float]:
    """Exact finite-N probabilities of an even / odd number of flipped spins.

    At nu = 0 both branches flip each spin independently with
    p = (h^2 / (mu^2 + h^2)) sin^2(omega t), so the parity probability
    is (1 +- (1 - 2p)^N) / 2.  Used by the trend tests that watch the
    split approach 1/2 as N grows.  omega is ``math.hypot``'s, not
    ``core``'s (module docstring).
    """
    omega = math.hypot(mu, h)
    p = (h / omega) ** 2 * math.sin(omega * t) ** 2 if omega > 0 else 0.0
    even = 0.5 * (1.0 + (1.0 - 2.0 * p) ** n)
    return even, 1.0 - even


def nu_zero_solution(
    alphas: SystemAmplitudes, mu: float, h: float, t: float, n: int
) -> list[tuple[np.ndarray, float]]:
    """Large-N outcome set at nu = 0 with equal couplings h.

    For almost all times the state is a_up|up> + a_down|down> or
    a_up|up> - a_down|down> with probability 1/2 each; exactly at the
    recovery times (where sin(omega t) = 0) the initial state comes
    back with probability 1.  This is an asymptotic (N -> infinity)
    statement; at finite N the two-state support is still exact but the
    split is flip_parity_split instead of 1/2.  omega is
    ``math.hypot``'s, not ``core``'s (module docstring).
    """
    if n < 1:
        raise ValueError("need at least one environment spin")
    omega = math.hypot(mu, h)
    plus = np.array([alphas.a_up, alphas.a_down], dtype=complex)
    minus = np.array([alphas.a_up, -alphas.a_down], dtype=complex)
    # Recovery detection needs a tolerance: float pi never makes the
    # sine vanish exactly.
    at_node = omega == 0.0 or h == 0.0 or abs(math.sin(omega * t)) <= 1e-12
    if at_node:
        return [(plus, 1.0)]
    return [(plus, 0.5), (minus, 0.5)]
