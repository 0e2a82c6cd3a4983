"""Closed-form no-collapse solutions against the numerical oracles."""

import math

import numpy as np
import pytest

from centralspin.analytic import (
    flip_parity_split,
    nu_zero_solution,
    recovery_times,
    zero_h_phase_rate,
    zero_h_solution,
)
from centralspin.core import FlipPattern, ModelParams, SystemAmplitudes
from centralspin.engine import enumerate_outcomes, wavefunction_of_pattern
from centralspin.observables import class_probabilities, time_series
from centralspin.universe import phase_distance, thermal_ensemble, trajectory_ensemble

ALPHAS = SystemAmplitudes.from_up_weight(0.4, 0.8)


class TestZeroCouplingCase:
    def test_initial_time(self):
        out = zero_h_solution(ALPHAS, e_gs=-0.7, t=0.0)
        np.testing.assert_allclose(out.phi, ALPHAS.vector())
        assert out.weight == 1.0

    def test_half_period_is_global_sign_flip(self):
        e = -0.7
        out = zero_h_solution(ALPHAS, e, t=math.pi / e)
        np.testing.assert_allclose(out.phi, -ALPHAS.vector(), atol=1e-12)
        assert phase_distance(out.phi, ALPHAS.vector()) <= 1e-12

    def test_against_cold_universe(self):
        # Ground-state bath at N=2; the dominant outcome must match the
        # counter-rotating closed form with rate nu * M_gs.
        p = ModelParams(delta=0.3, h=(0.0, 0.0), beta=60.0)
        rate = zero_h_phase_rate(p)
        ens = thermal_ensemble(p)
        for t in (0.5, 7.0, 40.0):
            outs = trajectory_ensemble(p, ALPHAS, ens, t)
            dominant = max(outs, key=lambda o: o.weight)
            assert dominant.weight >= 1.0 - 1e-12
            assert phase_distance(dominant.phi, zero_h_solution(ALPHAS, rate, t).phi) <= 1e-9

    def test_phase_rate_precondition(self):
        with pytest.raises(ValueError):
            zero_h_phase_rate(ModelParams(delta=0.3, h=(0.1, 0.0)))

    def test_projection_frozen_in_time(self):
        # Without vertical couplings u never moves, so the quantum mass
        # is constant: no collapse ever happens.
        p = ModelParams(delta=0.3, h=(0.0, 0.0, 0.0))
        series = time_series(p, ALPHAS, [0.0, 3.0, 50.0, 400.0], method="exact")
        np.testing.assert_allclose(series.p_q, 1.0, atol=1e-12)
        for t in (0.0, 3.0, 50.0, 400.0):
            dist = enumerate_outcomes(p, ALPHAS, t)
            assert len(dist) == 1
            assert dist.u[0] == pytest.approx(0.4, abs=1e-12)


class TestNuZeroCase:
    def test_recovery_times_formula(self):
        times = recovery_times(1.0, 0.5, 3)
        np.testing.assert_allclose(times, [m * math.pi / math.hypot(1, 0.5) for m in (1, 2, 3)])

    def test_recovery_returns_initial_state(self):
        t_rec = float(recovery_times(1.0, 0.5, 1)[0])
        states = nu_zero_solution(ALPHAS, 1.0, 0.5, t_rec, n=50)
        assert len(states) == 1
        phi, prob = states[0]
        assert prob == 1.0
        assert phase_distance(phi, ALPHAS.vector()) <= 1e-12

    def test_generic_time_two_equal_branches(self):
        states = nu_zero_solution(ALPHAS, 1.0, 0.5, 3.7, n=50)
        assert [prob for _, prob in states] == [0.5, 0.5]
        plus, minus = states[0][0], states[1][0]
        np.testing.assert_allclose(plus, ALPHAS.vector())
        np.testing.assert_allclose(minus, np.array([ALPHAS.a_up, -ALPHAS.a_down]))

    def test_two_state_support_is_exact_at_finite_n(self):
        # Every enumerated outcome collapses onto one of the two
        # predicted states (sign flip on the down amplitude per flipped
        # spin), even at N = 8.
        p = ModelParams(delta=1.0, h=(0.5,) * 8)
        t = 3.7
        dist = enumerate_outcomes(p, ALPHAS, t)
        plus = ALPHAS.vector()
        minus = np.array([ALPHAS.a_up, -ALPHAS.a_down])
        even_mass = 0.0
        for code, w in zip(dist.pattern_codes, dist.weight):
            pat = FlipPattern.from_code(int(code), 8)
            phi = wavefunction_of_pattern(p, ALPHAS, t, (1,) * 8, pat)
            assert min(phase_distance(phi, plus), phase_distance(phi, minus)) <= 1e-9
            if pat.flip_count % 2 == 0:
                even_mass += float(w)
        even, odd = flip_parity_split(1.0, 0.5, t, 8)
        assert even_mass == pytest.approx(even, abs=1e-12)

    def test_split_approaches_half_as_bath_grows(self):
        t = 3.7
        gap10 = abs(flip_parity_split(1.0, 0.5, t, 10)[0] - 0.5)
        gap16 = abs(flip_parity_split(1.0, 0.5, t, 16)[0] - 0.5)
        assert gap16 < gap10

    def test_enumerated_parity_trend(self):
        # The enumerated mass on the sign-flipped branch approaches 1/2
        # as the bath grows; this is the finite-N shadow of the
        # equal-probability limit.
        t = 3.7
        gaps = []
        for n in (10, 16):
            p = ModelParams(delta=1.0, h=(0.5,) * n)
            dist = enumerate_outcomes(p, ALPHAS, t)
            even_mass = sum(
                float(w)
                for code, w in zip(dist.pattern_codes, dist.weight)
                if bin(int(code)).count("1") % 2 == 0
            )
            gaps.append(abs(even_mass - 0.5))
        assert gaps[1] < gaps[0]

    def test_projection_pinned_at_up_weight(self):
        # u never leaves |a_up|^2, so with epsilon below min(w_up, w_down)
        # no classical mass ever appears.
        p = ModelParams(delta=1.0, h=(0.5,) * 8)
        for t in (0.9, 3.7, 12.0):
            dist = enumerate_outcomes(p, ALPHAS, t)
            assert np.max(np.abs(dist.u - 0.4)) <= 1e-12
            assert class_probabilities(dist, 1e-3) == (0.0, 0.0, 1.0)
