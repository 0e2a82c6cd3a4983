"""Dense-universe oracle: Hamiltonian assembly, propagation, density identity."""

import tracemalloc

import numpy as np
import pytest

from centralspin import universe
from centralspin.core import (
    EnvironmentTooLarge,
    ModelParams,
    SystemAmplitudes,
    dispersed_couplings,
)
from centralspin.engine import ProjectionDistribution, enumerate_outcomes
from centralspin.observables import class_probabilities, distribution_at, prepare, time_series
from centralspin.universe import (
    G_FLOOR,
    TrajectoryOutcome,
    _cos_sin,
    _evolved_blocks,
    build_hamiltonian,
    pattern_between,
    phase_distance,
    projection_outcomes,
    reduced_density_check,
    sector_spectra,
    thermal_ensemble,
    trajectory_ensemble,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID = np.eye(2)


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def hamiltonian_by_terms(params):
    """Independent term-by-term assembly via explicit Kronecker products.

    Ordering matches the documented one: system factor first, then
    environment spins j = 1..N (spin j at bit N - j).
    """
    n = params.n_env
    dim = 2 ** (n + 1)
    h_mat = np.zeros((dim, dim))
    for j in range(1, n + 1):
        env_ops = [ID] * n
        env_ops[j - 1] = SZ
        h_mat += params.mu * kron_chain([ID] + env_ops)
        h_mat += params.nu * kron_chain([SZ] + env_ops)
        env_ops[j - 1] = SX
        h_mat += params.h[j - 1] * kron_chain([SZ] + env_ops)
    return h_mat


def full_propagator(params, t):
    """exp(-i t H) from one eigh of the whole 2^(N+1) Hamiltonian."""
    w, v = np.linalg.eigh(build_hamiltonian(params))
    return (v * np.exp(-1j * t * w)) @ v.T


class TestBuildHamiltonian:
    def test_n1_zero_nu_is_bare_bath(self):
        # delta=1 means mu=1, nu=0, so H is just sz on the bath spin:
        # diag(+1, -1, +1, -1) over |up,+>, |up,->, |down,+>, |down,->.
        h_mat = build_hamiltonian(ModelParams(delta=1.0, h=(0.0,)))
        assert np.array_equal(h_mat, np.diag([1.0, -1.0, 1.0, -1.0]))

    def test_n1_pure_longitudinal(self):
        # delta=-1 means mu=0, nu=1: H = sz_S sz_1, diag(+1, -1, -1, +1).
        h_mat = build_hamiltonian(ModelParams(delta=-1.0, h=(0.0,)))
        assert np.array_equal(h_mat, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = ModelParams(delta=float(rng.uniform(-1, 1)), h=tuple(rng.uniform(-2, 2, 3)))
            h_mat = build_hamiltonian(p)
            assert np.array_equal(h_mat, h_mat.T)

    def test_against_kron_assembly(self):
        p = ModelParams(delta=0.4, h=(0.3, 0.7))
        built = build_hamiltonian(p)
        oracle = hamiltonian_by_terms(p)
        # The vertical-coupling entries come from single additions and
        # must match exactly where sx_j acts.
        off = ~np.eye(8, dtype=bool)
        assert np.array_equal(built[off], oracle[off])
        np.testing.assert_allclose(built, oracle, atol=1e-14)

    def test_cap_enforced(self):
        with pytest.raises(EnvironmentTooLarge):
            build_hamiltonian(ModelParams(delta=0.0, h=(0.1,) * 13))

    def test_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(universe, "DEFAULT_CAP", 4)
        with pytest.raises(EnvironmentTooLarge, match="N=5 exceeds cap 4"):
            build_hamiltonian(ModelParams(delta=0.0, h=(0.1,) * 5))
        assert build_hamiltonian(ModelParams(delta=0.0, h=(0.1,) * 4)).shape == (32, 32)

    def test_cap_message_states_footprint(self):
        # 8*4^14 (H) + 32*4^13 (propagators) + 56*4^13 (outcomes) = 7.5 GiB.
        with pytest.raises(EnvironmentTooLarge, match=r"N=13 exceeds cap 12; .* ~7\.5 GiB$"):
            build_hamiltonian(ModelParams(delta=0.0, h=(0.1,) * 13))


class TestBasisBookkeeping:
    def test_pattern_between(self):
        pat = pattern_between(0b101, 0b001, 3)
        assert pat.d.tolist() == [-1, 1, 1]


class TestThermalEnsemble:
    def test_infinite_temperature_uniform(self):
        p = ModelParams(delta=0.2, h=(0.1, 0.1), beta=0.0)
        ens = thermal_ensemble(p)
        np.testing.assert_allclose(ens.f, 0.25)

    def test_cold_bath_concentrates_on_ground_state(self):
        p = ModelParams(delta=0.2, h=(0.1, 0.1), beta=80.0)
        ens = thermal_ensemble(p)
        # mu > 0: the ground state has all spins down, index 0b11.
        assert ens.f[0b11] == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        p = ModelParams(delta=-0.3, h=(0.4, 0.2, 0.9), beta=1.7)
        assert float(np.sum(thermal_ensemble(p).f)) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_log_weights_raise(self):
        # -beta * E overflows to +-inf at |E| = 2, so the shifted log-weights would be NaN.
        p = ModelParams(delta=0.0, h=(0.1,) * 4, beta=1e308)
        with pytest.raises(ValueError, match="overflow"):
            thermal_ensemble(p)

    def test_overflowing_shift_is_the_zero_weight_limit(self):
        # Every log-weight is finite at n = 3; only the shift of the highest energy overflows.
        p = ModelParams(delta=0.0, h=(0.1,) * 3, beta=1e308)
        want = np.zeros(8)
        want[0b111] = 1.0
        assert np.array_equal(thermal_ensemble(p).f, want)

    def test_nan_occupation_rejected(self):
        with pytest.raises(ValueError, match="probability vector"):
            universe.ThermalEnsemble(np.array([np.nan, 0.5, 0.5]))


class TestTrajectoryEnsemble:
    def test_initial_time_reproduces_initial_state(self):
        p = ModelParams(delta=0.3, h=(0.5, -0.2), beta=0.4)
        a = SystemAmplitudes.from_up_weight(0.3, 1.2)
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, a, ens, 0.0)
        assert sum(o.weight for o in outs) == pytest.approx(1.0, abs=1e-12)
        assert max(phase_distance(o.phi, a.vector()) for o in outs) <= 1e-12

    def test_vanishing_interaction_is_unitary_limit(self):
        # All couplings zero: every outcome is the initial state up to phase.
        p = ModelParams(delta=1.0, h=(0.0, 0.0, 0.0), beta=0.2)
        a = SystemAmplitudes.from_up_weight(0.35, 0.8)
        ens = thermal_ensemble(p)
        for t in (0.5, 5.0, 50.0):
            outs = trajectory_ensemble(p, a, ens, t)
            assert sum(o.weight for o in outs) == pytest.approx(1.0, abs=1e-12)
            assert max(phase_distance(o.phi, a.vector()) for o in outs) <= 1e-12

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(17)
        p = ModelParams(delta=float(rng.uniform(-1, 1)), h=tuple(rng.uniform(-1, 1, 3)), beta=0.6)
        a = SystemAmplitudes.from_up_weight(0.7, 0.3)
        outs = trajectory_ensemble(p, a, thermal_ensemble(p), 5.0)
        assert sum(o.weight for o in outs) == pytest.approx(1.0, abs=1e-9)

    def test_outcome_states_normalized(self):
        p = ModelParams(delta=0.1, h=(0.9, 0.4), beta=0.0)
        a = SystemAmplitudes.from_up_weight(0.5)
        outs = trajectory_ensemble(p, a, thermal_ensemble(p), 3.3)
        for o in outs:
            assert np.linalg.norm(o.phi) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_in_probability(self):
        # Immediately after t0 nearly all probability stays on states
        # overlapping the initial one; the weighted distance vanishes
        # as dt^2 while zero-weight branches may point elsewhere.
        p = ModelParams(delta=0.3, h=(0.6, -0.4), beta=0.4)
        a = SystemAmplitudes.from_up_weight(0.4, 0.5)
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, a, ens, 1e-4)
        weighted = sum(o.weight * phase_distance(o.phi, a.vector()) for o in outs)
        assert weighted <= 1e-6
        dominant = [phase_distance(o.phi, a.vector()) for o in outs if o.weight > 1e-6]
        assert max(dominant) <= 1e-6

    def test_outcomes_not_orthogonal(self):
        # Distinct final states from one initial state overlap in general,
        # so the outcome set is not a measurement basis.
        p = ModelParams(delta=0.2, h=(0.5, 0.3), beta=0.0)
        a = SystemAmplitudes.from_up_weight(0.4)
        outs = trajectory_ensemble(p, a, thermal_ensemble(p), 2.0)
        by_init = {}
        for o in outs:
            by_init.setdefault(o.labels[1], []).append(o.phi)
        found = any(
            abs(np.vdot(group[i], group[k])) > 1e-6
            for group in by_init.values()
            for i in range(len(group))
            for k in range(i + 1, len(group))
        )
        assert found

    def test_rejects_mismatched_ensemble(self):
        p = ModelParams(delta=0.0, h=(0.1, 0.1))
        a = SystemAmplitudes.from_up_weight(0.5)
        bad = thermal_ensemble(ModelParams(delta=0.0, h=(0.1,)))
        with pytest.raises(ValueError):
            trajectory_ensemble(p, a, bad, 1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            universe.ThermalEnsemble(np.array([1.0])),
            thermal_ensemble(ModelParams(delta=0.0, h=(0.1,) * 3)),
        ],
        ids=["one_state", "n3"],
    )
    def test_every_oracle_entry_rejects_a_wrong_size_ensemble(self, bad, monkeypatch):
        # N = 4: a one-state ensemble used to broadcast to 256 outcomes of total weight 16.
        p = ModelParams(delta=0.1, h=(0.1, 0.2, 0.3, 0.4))
        a = SystemAmplitudes.from_up_weight(0.5)
        ens = thermal_ensemble(p)
        spectra = sector_spectra(p)
        outs = trajectory_ensemble(p, a, ens, 3.0)

        def propagated(*args):
            raise AssertionError("propagated before the ensemble size was checked")

        monkeypatch.setattr(universe, "_cos_sin", propagated)
        for call in (
            lambda: trajectory_ensemble(p, a, bad, 3.0),
            lambda: projection_outcomes(p, a, bad, spectra, 3.0),
            lambda: reduced_density_check(outs, p, a, bad, 3.0),
        ):
            with pytest.raises(ValueError, match="ensemble size does not match environment size"):
                call()


class TestReducedDensityCheck:
    def test_zero_at_initial_time(self):
        p = ModelParams(delta=0.3, h=(0.2, 0.8), beta=0.5)
        a = SystemAmplitudes.from_up_weight(0.6, 2.0)
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, a, ens, 0.0)
        assert reduced_density_check(outs, p, a, ens, 0.0) <= 1e-12

    def test_diagonal_evolution_exact(self):
        p = ModelParams(delta=0.4, h=(0.0,), beta=0.3)
        a = SystemAmplitudes.from_up_weight(0.25, 0.7)
        ens = thermal_ensemble(p)
        for t in (1.0, 12.0):
            outs = trajectory_ensemble(p, a, ens, t)
            assert reduced_density_check(outs, p, a, ens, t) <= 1e-12

    def test_generic_parameters(self):
        rng = np.random.default_rng(23)
        p = ModelParams(delta=0.15, h=tuple(rng.uniform(-1, 1, 3)), beta=0.5)
        a = SystemAmplitudes.from_up_weight(0.4, 1.0)
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, a, ens, 7.0)
        assert reduced_density_check(outs, p, a, ens, 7.0) <= 1e-9

    def test_detects_wrong_weights(self):
        p = ModelParams(delta=0.15, h=(0.4, -0.7), beta=0.5)
        a = SystemAmplitudes.from_up_weight(0.4, 1.0)
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, a, ens, 7.0)
        outs.weight[np.argmax(outs.weight)] *= 0.5
        assert reduced_density_check(outs, p, a, ens, 7.0) > 1e-3


class TestSectorPropagation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_propagator(self, n):
        rng = np.random.default_rng(40 + n)
        p = ModelParams(delta=float(rng.uniform(-1, 1)), h=tuple(rng.uniform(-1, 1, n)))
        a = SystemAmplitudes.from_up_weight(float(rng.uniform(0, 1)), float(rng.uniform(0, 6)))
        m = 2**n
        for t in (0.0, 0.7, 13.0):
            full = full_propagator(p, t)
            up, down = _evolved_blocks(p, a, t)
            assert np.max(np.abs(a.a_up * full[:m, :m] - up)) <= 1e-12
            assert np.max(np.abs(a.a_down * full[m:, m:] - down)) <= 1e-12
            assert np.max(np.abs(full[:m, m:])) <= 1e-12
            assert np.max(np.abs(full[m:, :m])) <= 1e-12

    def test_off_sector_entry_raises(self, monkeypatch):
        real = universe.build_hamiltonian

        def leaky(params):
            h_mat = real(params)
            m = 2**params.n_env
            h_mat[0, m] = h_mat[m, 0] = 1e-3
            return h_mat

        monkeypatch.setattr(universe, "build_hamiltonian", leaky)
        p = ModelParams(delta=0.2, h=(0.3, 0.5))
        a = SystemAmplitudes.from_up_weight(0.4)
        with pytest.raises(ValueError, match="sz_S"):
            trajectory_ensemble(p, a, thermal_ensemble(p), 1.0)


    def test_overflowing_phase_raises(self):
        # Every per-spin phase is finite at t = 333, but tau * w reaches about 4 * 2.5e305 * 333.
        p = ModelParams(delta=0.0, h=(2.5e305,) * 4)
        a = SystemAmplitudes.from_up_weight(0.4)
        ensemble, spectra = thermal_ensemble(p), sector_spectra(p)
        u, weight = projection_outcomes(p, a, ensemble, spectra, 1.0)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(weight))
        with pytest.raises(ValueError, match=r"phase tau \* w must be finite"):
            projection_outcomes(p, a, ensemble, spectra, 333.0)
        with pytest.raises(ValueError, match=r"phase tau \* w must be finite"):
            trajectory_ensemble(p, a, ensemble, 333.0)


class TestOutcomeArrays:
    def test_matches_reference_double_loop(self):
        # A frozen spin (h = 0) gives exactly-zero amplitudes and a cold
        # bath gives exactly-zero occupations, so both skips are exercised.
        p = ModelParams(delta=0.3, h=(0.0, 0.6, -0.4), beta=1000.0)
        a = SystemAmplitudes.from_up_weight(0.35, 0.9)
        ens = thermal_ensemble(p)
        t = 4.2
        m = 2**p.n_env
        prop = full_propagator(p, t)
        ref_phi, ref_weight, ref_labels = [], [], []
        for n_init in range(m):
            if ens.f[n_init] == 0.0:
                continue
            for n_fin in range(m):
                up = a.a_up * prop[n_fin, n_init]
                down = a.a_down * prop[m + n_fin, m + n_init]
                g = abs(up) ** 2 + abs(down) ** 2
                if g <= 1e-24:
                    continue
                ref_phi.append(np.array([up, down]) / np.sqrt(g))
                ref_weight.append(ens.f[n_init] * g)
                ref_labels.append((n_fin, n_init))
        assert np.any(ens.f == 0.0)
        assert 0 < len(ref_labels) < np.count_nonzero(ens.f) * m

        outs = trajectory_ensemble(p, a, ens, t)
        assert len(outs) == len(ref_labels)
        assert outs.labels.tolist() == [list(lab) for lab in ref_labels]
        np.testing.assert_allclose(outs.weight, ref_weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(outs.phi, np.array(ref_phi), rtol=0, atol=1e-12)

    def test_iteration_yields_outcome_views(self):
        p = ModelParams(delta=0.1, h=(0.9, 0.4))
        a = SystemAmplitudes.from_up_weight(0.5)
        outs = trajectory_ensemble(p, a, thermal_ensemble(p), 3.3)
        items = list(outs)
        assert len(items) == len(outs) == outs.weight.size
        for k, item in enumerate(items):
            assert isinstance(item, TrajectoryOutcome)
            assert np.shares_memory(item.phi, outs.phi)
            assert item.weight == outs.weight[k]
            assert item.labels == tuple(outs.labels[k].tolist())

    def test_rejects_unparallel_arrays(self):
        with pytest.raises(ValueError):
            universe.TrajectoryOutcomes(
                phi=np.zeros((3, 2), dtype=complex), weight=np.zeros(2), labels=np.zeros((3, 2))
            )


class TestExactUniverseDistribution:
    def test_class_masses_match_enumeration_n8(self):
        p = ModelParams(delta=0.0, h=dispersed_couplings(0.01, 0.02, 8))
        a = SystemAmplitudes.from_up_weight(0.4)
        prepared = prepare(p, a, "exact-universe")
        for t in (66.7, 200.0, 333.3):
            oracle = class_probabilities(distribution_at(prepared, t))
            exact = class_probabilities(enumerate_outcomes(p, a, t))
            assert np.max(np.abs(np.subtract(oracle, exact))) <= 1e-9


# One case per N: delta != 0 or 0, beta > 0 or 0, w_up at 0, 1 and in between.
GRID_CASES = [
    (ModelParams(delta=0.3, h=(0.7,), beta=0.5), 0.0),
    (ModelParams(delta=-0.4, h=(0.2, -0.9)), 1.0),
    (ModelParams(delta=0.2, h=(0.0, 0.6, -0.4), beta=1.3), 0.35),
    (ModelParams(delta=0.0, h=dispersed_couplings(0.3, 0.5, 5), beta=0.7), 0.6),
    (ModelParams(delta=0.05, h=dispersed_couplings(0.01, 0.02, 8), beta=0.2), 0.4),
]
# t = 0 first: there every outcome with n_final != n_initial is dropped by G_FLOOR.
GRID_TIMES = np.array([0.0, 0.9, 3.7, 12.5, 66.7])


def ensemble_masses(params, alphas, t, eps=1e-3):
    """Class masses of the trajectory_ensemble outcomes at t, with u = |phi_up|^2."""
    outs = trajectory_ensemble(params, alphas, thermal_ensemble(params), t)
    u = np.abs(outs.phi[:, 0]) ** 2
    return class_probabilities(ProjectionDistribution(u=u, weight=outs.weight, kind="exact"), eps)


class TestGridPath:
    @pytest.mark.parametrize("params, w_up", GRID_CASES, ids=lambda c: getattr(c, "n_env", c))
    def test_series_matches_trajectory_ensemble(self, params, w_up):
        a = SystemAmplitudes.from_up_weight(w_up, 0.8)
        s = time_series(params, a, GRID_TIMES, method="exact-universe")
        want = np.array([ensemble_masses(params, a, t) for t in GRID_TIMES]).T
        assert np.max(np.abs(np.stack((s.p_up, s.p_down, s.p_q)) - want)) <= 1e-12

    @pytest.mark.parametrize("params, w_up", GRID_CASES, ids=lambda c: getattr(c, "n_env", c))
    def test_outcomes_match_trajectory_ensemble_in_order(self, params, w_up):
        a = SystemAmplitudes.from_up_weight(w_up, 0.8)
        ens = thermal_ensemble(params)
        spectra = sector_spectra(params)
        for t in GRID_TIMES:
            outs = trajectory_ensemble(params, a, ens, t)
            u, weight = projection_outcomes(params, a, ens, spectra, t)
            assert u.shape == weight.shape == outs.weight.shape
            assert np.max(np.abs(u - np.abs(outs.phi[:, 0]) ** 2)) <= 1e-12
            assert np.max(np.abs(weight - outs.weight)) <= 1e-12

    def test_two_eigh_per_grid(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        params, w_up = GRID_CASES[3]
        a = SystemAmplitudes.from_up_weight(w_up)
        time_series(params, a, GRID_TIMES, method="exact-universe")
        assert calls == [(32, 32), (32, 32)]


def reference_projection(params, alphas, ensemble, spectra, t):
    """(C, S) of both sectors and (u, weight), each as one out-of-place expression."""
    tau = params.elapsed(t)
    parts = [((v * np.cos(tau * w)) @ v.T, (v * np.sin(tau * w)) @ v.T) for w, v in spectra]
    up, down = (
        ((c * c + s * s) * branch_weight).T
        for (c, s), branch_weight in zip(parts, (alphas.w_up, alphas.w_down))
    )
    g = up + down
    keep = (ensemble.f != 0.0)[:, None] & ~(g <= G_FLOOR)
    g_kept = g[keep]
    weight = np.broadcast_to(ensemble.f[:, None], g.shape)[keep] * g_kept
    return parts, up[keep] / g_kept, weight


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


# N = 1, 4 and 6, and a cold N = 3 bath whose occupations underflow to exactly 0.
BITWISE_PARAMS = [
    ModelParams(delta=0.3, h=(0.7,), beta=0.5),
    ModelParams(delta=0.0, h=dispersed_couplings(0.3, 0.5, 4), beta=0.7),
    ModelParams(delta=-0.2, h=dispersed_couplings(0.01, 0.02, 6)),
    ModelParams(delta=0.3, h=(0.0, 0.6, -0.4), beta=1000.0),
]
# t = 1e-7: the two-flip outcomes have g near 1e-28 and G_FLOOR drops them.
BITWISE_TIMES = (0.0, 1e-7, 0.9, 12.5)


class TestInPlaceBits:
    """projection_outcomes and _cos_sin give the bits of the out-of-place expressions."""

    @pytest.mark.parametrize("w_up", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("params", BITWISE_PARAMS, ids=["n1", "n4", "n6", "n3_cold"])
    def test_matches_out_of_place_expressions(self, params, w_up):
        a = SystemAmplitudes.from_up_weight(w_up, 0.8)
        ens = thermal_ensemble(params)
        spectra = sector_spectra(params)
        for t in BITWISE_TIMES:
            parts, ref_u, ref_weight = reference_projection(params, a, ens, spectra, t)
            for spectrum, (ref_c, ref_s) in zip(spectra, parts):
                c, s = _cos_sin(spectrum, params.elapsed(t))
                assert same_bits(c, ref_c) and same_bits(s, ref_s)
            u, weight = projection_outcomes(params, a, ens, spectra, t)
            assert same_bits(u, ref_u) and same_bits(weight, ref_weight)

    def test_cases_reach_both_drops(self):
        cold = BITWISE_PARAMS[3]
        assert np.any(thermal_ensemble(cold).f == 0.0)
        p = BITWISE_PARAMS[1]
        a = SystemAmplitudes.from_up_weight(0.4)
        u, _ = projection_outcomes(p, a, thermal_ensemble(p), sector_spectra(p), 1e-7)
        assert 2**p.n_env < u.size < 4**p.n_env

    def test_nan_modulus_is_kept(self):
        g = np.array([[np.nan, 0.0], [1.0, G_FLOOR]])
        keep = universe._kept(np.array([1.0, 0.5]), g)
        assert keep.dtype == bool and keep.tolist() == [[True, False], [True, False]]


class TestPointMemory:
    @pytest.mark.parametrize("n", [8, 9])
    def test_peak_of_one_point(self, n):
        # Besides the spectra, one point holds at most 4.5 M x M float arrays (M = 2^N).
        bound = 4.5 * 8 * 4**n
        p = ModelParams(delta=0.05, h=dispersed_couplings(0.01, 0.02, n), beta=0.2)
        a = SystemAmplitudes.from_up_weight(0.4)
        ens, spectra = thermal_ensemble(p), sector_spectra(p)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            u, weight = projection_outcomes(p, a, ens, spectra, 66.7)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert u.size == weight.size == 4**n
        assert peak <= bound
