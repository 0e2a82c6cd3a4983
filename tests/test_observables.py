"""Classification, series assembly, revivals, histograms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralspin import engine, universe
from centralspin import observables as obs
from centralspin.cli import ExperimentConfig, run_config
from centralspin.core import ModelParams, SystemAmplitudes, dispersed_couplings, spin_spectral
from centralspin.engine import (
    GRID_BLOCK_ATOMS,
    PROFILE_CHUNK_ENTRIES,
    ProjectionDistribution,
    binomial_outcomes,
    enumerate_outcomes,
    sample_outcomes,
)
from centralspin.observables import (
    ObservableSeries,
    class_probabilities,
    classify,
    distribution_at,
    first_collapse_time,
    histogram,
    revival_times,
    time_series,
)

ALPHAS = SystemAmplitudes.from_up_weight(0.4)


class TestClassify:
    def test_boundaries_are_closed(self):
        eps = 1e-3
        assert classify(0.0, eps) == "down"
        assert classify(eps, eps) == "down"
        assert classify(1.0, eps) == "up"
        assert classify(1.0 - eps, eps) == "up"

    def test_interior_is_quantum(self):
        assert classify(0.4, 1e-3) == "quantum"
        assert classify(0.0011, 1e-3) == "quantum"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(1.5, 1e-3)
        with pytest.raises(ValueError):
            classify(0.4, 0.6)
        with pytest.raises(ValueError):
            classify(0.4, 0.0)


class TestClassProbabilities:
    def test_single_quantum_atom(self):
        dist = ProjectionDistribution(u=np.array([0.4]), weight=np.array([1.0]), kind="exact")
        assert class_probabilities(dist, 1e-3) == (0.0, 0.0, 1.0)

    def test_empty_distribution_rejected(self):
        dist = ProjectionDistribution(u=np.empty(0), weight=np.empty(0), kind="exact")
        with pytest.raises(ValueError):
            class_probabilities(dist)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        dist = ProjectionDistribution(
            u=rng.random(50), weight=np.full(50, 0.02), kind="exact"
        )
        p_up, p_down, p_q = class_probabilities(dist, 0.2)
        assert p_up + p_down + p_q == pytest.approx(1.0, abs=1e-12)

    def test_quantum_mass_shrinks_with_epsilon(self):
        rng = np.random.default_rng(8)
        dist = ProjectionDistribution(
            u=rng.random(200), weight=np.full(200, 1 / 200), kind="exact"
        )
        previous = 1.1
        for eps in (0.01, 0.05, 0.1, 0.3, 0.49):
            p_q = class_probabilities(dist, eps)[2]
            assert p_q <= previous + 1e-12
            previous = p_q


@settings(max_examples=40, deadline=None)
@given(
    eps_small=st.floats(0.001, 0.2),
    eps_big=st.floats(0.2, 0.499),
    seed=st.integers(0, 1000),
)
def test_pq_monotone_in_epsilon(eps_small, eps_big, seed):
    rng = np.random.default_rng(seed)
    dist = ProjectionDistribution(u=rng.random(64), weight=np.full(64, 1 / 64), kind="exact")
    assert class_probabilities(dist, eps_big)[2] <= class_probabilities(dist, eps_small)[2] + 1e-12


class TestTimeSeries:
    def test_initial_point_is_fully_quantum(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 6)
        series = time_series(p, ALPHAS, [0.0], method="exact")
        assert (series.p_up[0], series.p_down[0], series.p_q[0]) == (0.0, 0.0, 1.0)

    def test_pointwise_sum_rule(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 8)
        grid = np.linspace(0.5, 320, 40)
        series = time_series(p, ALPHAS, grid, method="exact")
        total = series.p_up + series.p_down + series.p_q
        assert np.max(np.abs(total - 1.0)) <= 1e-9

    def test_superposition_revives_at_node_times(self):
        # Constant couplings, N=10: the quantum mass returns to ~1 in a
        # neighborhood of every m*pi/omega_down.
        p = ModelParams(delta=0.0, h=(0.01,) * 10)
        t_node = float(revival_times(p, 1)[0])
        series = time_series(p, ALPHAS, [t_node - 1.0, t_node + 1.0], method="exact")
        assert np.all(series.p_q >= 0.9)
        mid = time_series(p, ALPHAS, [t_node / 2], method="exact")
        assert mid.p_q[0] <= 0.1

    def test_collapse_faster_for_larger_bath(self):
        grid = (np.arange(600) + 0.5) * (400.0 / 600)
        t_collapse = {}
        for n in (10, 80):
            p = ModelParams(delta=0.0, h=(0.01,) * n)
            series = time_series(p, ALPHAS, grid, method="binomial")
            t_collapse[n] = first_collapse_time(series)
        assert t_collapse[80] is not None and t_collapse[10] is not None
        assert t_collapse[80] < t_collapse[10]

    def test_sampled_series_deterministic(self):
        p = ModelParams(delta=0.0, h=dispersed_couplings(0.02, 0.01, 18))
        grid = [10.0, 50.0, 90.0]
        one = time_series(p, ALPHAS, grid, method="sampled", samples=4000, seed=12)
        two = time_series(p, ALPHAS, grid, method="sampled", samples=4000, seed=12)
        assert np.array_equal(one.p_q, two.p_q)

    def test_exact_universe_method_agrees(self):
        p = ModelParams(delta=0.2, h=(0.3, -0.6), beta=0.4)
        grid = [1.5, 9.0]
        a = time_series(p, ALPHAS, grid, method="exact")
        b = time_series(p, ALPHAS, grid, method="exact-universe")
        np.testing.assert_allclose(a.p_q, b.p_q, atol=1e-9)

    def test_unknown_method(self):
        p = ModelParams(delta=0.0, h=(0.01,))
        with pytest.raises(ValueError):
            time_series(p, ALPHAS, [1.0], method="magic")

    def test_decreasing_grid_rejected(self):
        p = ModelParams(delta=0.0, h=(0.01,))
        with pytest.raises(ValueError):
            time_series(p, ALPHAS, [2.0, 1.0], method="exact")

    @pytest.mark.parametrize(
        "method, times, message",
        [
            ("binomial", [[1.0, 2.0], [3.0, 4.0]], "1-D"),
            ("exact", [[1.0, 2.0]], "1-D"),
            ("exact", [1.0, math.nan, 3.0], "finite"),
            ("binomial", [1.0, math.nan], "finite"),
            ("sampled", [1.0, math.inf], "finite"),
            ("exact", [1.0, 3.0, 2.0], "increasing"),
            ("binomial", [1.0, 2.0, 2.0], "increasing"),
        ],
    )
    def test_bad_grid_rejected_before_any_point(self, monkeypatch, method, times, message):
        calls = []

        def counted(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(obs, "distribution_at", counted(obs.distribution_at))
        monkeypatch.setattr(engine, "_block_masses", counted(engine._block_masses))
        p = ModelParams(delta=0.0, h=(0.01,) * 4)
        with pytest.raises(ValueError, match=message):
            time_series(p, ALPHAS, times, method=method, samples=100)
        assert calls == []


def _per_point(params, alphas, times, method, eps=1e-3):
    """Reference: one distribution_at + class_probabilities per grid point."""
    prepared = obs.prepare(params, alphas, method)
    dists = [distribution_at(prepared, float(t)) for t in times]
    masses = np.array([class_probabilities(d, eps) for d in dists])
    return masses.T, sum(d.dropped for d in dists)


# Each method's engine called directly, as a caller without ``prepare`` would.
DIRECT = {
    "exact": lambda p, a, t: enumerate_outcomes(p, a, t),
    "binomial": lambda p, a, t: binomial_outcomes(p, a, t),
    "sampled": lambda p, a, t: sample_outcomes(p, a, t, 3000, 11, 2),
    "exact-universe": lambda p, a, t: ProjectionDistribution(
        *universe.projection_outcomes(
            p, a, universe.thermal_ensemble(p), universe.sector_spectra(p), t
        ),
        kind="exact",
    ),
}


class TestPrepare:
    P4 = ModelParams(delta=0.2, h=(0.3,) * 4, beta=0.4)

    @pytest.mark.parametrize("method", obs.METHODS)
    def test_point_function_is_the_engine(self, method):
        prepared = obs.prepare(self.P4, ALPHAS, method, samples=3000, workers=2)
        got = distribution_at(prepared, 7.3, 11)
        want = DIRECT[method](self.P4, ALPHAS, 7.3)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.weight, want.weight)
        assert (got.kind, got.dropped) == (want.kind, want.dropped)
        if want.pattern_codes is None:
            assert got.pattern_codes is None
        else:
            assert np.array_equal(got.pattern_codes, want.pattern_codes)

    def test_unknown_method_raises_before_any_work(self, monkeypatch):
        calls = []
        for module, name in [
            (engine, "branch_flip_profile"),
            (engine, "log_factorials"),
            (universe, "sector_spectra"),
        ]:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError) as info:
            obs.prepare(self.P4, ALPHAS, "magic")
        assert all(repr(method) in str(info.value) for method in obs.METHODS)
        assert calls == []

    def test_binomial_run_prepares_once(self, monkeypatch):
        # One BinomialGrid per run serves every grid and histogram point.
        grids = []

        class Counted(engine.BinomialGrid):
            def __init__(self, *args):
                grids.append(args)
                super().__init__(*args)

        monkeypatch.setattr(engine, "BinomialGrid", Counted)
        times = np.linspace(1.0, 9.0, 5)
        obs.evaluate(self.P4, ALPHAS, times, (2.0, 4.0), method="binomial")
        assert len(grids) == 1 and np.array_equal(grids[0][1], times)


class TestLogitCutoffs:
    # The last eps: the largest below 0.5, for which 1 - eps rounds to 0.5, so u = 0.5 is up.
    # The smallest subnormal eps, and 2^-54, for which 1 - eps rounds to 1.
    @pytest.mark.parametrize(
        "eps",
        [1e-3, 1e-6, 0.25, 0.4999, 1e-12, 0.49999999999999994, 5e-324, 2.0**-54, 1e-300, 0.1],
    )
    def test_reproduce_the_u_tests(self, eps):
        c_up, c_down = obs.logit_cutoffs(eps)
        ulps = np.arange(-2000, 2001)
        near = [(np.array(c).view(np.int64) + ulps).view(np.float64) for c in (c_up, c_down)]
        x = np.concatenate(
            near + [np.random.default_rng(7).normal(0.0, 40.0, 10**6), [math.inf, -math.inf, 0.0, -0.0]]
        )
        u = engine.u_from_x(x)
        assert np.array_equal(x <= c_up, u >= 1.0 - eps)
        assert np.array_equal(x > c_down, u <= eps)
        # Each cutoff is the last float on its side.
        assert engine.u_from_x(c_up) >= 1.0 - eps > engine.u_from_x(np.nextafter(c_up, math.inf))
        assert engine.u_from_x(c_down) > eps >= engine.u_from_x(np.nextafter(c_down, math.inf))

    # A threshold at zero, at the smallest subnormal and on the float just below a power of two.
    @pytest.mark.parametrize("cut", [0.0, 5e-324, -5e-324, np.nextafter(2.0, 0.0), -np.nextafter(0.5, 0.0)])
    def test_bisection_ends_on_the_last_passing_float(self, cut):
        got = obs._last_passing(lambda x: x <= cut, -800.0, 710.0)
        assert got == cut and math.copysign(1.0, got) == math.copysign(1.0, cut)

    def test_nan_is_in_neither_class(self):
        c_up, c_down = obs.logit_cutoffs(1e-3)
        assert not math.nan <= c_up and not math.nan > c_down

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            obs.logit_cutoffs(0.5)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 0.25, 0.4999, 1e-12])
    def test_cached_equals_a_fresh_search(self, eps):
        assert obs.logit_cutoffs(eps) == obs.logit_cutoffs.__wrapped__(eps)
        assert obs.logit_cutoffs(eps) == obs.logit_cutoffs.__wrapped__(eps)


def _block_peak(n, chunk_size, monkeypatch, traced):
    """tracemalloc peak of a one-block grid at N = n whose tables are its slices of a chunk's."""
    block = max(1, GRID_BLOCK_ATOMS >> n)
    chunk_times = np.linspace(1.0, 100.0, chunk_size)
    times = chunk_times[:block]
    params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
    cutoffs = obs.logit_cutoffs(1e-3)
    table = engine.branch_log_rows(params, chunk_times)
    k = engine._low_spins(n, chunk_times.size)
    low = engine.low_spin_table(table, k, np.empty(chunk_times.size << k))
    monkeypatch.setattr(engine, "_log_rows", lambda *args: table[:, :, :block])
    monkeypatch.setattr(engine, "low_spin_table", lambda *args: low[:, :block])
    engine.exact_class_masses(params, ALPHAS, times, cutoffs)
    return traced(lambda: engine.exact_class_masses(params, ALPHAS, times, cutoffs))[2]


class TestExactBlockMemory:
    @pytest.mark.parametrize("n", [10, 13])
    def test_peak_of_one_block(self, n, monkeypatch, traced):
        # Three block-sized float arrays, the workspace, built in the measure, and numpy's buffers
        # for the doubling's adds at engine.DOUBLING_BUFSIZE (at numpy's default 8192 they take
        # 130 KiB at N = 10): at most two operands of DOUBLING_BUFSIZE floats, 8 KiB, since
        # every step reads a compact src.  The chunk's profile and low-spin tables are built
        # before it (TestProfileChunks bounds them).
        peak = _block_peak(n, max(1, GRID_BLOCK_ATOMS >> n), monkeypatch, traced)
        assert peak <= 3 * 8 * GRID_BLOCK_ATOMS + 16 * 1024

    @pytest.mark.parametrize("n", [10, 13])
    def test_peak_of_one_block_of_a_chunk(self, n, monkeypatch, traced):
        # The same bound for a block whose tables are its slices of a whole chunk's, as on a
        # longer grid.  There the low-spin table has fewer spins (k = 5 at N = 10, against 7 for
        # one block's), and a doubling step narrower than numpy's buffer that read a strided src
        # took a third operand buffer, 3 KiB over the bound.
        peak = _block_peak(n, _chunk_times(n), monkeypatch, traced)
        assert peak <= 3 * 8 * GRID_BLOCK_ATOMS + 16 * 1024


class TestExactGridMemory:
    @pytest.mark.parametrize("n", [10, 13])
    def test_peak_of_a_one_block_grid_as_it_runs(self, n, traced):
        # The block bound plus the chunk's profile table and low-spin table at their budgets.
        times = np.linspace(1.0, 100.0, max(1, GRID_BLOCK_ATOMS >> n))
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        cutoffs = obs.logit_cutoffs(1e-3)
        engine.exact_class_masses(params, ALPHAS, times, cutoffs)
        _, _, peak = traced(lambda: engine.exact_class_masses(params, ALPHAS, times, cutoffs))
        bound = (
            3.5 * 8 * GRID_BLOCK_ATOMS + 16 * 1024
            + 8 * engine.LOW_SPIN_ENTRIES + 32 * PROFILE_CHUNK_ENTRIES
        )
        assert bound == 401_408
        assert peak <= bound


class TestExactGridTiles:
    @pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
    def test_masses_do_not_depend_on_the_tile_size(self, n, monkeypatch):
        # Dispersed couplings with one zero coupling, whose flip weighs exactly 0, so half the
        # patterns are dropped at every time and all but one at t = 0 (whole tiles keep
        # nothing); and equal couplings with all weight on the up branch.  TILE_BITS = n is
        # one whole-time block per time, or several times per block up to N = 13.
        times = np.array([0.0, 0.7, 37.0, 350.0])
        h = np.concatenate(([0.0], dispersed_couplings(0.05, 0.4, n)[1:]))
        cases = [
            (ModelParams(delta=0.3, h=h), ALPHAS),
            (ModelParams(delta=0.01, h=(0.01,) * n), SystemAmplitudes.from_up_weight(1.0)),
        ]
        cutoffs = obs.logit_cutoffs(1e-3)
        for case, (params, alphas) in enumerate(cases):
            results = []
            for bits in range(8, n + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "TILE_BITS", bits)
                    masses, dropped = engine.exact_class_masses(params, alphas, times, cutoffs)
                results.append((masses.tobytes(), dropped))
            assert results == [results[-1]] * len(results)
            assert case == 1 or results[0][1] > 1 << n

    @pytest.mark.parametrize("bits", [8, 9])
    def test_a_row_that_keeps_no_atom_raises(self, bits, monkeypatch):
        # At t = 0 the no-flip pattern weighs 1, and at t = 37 every pattern weighs less.  A
        # floor between the two empties the second row only, in one tile of 2^9 or two of 2^8.
        params = ModelParams(delta=0.3, h=dispersed_couplings(0.05, 0.4, 9))
        top = enumerate_outcomes(params, ALPHAS, 37.0).weight.max()
        monkeypatch.setattr(engine, "TILE_BITS", bits)
        monkeypatch.setattr(engine, "WEIGHT_FLOOR", (1.0 + top) / 2)
        times, cutoffs = np.array([0.0, 37.0]), obs.logit_cutoffs(1e-3)
        with pytest.raises(ValueError, match="empty distribution"):
            engine.exact_class_masses(params, ALPHAS, times, cutoffs)

    def test_tile_tree_equals_numpy_row_sum(self):
        # Two rows per size, as the two class masses: exponents over [-60, 60] and over
        # [-1000, 1000], 30% zeros.  Tiles from numpy's 128-entry pairwise leaf to the row.
        rng = np.random.default_rng(2021)
        running_differs = 0
        for m in range(8, 21):
            size = 1 << m
            x = np.ldexp(rng.random((2, size)), rng.integers(-60, 61, (2, size)) * [[1], [16]])
            x[rng.random((2, size)) < 0.3] = 0.0
            want = x.sum(axis=1)
            for bits in range(7, m + 1):
                tiles = x.reshape(-1, 1 << bits).sum(axis=1).reshape(2, -1)
                assert engine.tile_tree_sum(tiles).tobytes() == want.tobytes()
                running_differs += np.cumsum(tiles, axis=1)[:, -1].tobytes() != want.tobytes()
        # A running sum of the tiles rounds differently, so the test tells the orders apart.
        assert running_differs > 0

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_peak_of_a_one_time_grid_is_five_tile_arrays(self, n, traced):
        # The workspace's three tile arrays and both branches' bases, the same at every N above
        # TILE_BITS, plus the allowance of TestExactGridMemory for the profile and low-spin
        # tables.  A whole-time block took three arrays of 8 * 2^N bytes: 6 MiB at N = 18.
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        cutoffs = obs.logit_cutoffs(1e-3)

        def grid():
            return engine.exact_class_masses(params, ALPHAS, np.array([100.0]), cutoffs)

        grid()
        _, _, peak = traced(grid)
        tile = 8 << engine.TILE_BITS
        bound = 5 * tile + 16 * 1024 + 8 * engine.LOW_SPIN_ENTRIES + 32 * PROFILE_CHUNK_ENTRIES
        assert bound == 1_368_064
        assert peak <= bound


def _chunk_times(n):
    step = max(1, GRID_BLOCK_ATOMS >> n)
    return step * max(1, PROFILE_CHUNK_ENTRIES // (step * n))


def _series_peak(traced, params, times):
    """tracemalloc peak of one exact time_series, after a warm-up one, above the start."""

    def series():
        return time_series(params, ALPHAS, times, method="exact")

    series()
    return traced(series)[2]


class TestProfileChunks:
    def test_peak_does_not_grow_with_grid_length(self, traced):
        n = 10
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        chunk = _chunk_times(n)
        short = _series_peak(traced, params, np.linspace(1.0, 100.0, chunk))
        long = _series_peak(traced, params, np.linspace(1.0, 100.0, 20 * chunk))
        # The long grid's own masses, 3 floats per extra time (21.4 KiB at 48 times per chunk),
        # are all that may grow, with slack of a quarter of one chunk's profile table.
        assert long - short <= 3 * 8 * 19 * chunk + 8 * PROFILE_CHUNK_ENTRIES

    @pytest.mark.parametrize("n", [1, 5, 10, 13])
    def test_one_table_per_chunk(self, n, monkeypatch):
        # Both branches' table of a chunk is one fill, from constants formed once per grid; the
        # grid never calls the one-branch profile.
        calls = []

        def counted(*args):
            calls.append(args[1].size)
            return real(*args)

        real = engine._log_rows
        monkeypatch.setattr(engine, "_log_rows", counted)
        monkeypatch.setattr(engine, "branch_flip_profile", lambda *args: calls.append(args))
        constants = []
        real_constants = engine.checked_constants
        monkeypatch.setattr(
            engine, "checked_constants",
            lambda *args: constants.append(args) or real_constants(*args),
        )
        chunk = _chunk_times(n)
        size = 3 * chunk + 1
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        time_series(params, ALPHAS, np.linspace(1.0, 100.0, size), method="exact")
        assert calls == [chunk] * 3 + [1]
        assert len(constants) == 1


def _one_time_blocks(params, alphas, times, patch):
    """The exact series with one whole time per block and one block per chunk."""
    with patch.context() as one:
        one.setattr(engine, "TILE_BITS", params.n_env)
        one.setattr(engine, "GRID_BLOCK_ATOMS", 1 << params.n_env)
        one.setattr(engine, "PROFILE_CHUNK_ENTRIES", 1)
        return time_series(params, alphas, times, method="exact")


def _assert_same_series(a, b):
    for name in ("p_up", "p_down", "p_q"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.dropped == b.dropped


class TestGridWorkspace:
    @pytest.mark.parametrize("n", [14, 16, 18])
    def test_large_n_grids_equal_one_time_blocks_bitwise(self, n, monkeypatch):
        # The default layout (one time per block at N = 14, tiles above TILE_BITS) and whole-time
        # blocks of three times over 7 times, whose last block is one time short of a view of
        # its own, give the series of one whole time per block.
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        times = np.linspace(1.0, 350.0, 7)
        want = _one_time_blocks(params, ALPHAS, times, monkeypatch)
        _assert_same_series(time_series(params, ALPHAS, times, method="exact"), want)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "GRID_BLOCK_ATOMS", 3 << n)
            patch.setattr(engine, "TILE_BITS", n)
            _assert_same_series(time_series(params, ALPHAS, times, method="exact"), want)

    @pytest.mark.parametrize("sizes", [(10, 12), (14, 11), (5, 13)])
    def test_grids_run_back_to_back_keep_no_stale_data(self, sizes, monkeypatch):
        times = np.concatenate(([0.0], np.linspace(0.7, 350.0, 29)))
        cases = [
            (ModelParams(delta=0.3, h=np.concatenate(([0.0], dispersed_couplings(0.05, 0.4, n)[1:]))), w_up)
            for n in sizes
            for w_up in (0.0, 0.4, 1.0)
        ]
        cases = [(params, SystemAmplitudes.from_up_weight(w_up)) for params, w_up in cases]
        want = [_one_time_blocks(params, alphas, times, monkeypatch) for params, alphas in cases]
        for _ in range(2):
            for (params, alphas), series in zip(cases, want):
                _assert_same_series(time_series(params, alphas, times, method="exact"), series)

    @pytest.mark.parametrize("n", [3, 10, 14, 16])
    def test_one_workspace_per_grid(self, n, monkeypatch):
        built = []

        def counted(n_env, times, tiles):
            built.append(times)
            return real(n_env, times, tiles)

        real = engine.block_workspace
        monkeypatch.setattr(engine, "block_workspace", counted)
        step = max(1, GRID_BLOCK_ATOMS >> n)
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        for size in sorted({1, max(1, step - 1), step, step + 1, 3 * _chunk_times(n) + 1}):
            built.clear()
            time_series(params, ALPHAS, np.linspace(1.0, 100.0, size), method="exact")
            assert built == [min(step, size)]

    def test_low_spin_table_is_the_largest_within_its_bound(self):
        for n in range(1, 21):
            step = max(1, GRID_BLOCK_ATOMS >> n)
            for times in sorted({1, step, _chunk_times(n), 1000, 5000}):
                k = engine._low_spins(n, times)
                assert (2 << k) * times <= engine.LOW_SPIN_ENTRIES or k == 0
                assert k == n or (4 << k) * times > engine.LOW_SPIN_ENTRIES

    def test_over_cap_grid_raises_before_allocating(self, traced):
        params = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 21))
        times = np.linspace(1.0, 100.0, 6)
        obs.logit_cutoffs(1e-3)

        def over_cap():
            with pytest.raises(engine.EnvironmentTooLarge, match="N=21"):
                time_series(params, ALPHAS, times, method="exact")

        _, _, peak = traced(over_cap)
        assert peak < 64 * 1024


def _exact_grid_cases(n):
    """A grid from t = 0 and (params, alphas) with one zero coupling, two deltas, three w_up.

    The grid length is no multiple of the block wherever the block exceeds one time.
    """
    size = 7 if n >= 11 else 131
    assert size % max(1, GRID_BLOCK_ATOMS >> n) != 0 or n >= 13
    times = np.concatenate(([0.0], np.linspace(0.7, 350.0, size - 1)))
    h = np.concatenate(([0.0], dispersed_couplings(0.05, 0.4, n)[1:]))
    cases = [
        (ModelParams(delta=delta, h=h), SystemAmplitudes.from_up_weight(w_up))
        for delta in (0.0, 0.3)
        for w_up in (0.0, 0.4, 1.0)
    ]
    return times, cases


def _one_time_block(params, alphas, t):
    """(x, weight, keep) of the one-time block at t, formed by ``enumerate_outcomes``' own calls."""
    n = params.n_env
    ws = engine.block_workspace(n, 1)
    rows = engine.branch_log_rows(params, np.array([t]))
    with engine._grid_state():
        engine.pattern_log_weights(rows, np.zeros((2, 1, 1)), ws.logs, ws.spare)
        return tuple(a[0] for a in engine._mix_block(engine._mixture(alphas), ws))


class TestSampledGridMemory:
    def test_one_point_alive_at_a_time(self, traced):
        # Point i's u goes before point i + 1 is drawn, so three points peak as one does;
        # holding the previous point would add its 8 bytes per draw, 2 MiB here.
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 8))
        count = 32 * engine.SAMPLE_CHUNK

        def peak(times):
            def run():
                return obs.evaluate(p, ALPHAS, times, method="sampled", samples=count, seed=3)

            run()
            return traced(run)[2]

        one = peak([150.0])
        three = peak([50.0, 150.0, 250.0])
        assert three <= one + 64 * 1024 < one + 8 * count


class TestGridEvaluator:
    @pytest.mark.parametrize("n", [1, 2, 5, 11, 12, 13])
    def test_exact_blocks_equal_per_point_bitwise(self, n, monkeypatch):
        # Block and chunk rows are independent: many times per block and blocks per chunk
        # give the series of one time per block and one block per chunk.
        times, cases = _exact_grid_cases(n)
        for params, alphas in cases:
            grid = time_series(params, alphas, times, method="exact")
            with monkeypatch.context() as patch:
                patch.setattr(engine, "GRID_BLOCK_ATOMS", 1 << n)
                patch.setattr(engine, "PROFILE_CHUNK_ENTRIES", 1)
                single = time_series(params, alphas, times, method="exact")
            for name in ("p_up", "p_down", "p_q"):
                assert np.array_equal(getattr(grid, name), getattr(single, name))
            assert grid.dropped == single.dropped

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_block_and_chunk_budgets_leave_the_bits(self, n, monkeypatch):
        # Blocks of 12288 atoms (12, 6 and 3 times) and of 3 << n atoms (3 times), whose length
        # is no power of two, under both chunk budgets, 256 profile / 2048 low-spin entries and
        # 512 / 3072 (24 and 48 times at N = 10), give the series of one time per block and one
        # block per chunk.
        times, cases = _exact_grid_cases(n)
        for params, alphas in cases:
            want = _one_time_blocks(params, alphas, times, monkeypatch)
            for atoms in (12288, 3 << n):
                for profile_entries, low_entries in ((256, 2048), (512, 3072)):
                    with monkeypatch.context() as patch:
                        patch.setattr(engine, "GRID_BLOCK_ATOMS", atoms)
                        patch.setattr(engine, "PROFILE_CHUNK_ENTRIES", profile_entries)
                        patch.setattr(engine, "LOW_SPIN_ENTRIES", low_entries)
                        got = time_series(params, alphas, times, method="exact")
                    _assert_same_series(got, want)

    @pytest.mark.parametrize("n", [1, 2, 5, 11, 12, 13])
    def test_exact_blocks_match_per_point_route(self, n):
        eps = 1e-3
        c_up, c_down = obs.logit_cutoffs(eps)
        times, cases = _exact_grid_cases(n)
        for params, alphas in cases:
            s = time_series(params, alphas, times, eps, method="exact")
            (p_up, p_down, p_q), dropped = _per_point(params, alphas, times, "exact", eps)
            assert s.dropped == dropped
            for got, want in ((s.p_up, p_up), (s.p_down, p_down), (s.p_q, p_q)):
                assert np.max(np.abs(got - want)) <= 1e-15
            exact_up, exact_down = np.empty(times.size), np.empty(times.size)
            for i, t in enumerate(times):
                dist = enumerate_outcomes(params, alphas, float(t))
                up, down = dist.u >= 1.0 - eps, dist.u <= eps
                exact_up[i], exact_down[i] = math.fsum(dist.weight[up]), math.fsum(dist.weight[down])
                # Every kept atom lands in the class its u gives.
                x, _, keep = _one_time_block(params, alphas, float(t))
                x_kept = x[keep]
                assert np.array_equal(x_kept <= c_up, up) and np.array_equal(x_kept > c_down, down)
            # Both routes stay within a few ulp of the exactly rounded sums.
            for got, want, exact in ((s.p_up, p_up, exact_up), (s.p_down, p_down, exact_down)):
                assert np.max(np.abs(want - exact)) <= 4 * np.finfo(float).eps
                assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps

    def test_binomial_n80_equals_per_point(self):
        params = ModelParams(delta=0.1, h=(0.02,) * 80)
        times = np.concatenate(([0.0], np.linspace(1.0, 600.0, 40)))
        s = time_series(params, ALPHAS, times, method="binomial")
        dists = [binomial_outcomes(params, ALPHAS, float(t)) for t in times]
        want = np.array([class_probabilities(d) for d in dists]).T
        assert np.array_equal(np.stack((s.p_up, s.p_down, s.p_q)), want)
        assert s.dropped == sum(d.dropped for d in dists)

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(n=10, h=(0.01,), delta_h=0.02, steps=41, alpha_up_sq=0.4),
            ExperimentConfig(n=80, h=(0.01,), steps=9, method="binomial"),
            ExperimentConfig(
                n=12, h=(0.02,), delta_h=0.01, steps=3, method="sampled", samples=3000, seed=5,
                workers=2,
            ),
            ExperimentConfig(n=3, h=(0.3,), delta=0.2, delta_h=0.5, steps=4, method="exact-universe"),
        ],
        ids=["exact", "binomial", "sampled", "exact-universe"],
    )
    def test_time_series_equals_run_config(self, config):
        record = run_config(config)
        series = time_series(
            config.params(), config.alphas(), config.grid(), config.epsilon,
            config.resolved_method(), config.samples, config.seed, config.workers,
        )
        for name in ("times", "p_up", "p_down", "p_q"):
            assert np.array_equal(getattr(series, name), getattr(record.series, name))

    @pytest.mark.parametrize(
        "method, h",
        [
            ("exact", (0.0, 0.05, 0.1)),
            ("binomial", (0.0,) * 6),
            ("sampled", (0.0, 0.05, 0.1)),
            ("exact-universe", (0.0, 0.05, 0.1)),
        ],
    )
    def test_degenerate_patterns_never_reach_a_grid_point(self, method, h):
        # At delta = 0 a spin with h = 0 never flips on either branch, so every pattern that
        # flips it has both branch weights zero; at t = 0 so has every pattern with a flip.
        # The grid also holds the down-branch node times of the other spins.
        nodes = [m * math.pi / c for c in h if c > 0 for m in (0.5, 1.0, 1.5)]
        times = np.unique([0.0, 5.0, 100.0] + nodes)
        params = ModelParams(delta=0.0, h=h)
        for w_up in (0.0, 0.4, 1.0):
            alphas = SystemAmplitudes.from_up_weight(w_up)
            s = time_series(params, alphas, times, method=method, samples=2000, seed=3)
            masses = np.stack((s.p_up, s.p_down, s.p_q))
            assert np.all(np.isfinite(masses))
            assert np.max(np.abs(masses.sum(axis=0) - 1.0)) <= 1e-12
            # The count engines drop those patterns; the sampler and the oracle never list them.
            assert s.dropped > 0 if method in ("exact", "binomial") else s.dropped == 0
            config = ExperimentConfig(
                n=len(h), h=h, alpha_up_sq=w_up, t_end=times[-1], steps=4, method=method,
                samples=2000, hist_times=(0.0, times[1]),
            )
            assert run_config(config).diagnostics["degenerate_retries"] == []

    @pytest.mark.parametrize(
        "method, params",
        [
            ("binomial", ModelParams(delta=0.1, h=(0.05,) * 30)),
            ("sampled", ModelParams(delta=0.1, h=dispersed_couplings(0.05, 0.3, 6))),
            ("exact-universe", ModelParams(delta=0.1, h=dispersed_couplings(0.05, 0.3, 3))),
        ],
    )
    def test_every_point_goes_through_distribution_at(self, monkeypatch, method, params):
        # A tracer times grid and histogram points through this name, so no point may bypass it.
        seen = []
        real = obs.distribution_at

        def counted(prepared, t, seed=0):
            seen.append(t)
            return real(prepared, t, seed)

        monkeypatch.setattr(obs, "distribution_at", counted)
        times = np.linspace(0.5, 30.5, 7)
        hist_times = (0.0, 12.25, 3.0)
        obs.evaluate(params, ALPHAS, times, hist_times, method=method, samples=500)
        assert seen == times.tolist() + list(hist_times)


# Plain times of ``_node_grid``: the node times and t = 0 come on top of them.
NODE_GRID_TIMES = 300


def _node_grid(params):
    """t = 0, the first node times of both branches and NODE_GRID_TIMES plain times."""
    nodes = [
        m * math.pi / spin_spectral(params, branch, 1).omega
        for branch in ("up", "down")
        for m in (1, 2, 3)
    ]
    return np.unique(np.concatenate(([0.0], np.linspace(0.5, 600.0, NODE_GRID_TIMES), nodes)))


class TestBinomialWindows:
    """A binomial grid takes its one-spin profiles from rows built once for the whole grid."""

    @pytest.mark.parametrize("explicit", [False, True], ids=["scalar_h", "h_list"])
    @pytest.mark.parametrize("n", [80, 100_000])
    def test_series_equals_per_point_bitwise(self, n, explicit):
        h = (0.02,) * n if explicit else np.broadcast_to(0.02, (n,))
        params = ModelParams(delta=0.1, h=h)
        times = _node_grid(params)
        assert times.size > NODE_GRID_TIMES and times[0] == 0.0
        hist_times = (0.25, 123.4)
        assert not set(hist_times) & set(times.tolist())
        # The reference points compute their own profiles: a grid of no times only shares
        # the table log k!.  w_up = 1 leaves the down branch no span.
        alone = engine.BinomialGrid(params)
        for alphas in (ALPHAS, SystemAmplitudes.from_up_weight(1.0)):
            series, hists = obs.evaluate(params, alphas, times, hist_times, method="binomial")
            dists = [binomial_outcomes(params, alphas, float(t), grid=alone) for t in times]
            want = np.array([class_probabilities(d) for d in dists]).T
            got = np.stack((series.p_up, series.p_down, series.p_q))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert series.dropped == sum(d.dropped for d in dists)
            for (t, got_hist), t_want in zip(hists, hist_times):
                want_hist = histogram(binomial_outcomes(params, alphas, t_want, grid=alone))
                assert t == t_want
                for field in ("bin_mass", "mass_zero", "mass_one"):
                    got_bits, want_bits = (
                        np.asarray(getattr(hist, field)).view(np.int64)
                        for hist in (got_hist, want_hist)
                    )
                    assert np.array_equal(got_bits, want_bits), field

    def test_profiles_built_once_per_run(self, monkeypatch):
        # An explicit h list: binomial_spin's equal-couplings pass is O(N) per call.
        calls = []

        def count(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)
            )

        for module, name in (
            (engine, "branch_flip_profile"),
            (engine, "binomial_spin"),
            (engine, "binomial_outcomes"),
            (obs, "class_probabilities"),
        ):
            count(module, name)
        times = np.linspace(1.0, 600.0, 600)
        hist_times = (0.25, 300.5)
        obs.evaluate(
            ModelParams(delta=0.1, h=(0.02,) * 80), ALPHAS, times, hist_times, method="binomial"
        )
        # Two calls build the whole grid's rows; each histogram time is off the grid.
        assert calls.count("branch_flip_profile") == 2 + 2 * len(hist_times)
        assert calls.count("binomial_spin") == 1
        assert calls.count("binomial_outcomes") == times.size + len(hist_times)
        assert calls.count("class_probabilities") == times.size


class TestRevivalTimes:
    def test_constant_coupling_node_times(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 4)
        times = revival_times(p, 3)
        np.testing.assert_allclose(times, [m * math.pi / 0.01 for m in (1, 2, 3)], rtol=1e-12)

    def test_empty_for_zero_m_max(self):
        p = ModelParams(delta=0.0, h=(0.01,))
        assert revival_times(p, 0).size == 0

    def test_nu_zero_recovery_frequency(self):
        # nu = 0 (delta = 1): recovery at m*pi/sqrt(mu^2 + h^2) with mu = 1.
        h = 0.4
        p = ModelParams(delta=1.0, h=(h,) * 3)
        times = revival_times(p, 2)
        np.testing.assert_allclose(
            times, [m * math.pi / math.hypot(1.0, h) for m in (1, 2)], rtol=1e-12
        )

    def test_dispersed_returns_per_spin_lists(self):
        p = ModelParams(delta=0.0, h=dispersed_couplings(0.01, 0.02, 3))
        per_spin = revival_times(p, 2)
        assert len(per_spin) == 3
        np.testing.assert_allclose(per_spin[0], [math.pi / 0.01, 2 * math.pi / 0.01])


class TestSeriesValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ObservableSeries(
                np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]), np.array([1.0]), "exact"
            )

    def test_sum_violation(self):
        with pytest.raises(ValueError):
            ObservableSeries(
                np.array([0.0]), np.array([0.5]), np.array([0.5]), np.array([0.5]), "exact"
            )

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="sum to one"):
            ObservableSeries(
                np.array([0.0, 1.0]), np.array([0.5, math.nan]), np.array([0.5, math.nan]),
                np.array([0.0, math.nan]), "exact-universe",
            )


class TestHistogram:
    def test_total_mass_is_one(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 10)
        dist = enumerate_outcomes(p, ALPHAS, 150.0)
        hist = histogram(dist)
        assert hist.total() == pytest.approx(1.0, abs=1e-9)

    def test_point_masses_collect_exact_classics(self):
        dist = ProjectionDistribution(
            u=np.array([0.0, 1.0, 0.5]), weight=np.array([0.3, 0.2, 0.5]), kind="exact"
        )
        hist = histogram(dist)
        assert hist.mass_zero == pytest.approx(0.3)
        assert hist.mass_one == pytest.approx(0.2)
        assert float(np.sum(hist.bin_mass)) == pytest.approx(0.5)

    @pytest.mark.parametrize("t, w_up", [(20.0, 0.4), (150.0, 0.4), (150.0, 0.0)])
    def test_sampled_histogram_equals_full_weight_histogram_bitwise(self, t, w_up):
        # Interior bins only (t = 20), mass at u = 1 and two bins (t = 150), all mass at u = 0;
        # 10^5 draws span two of np.histogram's 65,536-element weight blocks.
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 80))
        count = 10**5
        dist = sample_outcomes(p, SystemAmplitudes.from_up_weight(w_up), t, count, 5)
        full = ProjectionDistribution(u=dist.u, weight=np.full(count, 1.0 / count), kind="sampled")
        got, want = histogram(dist), histogram(full)
        for name in ("mass_zero", "mass_one"):
            assert np.float64(getattr(got, name)).view(np.int64) == np.float64(
                getattr(want, name)
            ).view(np.int64)
        assert np.array_equal(got.bin_mass.view(np.int64), want.bin_mass.view(np.int64))
        assert got.total() == pytest.approx(1.0, abs=1e-12)

    def test_collapse_time_none_when_quantum(self):
        p = ModelParams(delta=1.0, h=(0.5,) * 4)
        series = time_series(p, ALPHAS, [1.0, 5.0, 9.0], method="exact")
        assert first_collapse_time(series) is None
