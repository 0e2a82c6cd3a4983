"""Trajectory engine: enumeration, binomial reduction, exact sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralspin.core import (
    LOG_SUM_BLOCK,
    EnvironmentTooLarge,
    FlipPattern,
    FlipProfile,
    ModelParams,
    SystemAmplitudes,
    branch_axis,
    branch_flip_profile,
    dispersed_couplings,
    log_branch_weight,
)
from centralspin import engine, observables, selfcheck
from centralspin.engine import (
    SAMPLE_CHUNK,
    SAMPLE_MASK_BYTES,
    BinomialGrid,
    DegenerateOutcomeError,
    binomial_outcomes,
    binomial_spin,
    enumerate_outcomes,
    log_factorials,
    merge_by_u,
    pattern_log_weights,
    pattern_projection,
    sample_outcomes,
    u_from_x,
    wavefunction_of_pattern,
)
from centralspin.observables import logit_cutoffs
from centralspin.universe import (
    pattern_between,
    phase_distance,
    thermal_ensemble,
    trajectory_ensemble,
)

ALPHAS = SystemAmplitudes.from_up_weight(0.4)


class TestPatternProjection:
    def test_initial_time_gives_up_weight(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 4)
        u = pattern_projection(p, ALPHAS, 0.0, FlipPattern.none(4))
        assert u == pytest.approx(0.4, abs=1e-12)

    def test_equal_branch_weights(self):
        # nu = 0 makes both branches identical in modulus for every
        # pattern, so u is always the initial up weight.
        p = ModelParams(delta=1.0, h=(0.5,) * 5)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pat = FlipPattern(rng.choice([1, -1], 5))
            u = pattern_projection(p, ALPHAS, 3.7, pat)
            assert u == pytest.approx(0.4, abs=1e-12)

    def test_matches_universe_oracle(self):
        p = ModelParams(delta=0.0, h=(0.01, 0.01, 0.01))
        t = 100.0
        ens = thermal_ensemble(p)
        outs = trajectory_ensemble(p, ALPHAS, ens, t)
        for o in outs:
            pat = pattern_between(o.labels[1], o.labels[0], 3)
            u = pattern_projection(p, ALPHAS, t, pat)
            assert u == pytest.approx(abs(o.phi[0]) ** 2, abs=1e-9)

    def test_exact_one_when_down_branch_dies(self):
        # Near t = pi/h the down branch essentially cannot flip
        # (delta = 0), so a flipped pattern carries a down weight many
        # orders below the up one and u rounds to exactly 1.
        h = 0.25
        p = ModelParams(delta=0.0, h=(h, h))
        u = pattern_projection(p, ALPHAS, math.pi / h, FlipPattern([-1, 1]))
        assert u == 1.0

    def test_exact_zero_and_one_at_large_bath(self):
        # Deep in the collapsed regime the logit saturates both ways,
        # so projections come out at exactly 0 and exactly 1, never NaN.
        p = ModelParams(delta=0.0, h=(0.01,) * 80)
        assert pattern_projection(p, ALPHAS, 150.0, FlipPattern([-1] * 80)) == 0.0
        assert pattern_projection(p, ALPHAS, 150.0, FlipPattern.none(80)) == 1.0

    def test_degenerate_outcome_raises(self):
        # A spin with zero coupling cannot flip on either branch.
        p = ModelParams(delta=0.3, h=(0.0, 0.5))
        with pytest.raises(DegenerateOutcomeError):
            pattern_projection(p, ALPHAS, 1.0, FlipPattern([-1, 1]))


class TestEnumeration:
    def test_initial_time_single_atom(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 6)
        dist = enumerate_outcomes(p, ALPHAS, 0.0)
        assert len(dist) == 1
        assert dist.dropped == 2**6 - 1
        assert dist.u[0] == pytest.approx(0.4, abs=1e-12)
        assert dist.weight[0] == pytest.approx(1.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(1, 11))
            p = ModelParams(delta=float(rng.uniform(-1, 1)), h=tuple(rng.uniform(-1, 1, n)))
            dist = enumerate_outcomes(p, ALPHAS, float(rng.uniform(0, 100)))
            assert dist.total_weight() == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_universe_by_pattern(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3):
            p = ModelParams(
                delta=float(rng.uniform(-0.8, 0.8)),
                h=tuple(rng.uniform(-1, 1, n)),
                beta=float(rng.choice([0.0, 0.5])),
            )
            a = SystemAmplitudes.from_up_weight(float(rng.uniform(0.2, 0.8)))
            t = float(rng.uniform(1, 30))
            outs = trajectory_ensemble(p, a, thermal_ensemble(p), t)
            grouped: dict[int, float] = {}
            u_by_code: dict[int, float] = {}
            for o in outs:
                code = pattern_between(o.labels[1], o.labels[0], n).code()
                grouped[code] = grouped.get(code, 0.0) + o.weight
                u_by_code[code] = abs(o.phi[0]) ** 2
            dist = enumerate_outcomes(p, a, t)
            by_code = dict(zip(dist.pattern_codes.tolist(), zip(dist.u, dist.weight)))
            for code, w in grouped.items():
                u_ref, w_ref = by_code[code]
                assert w == pytest.approx(w_ref, abs=1e-9)
                assert u_by_code[code] == pytest.approx(u_ref, abs=1e-9)

    def test_cap(self):
        with pytest.raises(EnvironmentTooLarge):
            enumerate_outcomes(ModelParams(delta=0.0, h=(0.1,) * 21), ALPHAS, 1.0)

    def test_cap_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(engine, "ENUMERATION_CAP", 3)
        with pytest.raises(EnvironmentTooLarge, match="N=4 exceeds enumeration cap 3"):
            enumerate_outcomes(ModelParams(delta=0.0, h=(0.1,) * 4), ALPHAS, 1.0)

    def test_beta_never_enters(self):
        cold = ModelParams(delta=0.0, h=(0.01,) * 8, beta=1.0)
        hot = ModelParams(delta=0.0, h=(0.01,) * 8, beta=0.0)
        a, b = enumerate_outcomes(cold, ALPHAS, 57.0), enumerate_outcomes(hot, ALPHAS, 57.0)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.weight, b.weight)


class TestBinomial:
    def test_requires_constant_couplings(self):
        p = ModelParams(delta=0.0, h=dispersed_couplings(0.01, 0.02, 4))
        with pytest.raises(ValueError):
            binomial_outcomes(p, ALPHAS, 1.0)

    def test_initial_time(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 80)
        dist = binomial_outcomes(p, ALPHAS, 0.0)
        assert len(dist) == 1
        assert dist.u[0] == pytest.approx(0.4, abs=1e-12)
        assert dist.weight[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration_after_merge(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 10)
        for t in (50.0, 150.0, 314.0):
            binom = binomial_outcomes(p, ALPHAS, t)
            merged = merge_by_u(enumerate_outcomes(p, ALPHAS, t))
            assert len(binom) == len(merged)
            assert np.max(np.abs(binom.u - merged.u)) <= 1e-12
            assert np.max(np.abs(binom.weight - merged.weight)) <= 1e-12

    def test_total_weight(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 80)
        dist = binomial_outcomes(p, ALPHAS, 150.0)
        assert dist.total_weight() == pytest.approx(1.0, abs=1e-9)

    def test_log_domain_stability_at_large_n(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 80)
        dist = binomial_outcomes(p, ALPHAS, 150.0)
        assert np.all(np.isfinite(dist.u))
        assert np.all((dist.u >= 0.0) & (dist.u <= 1.0))

    @pytest.mark.parametrize("n", [80, 100_000])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_one_spin_profile_equals_full_profile(self, n, delta):
        p = ModelParams(delta=delta, h=(0.02,) * n)
        for t in np.linspace(0.0, 600.0, 7):
            got = binomial_outcomes(p, ALPHAS, float(t))
            want = _binomial_full_profile(p, ALPHAS, float(t))
            assert np.array_equal(got.u, want.u) and np.array_equal(got.weight, want.weight)
            assert got.dropped == want.dropped

    def test_log_counts_table_gives_the_same_bits(self):
        # A grid's prepared log k! table and rows give the point it builds itself, for
        # the broadcast couplings of a scalar h and for an explicit list of equal h.
        times = (0.0, 37.5, 410.0)
        for n in (80, 100_000):
            for h in (np.broadcast_to(0.02, (n,)), (0.02,) * n):
                p = ModelParams(delta=0.1, h=h)
                spin = binomial_spin(p)
                assert spin.h.tolist() == [0.02] and (spin.delta, spin.beta) == (p.delta, p.beta)
                grids = (BinomialGrid(p), BinomialGrid(p, times))
                for t in times:
                    a = binomial_outcomes(p, ALPHAS, t)
                    for grid in grids:
                        b = binomial_outcomes(p, ALPHAS, t, grid=grid)
                        assert np.array_equal(a.u.view(np.int64), b.u.view(np.int64)), (n, t)
                        assert np.array_equal(a.weight.view(np.int64), b.weight.view(np.int64))
                        assert a.dropped == b.dropped


class TestBinomialMemory:
    def test_peak_of_one_point_at_large_n(self, traced):
        # A grid's point at N = 1e5, with the grid's log k! table: four N + 1 float
        # arrays (k, the two log weights, log C and then the mixture) and the kept atoms'
        # merge stay below five.
        n = 100_000
        p = ModelParams(delta=0.0, h=(0.01,) * n)
        grid = BinomialGrid(p)
        for t in (np.arange(6) + 0.5) * 400.0 / 6:
            _, _, peak = traced(lambda: binomial_outcomes(p, ALPHAS, float(t), grid=grid))
            assert peak < 5 * 8 * (n + 1)

    def test_peak_of_one_point_follows_its_spans(self, traced):
        # At N = 1e6 only the spans are evaluated, two disjoint ones here (about 3% of the
        # counts): the table fill and four float arrays per span, then the kept atoms'
        # merge, whatever N is.  The kept atoms are 97% of the spans here, so the merge's
        # arrays of their length set the peak: 7.0-7.9 arrays of the spans' total length
        # measured over t in [0, 400], 1.86 MB here.  The bound, 1.95 MB, is under the
        # 2.70 MB that six arrays of the wider Pinsker-only spans (56,157 counts) allowed.
        n = 10**6
        p = ModelParams(delta=0.0, h=np.full(n, 0.01))
        grid = BinomialGrid(p)
        t = 200.0
        up, down, _, _ = engine._log_branch_pair(binomial_spin(p), ALPHAS, t)
        length = sum(hi - lo + 1 for lo, hi in engine.binomial_spans(n, ALPHAS, up, down))
        assert length < (n + 1) / 20
        dist, _, peak = traced(lambda: binomial_outcomes(p, ALPHAS, t, grid=grid))
        assert dist.dropped > n - length
        assert peak < 8 * 8 * length + 64 * 1024


def _filled_mask(grid):
    """The entries of a grid's table log k! that its ``filled`` ranges name."""
    mask = np.zeros(grid.log_fact.size, dtype=bool)
    for lo, hi in grid.filled:
        mask[lo : hi + 1] = True
    return mask


def _read_counts(params, alphas, times):
    """The table entries binomial points at ``times`` read: N, and each span and its mirror."""
    n = params.n_env
    read = np.zeros(n + 1, dtype=bool)
    read[n] = True
    spin = binomial_spin(params)
    for t in times:
        up, down, _, _ = engine._log_branch_pair(spin, alphas, float(t))
        for lo, hi in engine.binomial_spans(n, alphas, up, down):
            read[lo : hi + 1] = read[n - hi : n - lo + 1] = True
    return read


class TestBinomialLazyTable:
    """A grid computes log k! only on the counts its points read, each once, with the full table's bits."""

    def test_filled_entries_have_the_full_table_bits(self):
        n = 10**5
        p = ModelParams(delta=0.1, h=np.full(n, 0.02))
        times = np.linspace(5.0, 400.0, 7)
        grid = BinomialGrid(p, times)
        assert grid.filled == [(n, n)]
        points = times.tolist() + [123.4]
        for t in points:
            binomial_outcomes(p, ALPHAS, t, grid=grid)
        filled = _filled_mask(grid)
        assert np.array_equal(filled, _read_counts(p, ALPHAS, points))
        assert not filled.all()
        full = log_factorials(n)
        assert np.array_equal(grid.log_fact[filled].view(np.int64), full[filled].view(np.int64))
        assert np.isnan(grid.log_fact[~filled]).all()
        # Sorted, with no two ranges overlapping or adjacent.
        assert all(b + 1 < a for (_, b), (a, _) in zip(grid.filled, grid.filled[1:]))

    def test_two_point_grid_fills_few_entries(self):
        # The two midpoints of a 2-step run on [0, 400] at N = 1e6.
        n = 10**6
        p = ModelParams(delta=0.0, h=np.full(n, 0.01))
        times = np.array([100.0, 300.0])
        grid = BinomialGrid(p, times)
        for t in times.tolist():
            binomial_outcomes(p, ALPHAS, t, grid=grid)
        assert np.count_nonzero(~np.isnan(grid.log_fact)) <= 0.15 * (n + 1)

    def test_a_range_read_again_computes_nothing(self, monkeypatch):
        computed = []
        real = engine.log_factorials

        def counted(n, start=0):
            computed.append((start, n))
            return real(n, start)

        n = 1000
        p = ModelParams(delta=0.0, h=np.full(n, 0.01))
        grid = BinomialGrid(p)
        monkeypatch.setattr(engine, "log_factorials", counted)
        grid.fill(10, 20)
        grid.fill(10, 20)
        grid.fill(12, 15)
        assert computed == [(10, 20)]
        grid.fill(5, 30)
        assert computed[1:] == [(5, 9), (21, 30)]
        grid.fill(40, 50)
        grid.fill(0, 60)
        grid.fill(61, 70)
        assert computed[3:] == [(40, 50), (0, 4), (31, 39), (51, 60), (61, 70)]
        assert grid.filled == [(0, 70), (n, n)]
        computed.clear()
        first = binomial_outcomes(p, ALPHAS, 37.5, grid=grid)
        assert computed
        computed.clear()
        again = binomial_outcomes(p, ALPHAS, 37.5, grid=grid)
        assert computed == []
        assert np.array_equal(first.u, again.u) and np.array_equal(first.weight, again.weight)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 2000), data=st.data())
    def test_random_fills_set_the_union_once(self, n, data):
        # After each fill, filled is the union of every request and (N, N), its entries
        # hold the full table's bits, the rest is NaN, and no entry was computed twice.
        count = st.integers(0, n)
        requests = data.draw(st.lists(st.tuples(count, count).map(sorted).map(tuple), max_size=12))
        full = log_factorials(n)
        computed = np.zeros(n + 1, dtype=int)
        real = engine.log_factorials

        def counted(hi, start=0):
            computed[start : hi + 1] += 1
            return real(hi, start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "log_factorials", counted)
            grid = BinomialGrid(ModelParams(delta=0.0, h=np.full(n, 0.01)))
            for i, (lo, hi) in enumerate(requests):
                grid.fill(lo, hi)
                assert grid.filled == engine._span_union(requests[: i + 1] + [(n, n)])
                inside = _filled_mask(grid)
                assert np.array_equal(_int_bits(grid.log_fact[inside]), _int_bits(full[inside]))
                assert np.isnan(grid.log_fact[~inside]).all()
                assert np.array_equal(computed, inside)

    def test_off_grid_histogram_time_fills_its_own_spans(self, monkeypatch):
        grids = []

        class Kept(engine.BinomialGrid):
            def __init__(self, *args):
                super().__init__(*args)
                grids.append(self)

        monkeypatch.setattr(engine, "BinomialGrid", Kept)
        n = 10**5
        p = ModelParams(delta=0.0, h=np.full(n, 0.01))
        times, hist_times = np.array([100.0, 300.0]), (200.0,)
        observables.evaluate(p, ALPHAS, times, hist_times, method="binomial")
        (grid,) = grids
        filled, on_grid = _filled_mask(grid), _read_counts(p, ALPHAS, times)
        assert np.array_equal(filled, on_grid | _read_counts(p, ALPHAS, hist_times))
        assert not np.array_equal(filled, on_grid)


def _node_times(params, branch, count):
    """The first ``count`` times m pi / omega at which every spin of a branch keeps its state."""
    a, _ = branch_axis(params, branch)
    omega = math.hypot(a, float(params.h[0]))
    return [m * math.pi / omega for m in range(1, count + 1)] if omega > 0 else []


def _one_spin_profile(p):
    """A one-spin profile with flip probability p and keep 1 - p."""
    keep, flip = np.array([1.0 - p]), np.array([p])
    with np.errstate(divide="ignore"):
        return FlipProfile(keep, flip, np.log(keep), np.log(flip))


def _nats(n, weight, profile):
    """A branch's nats budget c = log w + N log(keep + flip) - log(1e-300 / 2) + WINDOW_MARGIN."""
    s = float(profile.keep[0]) + float(profile.flip[0])
    floor = math.log(engine.WEIGHT_FLOOR / 2)
    return math.log(weight) + n * math.log(s) - floor + engine.WINDOW_MARGIN


def _pinsker_span(n, weight, profile):
    """A branch's span from the Pinsker radius alone, r^2 = n c / 2 (c the nats budget)."""
    nats = _nats(n, weight, profile)
    if nats < 0.0:
        return None
    keep, flip = float(profile.keep[0]), float(profile.flip[0])
    center, r = n * (flip / (keep + flip)), math.sqrt(n / 2 * nats)
    return max(0, math.floor(center - r)), min(n, math.ceil(center + r))


def _span_kind(n, alphas, up, down):
    """'single', 'overlapping' or 'disjoint': how a point's branch spans combine."""
    branches = ((alphas.w_up, up), (alphas.w_down, down))
    if None in [engine._branch_span(n, w, profile) for w, profile in branches]:
        return "single"
    return "disjoint" if len(engine.binomial_spans(n, alphas, up, down)) == 2 else "overlapping"


class TestBinomialSpans:
    """Only the flip counts in ``binomial_spans`` are evaluated, with the full range's bits."""

    @pytest.mark.parametrize(
        # At N = 1e3 the two branches' radii add up to more than N, so no spans are disjoint.
        "n, kinds",
        [(10**3, {"single", "overlapping"}), (10**4, {"single", "overlapping", "disjoint"}),
         (10**5, {"single", "overlapping", "disjoint"})],
    )
    def test_bits_match_full_profile(self, n, kinds):
        rng = np.random.default_rng(n)
        log_fact = log_factorials(n)
        seen = set()
        for h in (0.0, 0.01, 0.5, 10.0):
            for delta in (0.0, 0.01, 0.1):
                p = ModelParams(delta=delta, h=np.full(n, h))
                grid = BinomialGrid(p)
                spin = binomial_spin(p)
                times = [0.0, float(rng.uniform(0, 600))] + _node_times(p, "down", 2)
                for w_up in (0.0, 0.4, 1.0):
                    alphas = SystemAmplitudes.from_up_weight(w_up)
                    for t in times:
                        got = binomial_outcomes(p, alphas, t, grid=grid)
                        want = _binomial_full_profile(p, alphas, t, log_fact)
                        assert np.array_equal(got.u, want.u), (h, delta, w_up, t)
                        assert np.array_equal(got.weight, want.weight), (h, delta, w_up, t)
                        assert got.dropped == want.dropped, (h, delta, w_up, t)
                        up, down, _, _ = engine._log_branch_pair(spin, alphas, t)
                        seen.add(_span_kind(n, alphas, up, down))
        assert seen == kinds

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6])
    def test_every_kept_count_lies_in_a_span(self, n):
        # Twelve random points, then each branch's first node time at w_up = 0 and 1.
        rng = np.random.default_rng(n + 1)
        log_fact = log_factorials(n)
        cases = []
        for _ in range(12):
            h = np.full(n, rng.choice([0.01, 0.5, 10.0]))
            p = ModelParams(delta=float(rng.uniform(-1, 1)), h=h)
            w_up = float(rng.choice([0.0, 0.4, 1.0]))
            t = float(rng.choice([0.0, rng.uniform(0, 600)] + _node_times(p, "down", 1)))
            cases.append((p, w_up, t))
        p = ModelParams(delta=0.1, h=np.full(n, 0.5))
        nodes = _node_times(p, "up", 1) + _node_times(p, "down", 1)
        cases += [(p, w_up, t) for w_up in (0.0, 1.0) for t in nodes]
        for p, w_up, t in cases:
            alphas = SystemAmplitudes.from_up_weight(w_up)
            _, weight = _binomial_full_weights(p, alphas, t, log_fact)
            kept = np.flatnonzero(weight >= engine.WEIGHT_FLOOR)
            up, down, _, _ = engine._log_branch_pair(binomial_spin(p), alphas, t)
            spans = engine.binomial_spans(n, alphas, up, down)
            inside = np.zeros(n + 1, dtype=bool)
            for lo, hi in spans:
                inside[lo : hi + 1] = True
            assert kept.size and np.all(inside[kept])
            # Ascending and disjoint, with a gap between two spans.
            assert all(lo <= hi for lo, hi in spans)
            assert len(spans) < 2 or spans[0][1] + 1 < spans[1][0]

    def test_full_range_at_small_n(self):
        # At N = 80 each branch's radius is above N, so every count is evaluated.
        n = 80
        p = binomial_spin(ModelParams(delta=0.1, h=np.full(n, 0.5)))
        for t in (0.0, 37.5, 410.0):
            up, down, _, _ = engine._log_branch_pair(p, ALPHAS, t)
            assert engine.binomial_spans(n, ALPHAS, up, down) == [(0, n)]

    @pytest.mark.parametrize("n", [80, 10**3, 10**5, 10**7, 10**9])
    def test_counts_next_to_a_span_lie_below_the_floor(self, n):
        # The first count past each end of a branch's span, by scipy's binomial law, is
        # below log(1e-300 / 2) - WINDOW_MARGIN; at N = 80 every span is the full range.
        from scipy.stats import binom

        limit = math.log(engine.WEIGHT_FLOOR / 2) - engine.WINDOW_MARGIN
        checked = 0
        for p in (0.0, 1e-12, 1e-4, 0.02, 0.5, 1 - 1e-4, 1.0):
            profile = _one_spin_profile(p)
            s = float(profile.keep[0] + profile.flip[0])
            for weight in (ALPHAS.w_up, ALPHAS.w_down):
                lo, hi = engine._branch_span(n, weight, profile)
                for k in (lo - 1, hi + 1):
                    if 0 <= k <= n:
                        log_term = math.log(weight) + n * math.log(s) + binom.logpmf(k, n, p / s)
                        assert log_term < limit, (n, p, weight, k)
                        checked += 1
        assert checked or n == 80

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 10**12),
        p=st.floats(0.0, 1.0),
        weight=st.floats(1e-300, 1.0),
    )
    def test_span_lies_within_pinsker_span(self, n, p, weight):
        profile = _one_spin_profile(p)
        span, pinsker = (f(n, weight, profile) for f in (engine._branch_span, _pinsker_span))
        assert (span is None) == (pinsker is None)
        if span is not None:
            assert pinsker[0] <= span[0] <= span[1] <= pinsker[1]
            # count_span alone, at the case's own p: within [0, n], holding n p, and
            # inside the Pinsker span about n p.
            nats = _nats(n, weight, profile)
            lo, hi = engine.count_span(n, p, 1.0 - p, nats)
            r = math.sqrt(n / 2 * nats)
            assert 0 <= lo <= n * p <= hi <= n
            assert math.floor(n * p - r) <= lo and hi <= math.ceil(n * p + r)

    def test_point_and_tail_share_the_radius(self, monkeypatch):
        # A binomial point's branch spans and the oracle-check's binomial tail both take
        # their radius from engine.count_span.
        calls = []
        real = engine.count_span

        def recorded(n, p, q, nats):
            calls.append(n)
            return real(n, p, q, nats)

        monkeypatch.setattr(engine, "count_span", recorded)
        n = 10**5
        binomial_outcomes(ModelParams(delta=0.0, h=np.full(n, 0.01)), ALPHAS, 200.0)
        assert calls == [n, n]
        calls.clear()
        selfcheck.binomial_two_sided_p(8300, 0.4, 20_000)
        assert calls == [20_000]

    def test_zero_weight_branch_has_no_span(self):
        n = 10**4
        spin = binomial_spin(ModelParams(delta=0.1, h=np.full(n, 0.5)))
        up, down, _, _ = engine._log_branch_pair(spin, ALPHAS, 3.0)
        assert engine._branch_span(n, 0.0, up) is None
        lo, hi = engine._branch_span(n, 1.0, up)
        assert lo <= n * up.flip[0] <= hi

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_grid_of_another_model_rejected(self, extra):
        # A table of another N is another model's.
        n = 1000
        p = ModelParams(delta=0.0, h=np.full(n, 0.5))
        other = ModelParams(delta=0.0, h=np.full(n + extra, 0.5))
        for grid in (BinomialGrid(other), BinomialGrid(other, (3.0,))):
            with pytest.raises(ValueError, match="^the binomial grid was built for another model$"):
                binomial_outcomes(p, ALPHAS, 3.0, grid=grid)

    def test_grid_of_another_model_with_the_same_n_rejected(self):
        # At N = 80 and t = 20, h = 0.5 gives 21 atoms and h = 0.01 gives 6; a grid built
        # for h = 0.01 must not hand its rows or its one-spin model to h = 0.5.
        n, t = 80, 20.0
        mine, other = (ModelParams(delta=0.0, h=np.full(n, h)) for h in (0.5, 0.01))
        assert len(binomial_outcomes(mine, ALPHAS, t)) == 21
        assert len(binomial_outcomes(other, ALPHAS, t)) == 6
        for grid in (BinomialGrid(other), BinomialGrid(other, (t,))):
            with pytest.raises(ValueError, match="another model"):
                binomial_outcomes(mine, ALPHAS, t, grid=grid)


def _int_bits(values):
    """The int64 bits of a float array or of a list of floats."""
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_same_atoms(got, want, where):
    """Two binomial distributions with the same u and weight bits and the same dropped count."""
    assert np.array_equal(_int_bits(got.u), _int_bits(want.u)), where
    assert np.array_equal(_int_bits(got.weight), _int_bits(want.weight)), where
    assert got.dropped == want.dropped, where


class TestBinomialBlocks:
    """A block of grid times gives every time the bits a block of that time alone gives."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 80, 1000, 10**5])
    def test_blocks_equal_blocks_of_one(self, n, monkeypatch):
        p = ModelParams(delta=0.1, h=np.full(n, 0.02))
        step = BinomialGrid(p).step
        assert step == max(1, engine.BINOMIAL_BLOCK_ENTRIES // (n + 1))
        # t = 0, both branches' first two node times, then even times up to 2 * step + 1 in
        # all: the last block holds one time.
        special = [0.0] + _node_times(p, "up", 2) + _node_times(p, "down", 2)
        extra = np.linspace(0.5, 600.0, max(0, 2 * step + 1 - len(special)))
        times = np.unique(np.concatenate((special, extra)))
        assert times.size % step == 1 % step
        # One histogram time on a grid time of the first block, one off the grid.
        hist_times = (float(times[1]), float(times[1] + times[2]) / 2)
        for w_up in (0.0, 0.4, 1.0):
            alphas = SystemAmplitudes.from_up_weight(w_up)
            series, hists = observables.evaluate(p, alphas, times, hist_times, method="binomial")
            grid = BinomialGrid(p, times)
            with monkeypatch.context() as one:
                one.setattr(engine, "BINOMIAL_BLOCK_ENTRIES", 1)
                ones = BinomialGrid(p, times)
            assert ones.step == 1
            want = []
            for t in times.tolist() + list(hist_times):
                got = binomial_outcomes(p, alphas, t, grid=grid)
                want.append(binomial_outcomes(p, alphas, t, grid=ones))
                _assert_same_atoms(got, want[-1], (w_up, t))
            # The one-time call, a grid of its own time, is a block of one too.
            for t, dist in zip(hist_times, want[times.size :]):
                _assert_same_atoms(binomial_outcomes(p, alphas, t), dist, (w_up, t))
            # evaluate's masses and histograms are those of the blocks of one.
            masses = np.array([observables.class_probabilities(d) for d in want[: times.size]]).T
            got = np.stack((series.p_up, series.p_down, series.p_q))
            assert np.array_equal(_int_bits(got), _int_bits(masses)), w_up
            assert series.dropped == sum(d.dropped for d in want[: times.size])
            for (t, hist), dist in zip(hists, want[times.size :]):
                ref = observables.histogram(dist)
                for field in ("bin_mass", "mass_zero", "mass_one"):
                    got, ref_field = (_int_bits(getattr(h, field)) for h in (hist, ref))
                    assert np.array_equal(got, ref_field), (w_up, t, field)

    def test_disjoint_spans_stay_apart_in_a_block(self, monkeypatch):
        # Blocks of four times at N = 1e5: a block evaluates the union of its times' spans as
        # disjoint intervals, and every time keeps the bits of a block of its own.
        n = 10**5
        p = ModelParams(delta=0.05, h=np.full(n, 0.01))
        blocks = []
        real = engine._count_atoms

        def recorded(n, mix, up, down, spans, log_fact):
            blocks.append((up.keep.shape[0], spans))
            return real(n, mix, up, down, spans, log_fact)

        monkeypatch.setattr(engine, "_count_atoms", recorded)
        monkeypatch.setattr(engine, "BINOMIAL_BLOCK_ENTRIES", 4 * (n + 1))
        # Close times where both branches have a span, far apart.
        times = np.linspace(25.0, 26.0, 10)
        grid = BinomialGrid(p, times)
        assert grid.step == 4
        for t in times.tolist():
            got = binomial_outcomes(p, ALPHAS, t, grid=grid)
            _assert_same_atoms(got, binomial_outcomes(p, ALPHAS, t), t)
        several = [spans for rows, spans in blocks if rows > 1]
        assert len(several) == 3
        for spans in several:
            assert len(spans) == 2
            assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
            assert sum(hi - lo + 1 for lo, hi in spans) < spans[-1][1] - spans[0][0] + 1

    def test_block_is_computed_once_per_mixture(self, monkeypatch):
        # Every time of a block is served from one computation; another mixture computes it
        # again, and a time off the grid computes a block of its own that the grid keeps not.
        n = 80
        p = ModelParams(delta=0.1, h=np.full(n, 0.02))
        times = np.linspace(1.0, 400.0, 60)
        grid = BinomialGrid(p, times)
        computed = []
        real = engine._binomial_block

        def recorded(grid, alphas, up, down):
            computed.append(up.keep.shape[0])
            return real(grid, alphas, up, down)

        monkeypatch.setattr(engine, "_binomial_block", recorded)
        for t in times.tolist():
            binomial_outcomes(p, ALPHAS, t, grid=grid)
        assert computed == [25, 25, 10]
        kept = grid.block
        binomial_outcomes(p, ALPHAS, 2.5, grid=grid)
        assert computed[3:] == [1] and grid.block is kept
        binomial_outcomes(p, SystemAmplitudes.from_up_weight(0.7), float(times[-1]), grid=grid)
        assert computed[4:] == [10] and grid.block is not kept


class TestSampling:
    def test_initial_time_all_samples_equal(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 12)
        dist = sample_outcomes(p, ALPHAS, 0.0, 500, seed=0)
        assert np.all(dist.u == dist.u[0])
        assert dist.u[0] == pytest.approx(0.4, abs=1e-12)

    def test_weights_are_uniform(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 12)
        dist = sample_outcomes(p, ALPHAS, 40.0, 1000, seed=1)
        assert np.all(dist.weight == 1.0 / 1000)

    def test_matches_enumeration_classes(self):
        from centralspin.observables import class_probabilities

        p = ModelParams(delta=0.0, h=(0.01,) * 10)
        count = 40_000
        for t in (50.0, 150.0):
            exact = class_probabilities(enumerate_outcomes(p, ALPHAS, t))
            emp = class_probabilities(sample_outcomes(p, ALPHAS, t, count, seed=7))
            for pe, pm in zip(exact, emp):
                assert abs(pe - pm) <= 3.0 * math.sqrt(pe * (1 - pe) / count) + 1e-12

    def test_deterministic_and_worker_invariant(self):
        p = ModelParams(delta=0.0, h=dispersed_couplings(0.01, 0.02, 24))
        one = sample_outcomes(p, ALPHAS, 60.0, 20_000, seed=3, workers=1)
        again = sample_outcomes(p, ALPHAS, 60.0, 20_000, seed=3, workers=1)
        threaded = sample_outcomes(p, ALPHAS, 60.0, 20_000, seed=3, workers=5)
        assert np.array_equal(one.u, again.u)
        assert np.array_equal(one.u, threaded.u)
        other_seed = sample_outcomes(p, ALPHAS, 60.0, 20_000, seed=4)
        assert not np.array_equal(one.u, other_seed.u)

    def test_count_validated(self):
        p = ModelParams(delta=0.0, h=(0.01,))
        with pytest.raises(ValueError):
            sample_outcomes(p, ALPHAS, 1.0, 0, seed=0)

    def test_large_n_values_finite_or_exact(self):
        p = ModelParams(delta=0.0, h=(0.01,) * 80)
        dist = sample_outcomes(p, ALPHAS, 150.0, 2000, seed=5)
        assert np.all((dist.u >= 0.0) & (dist.u <= 1.0))
        # Deep in the collapsed regime nearly every draw is exactly classical.
        assert np.mean((dist.u == 0.0) | (dist.u == 1.0)) > 0.9


class TestSamplerWork:
    P = ModelParams(delta=0.1, h=dispersed_couplings(0.05, 0.3, 3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_profiles_per_call(self, monkeypatch, workers):
        calls = []
        real = engine.branch_flip_profile

        def counted(params, branch, t):
            calls.append(branch)
            return real(params, branch, t)

        monkeypatch.setattr(engine, "branch_flip_profile", counted)
        sample_outcomes(self.P, ALPHAS, 7.0, 3 * SAMPLE_CHUNK + 5, seed=3, workers=workers)
        assert sorted(calls) == ["down", "up"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected_before_any_work(self, monkeypatch, workers):
        calls = []
        monkeypatch.setattr(engine, "branch_flip_profile", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="workers must be at least 1"):
            sample_outcomes(self.P, ALPHAS, 7.0, 3 * SAMPLE_CHUNK + 5, seed=3, workers=workers)
        assert calls == []

    def test_pool_bounded_by_chunks_and_cpus(self, monkeypatch):
        pools = []

        class SerialPool:
            """Records its size and maps in the calling thread; starts no thread."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
        count = 10 * SAMPLE_CHUNK + 1  # 11 chunks
        want = sample_outcomes(self.P, ALPHAS, 7.0, count, seed=9, workers=1).u
        assert pools == [1]
        for cpus, workers, size in ((4, 100_000, 4), (64, 100_000, 11), (64, 3, 3), (1, 8, 1)):
            pools.clear()
            monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
            got = sample_outcomes(self.P, ALPHAS, 7.0, count, seed=9, workers=workers).u
            assert pools == [size]
            assert np.array_equal(got, want)
        pools.clear()
        sample_outcomes(self.P, ALPHAS, 7.0, SAMPLE_CHUNK, seed=9, workers=8)
        assert pools == [1]


def _chunk_u(branches, alphas, seed, chunk_index, size):
    """``engine._sample_chunk``'s u for one chunk of ``size`` draws, written into a NaN array."""
    u = np.full(size, np.nan)
    engine._sample_chunk(branches, alphas, seed, chunk_index, u)
    return u


def _chunk_flips(branches, alphas, seed, chunk_index, size):
    """The (size, N) flip mask of a chunk's draws, from one block of flip uniforms."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    up, down = branches[:2]
    branch_up = rng.random(size) < alphas.w_up
    flip_prob = np.where(branch_up[:, None], up.flip[None, :], down.flip[None, :])
    return rng.random((size, up.flip.size)) < flip_prob


def _whole_block_sample_chunk(branches, alphas, seed, chunk_index, size):
    """Reference: one (size, N) block of flip uniforms and a per-spin np.where log-sum."""
    up, down, lw_up, lw_down = branches
    flips = _chunk_flips(branches, alphas, seed, chunk_index, size)

    def log_sum(profile):
        total = np.zeros(size)
        for i in range(flips.shape[1]):
            total += np.where(flips[:, i], profile.log_flip[i], profile.log_keep[i])
        return total

    return u_from_x((lw_down + log_sum(down)) - (lw_up + log_sum(up)))


class TestSampleChunk:
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 40, 80, 200, 1000])
    def test_equals_whole_block_chunk_bitwise(self, n):
        rng = np.random.default_rng(500 + n)
        # (size, t, w_up, frozen): t = 0 gives log_flip = -inf on every spin;
        # frozen makes spin 1 unable to flip on the down branch (delta = 0, h_1 = 0).
        shapes = ((1, 0.0, None, False), (1025, None, 0.0, False), (5000, None, 1.0, False),
                  (4097, None, None, True), (SAMPLE_CHUNK, None, None, False))
        for size, t, w_up, frozen in shapes:
            h = dispersed_couplings(rng.uniform(-1, 1), rng.uniform(0, 1), n)
            delta = 0.0 if frozen else rng.uniform(-1, 1)
            if frozen:
                h[0] = 0.0
            p = ModelParams(delta=delta, h=h)
            a = SystemAmplitudes.from_up_weight(rng.uniform(0, 1) if w_up is None else w_up)
            branches = engine._log_branch_pair(p, a, rng.uniform(0, 500) if t is None else t)
            seed, chunk = int(rng.integers(2**32)), int(rng.integers(100))
            got = _chunk_u(branches, a, seed, chunk, size)
            want = _whole_block_sample_chunk(branches, a, seed, chunk, size)
            assert got.shape == (size,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_every_sampled_u_is_an_enumerated_u(self):
        p = ModelParams(delta=0.05, h=dispersed_couplings(0.01, 0.3, 10))
        for t in (0.0, 35.0, 210.0):
            exact = enumerate_outcomes(p, ALPHAS, t)
            sampled = sample_outcomes(p, ALPHAS, t, 2 * SAMPLE_CHUNK + 77, seed=11)
            assert np.all(np.isin(sampled.u.view(np.int64), exact.u.view(np.int64)))

    @pytest.mark.parametrize("n", [80, 1000])
    def test_peak_of_one_chunk(self, n, traced):
        # Three LOG_SUM_BLOCK-float blocks (uniforms, flip probabilities, log
        # terms), one byte per (sample, spin) for the spin-major flip mask, up
        # to eight chunk-long float arrays, and slack.
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        branches = engine._log_branch_pair(p, ALPHAS, 300.0)
        u = np.empty(SAMPLE_CHUNK)
        engine._sample_chunk(branches, ALPHAS, 5, 2, u)
        _, _, peak = traced(lambda: engine._sample_chunk(branches, ALPHAS, 5, 2, u))
        bound = 3 * 8 * LOG_SUM_BLOCK + SAMPLE_CHUNK * n + 8 * 8 * SAMPLE_CHUNK + 64 * 1024
        assert peak <= bound
        assert bound <= 32 * 2**20


class TestSampleTiles:
    @pytest.mark.parametrize("n", [1, 80, 1000])
    def test_tiles_equal_one_untiled_chunk_bitwise(self, n, monkeypatch):
        # 509 draws per tile divides no chunk size; the default budget tiles N = 1000 in two.
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.3, n))
        branches = engine._log_branch_pair(p, ALPHAS, 300.0)
        for size in (1, 1025, SAMPLE_CHUNK):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "SAMPLE_MASK_BYTES", 1 << 62)
                want = _chunk_u(branches, ALPHAS, 7, 3, size)
            for budget in (509 * n, SAMPLE_MASK_BYTES):
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "SAMPLE_MASK_BYTES", budget)
                    got = _chunk_u(branches, ALPHAS, 7, 3, size)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_mask_bounded_at_large_n(self, traced):
        # The flip mask stays within its budget where N x 1025 bytes would not (20 MB):
        # three LOG_SUM_BLOCK-float blocks and a bool one, the flip table and toggle bits
        # (3 N floats), eight chunk-long float arrays, and slack.
        n, size = 20_000, 1025
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        branches = engine._log_branch_pair(p, ALPHAS, 300.0)
        u = np.empty(size)
        _, _, peak = traced(lambda: engine._sample_chunk(branches, ALPHAS, 5, 2, u))
        bound = SAMPLE_MASK_BYTES + 25 * LOG_SUM_BLOCK + 3 * 8 * n + 8 * 8 * size + 64 * 1024
        assert peak <= bound < size * n


class TestSampledWeight:
    """'sampled' weights are one read-only broadcast 1/count with the bits of an np.full array."""

    P = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.3, 3))

    # The chunk edges, and 7, 1000 and 99,999, whose sums are not exactly 1.
    @pytest.mark.parametrize(
        "count", [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 10**5, 7, 1000, 99_999]
    )
    def test_total_weight_has_the_full_array_bits(self, count):
        dist = sample_outcomes(self.P, ALPHAS, 40.0, count, seed=2)
        full = np.sum(np.full(count, 1.0 / count))
        assert np.float64(dist.total_weight()).view(np.int64) == full.view(np.int64)

    def test_weight_is_one_read_only_value(self):
        dist = sample_outcomes(self.P, ALPHAS, 40.0, 1000, seed=2)
        assert dist.weight.shape == (1000,) and dist.weight.strides == (0,)
        assert not dist.weight.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dist.weight[0] = 1.0

    def test_one_draw_last_chunk_is_worker_invariant(self, monkeypatch):
        # Two threads run even on a one-CPU host; chunk 2 holds one draw and lands last.
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        count = 2 * SAMPLE_CHUNK + 1
        one = sample_outcomes(self.P, ALPHAS, 40.0, count, seed=8, workers=1)
        two = sample_outcomes(self.P, ALPHAS, 40.0, count, seed=8, workers=2)
        assert np.array_equal(one.u.view(np.int64), two.u.view(np.int64))
        branches = engine._log_branch_pair(self.P, ALPHAS, 40.0)
        for chunk, size in ((0, SAMPLE_CHUNK), (1, SAMPLE_CHUNK), (2, 1)):
            want = _chunk_u(branches, ALPHAS, 8, chunk, size)
            got = one.u[chunk * SAMPLE_CHUNK : chunk * SAMPLE_CHUNK + size]
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSampledPointMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_is_u_and_one_chunk_scratch_per_thread(self, workers, monkeypatch, traced):
        # 8 bytes of u per draw, plus, per running chunk, the bound of
        # TestSampleChunk.test_peak_of_one_chunk: three LOG_SUM_BLOCK-float blocks,
        # the flip mask, eight chunk-long float arrays, and slack.  128 full chunks
        # and a one-draw one; a second u-sized array would exceed the bound.
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        n, count = 8, 128 * SAMPLE_CHUNK + 1
        p = ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, n))
        sample_outcomes(p, ALPHAS, 300.0, count, 4, workers)
        _, _, peak = traced(lambda: sample_outcomes(p, ALPHAS, 300.0, count, 4, workers))
        scratch = 3 * 8 * LOG_SUM_BLOCK + SAMPLE_CHUNK * n + 8 * 8 * SAMPLE_CHUNK + 64 * 1024
        assert peak <= 8 * count + workers * scratch < 16 * count


class TestNonFiniteTimes:
    P = ModelParams(delta=0.1, h=(0.02, 0.03))
    # At a finite time the down-branch phase delta * t overflows.
    HUGE_DELTA = ModelParams(delta=1e307, h=(0.02, 0.03))

    @pytest.mark.parametrize(
        "p, t",
        [(P, math.inf), (P, math.nan), (HUGE_DELTA, 400.0)],
        ids=["inf", "nan", "huge_delta"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda p, t: sample_outcomes(p, ALPHAS, t, 10, seed=0),
            lambda p, t: enumerate_outcomes(p, ALPHAS, t),
            lambda p, t: binomial_outcomes(ModelParams(p.delta, p.h[[0, 0]]), ALPHAS, t),
            lambda p, t: pattern_projection(p, ALPHAS, t, FlipPattern([1, -1])),
        ],
        ids=["sample", "enumerate", "binomial", "projection"],
    )
    def test_rejected(self, call, p, t):
        with pytest.raises(ValueError, match="finite") as info:
            call(p, t)
        assert not isinstance(info.value, DegenerateOutcomeError)


class TestWavefunction:
    def test_initial_time(self):
        p = ModelParams(delta=0.2, h=(0.3, 0.4))
        a = SystemAmplitudes.from_up_weight(0.3, 1.0)
        phi = wavefunction_of_pattern(p, a, 0.0, (1, -1), FlipPattern.none(2))
        np.testing.assert_allclose(phi, a.vector(), atol=1e-14)

    def test_matches_universe_up_to_phase(self):
        rng = np.random.default_rng(13)
        p = ModelParams(delta=-0.4, h=(0.8, 0.1, -0.5), beta=0.3)
        a = SystemAmplitudes.from_up_weight(0.55, 2.2)
        t = 11.3
        outs = trajectory_ensemble(p, a, thermal_ensemble(p), t)
        for o in outs:
            # Index 0 has every spin up, so the flips from it are the spins.
            spins = tuple(pattern_between(0, o.labels[1], 3).d.tolist())
            pat = pattern_between(o.labels[1], o.labels[0], 3)
            phi = wavefunction_of_pattern(p, a, t, spins, pat)
            assert phase_distance(phi, o.phi) <= 1e-9

    def test_phases_depend_on_initial_spins(self):
        p = ModelParams(delta=0.3, h=(0.2,))
        a = SystemAmplitudes.from_up_weight(0.5)
        up_start = wavefunction_of_pattern(p, a, 2.0, (1,), FlipPattern.none(1))
        down_start = wavefunction_of_pattern(p, a, 2.0, (-1,), FlipPattern.none(1))
        assert phase_distance(up_start, down_start) > 1e-3

    def test_zero_coupling_counter_rotation(self):
        from centralspin.analytic import zero_h_phase_rate, zero_h_solution

        p = ModelParams(delta=0.3, h=(0.0, 0.0))
        a = SystemAmplitudes.from_up_weight(0.4, 1.0)
        rate = zero_h_phase_rate(p)
        for t in (0.7, 5.0, 31.4):
            phi = wavefunction_of_pattern(p, a, t, (-1, -1), FlipPattern.none(2))
            assert phase_distance(phi, zero_h_solution(a, rate, t).phi) <= 1e-12

    def test_degenerate_raises(self):
        p = ModelParams(delta=0.3, h=(0.0,))
        a = SystemAmplitudes.from_up_weight(0.4)
        with pytest.raises(DegenerateOutcomeError):
            wavefunction_of_pattern(p, a, 1.0, (1,), FlipPattern([-1]))

    @pytest.mark.parametrize("spins", [(1.5, -1.7), (1, -1.2), np.array([257, -1])])
    def test_spins_checked_before_the_cast(self, spins):
        p = ModelParams(delta=0.2, h=(0.3, 0.4))
        a = SystemAmplitudes.from_up_weight(0.3, 1.0)
        with pytest.raises(ValueError, match="initial spins"):
            wavefunction_of_pattern(p, a, 2.0, spins, FlipPattern.none(2))


def _random_patterns(n, rng):
    """A random point at N spins, its enumeration, and 20 of its kept pattern codes."""
    p = ModelParams(delta=float(rng.uniform(-0.5, 0.5)), h=tuple(rng.uniform(-1, 1, n)))
    a = SystemAmplitudes.from_up_weight(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 6)))
    t = float(rng.uniform(0, 200))
    dist = enumerate_outcomes(p, a, t)
    return p, a, t, dist, rng.choice(dist.u.size, 20, replace=False)


class TestOneKernel:
    """Single-pattern routes sum the pattern's logs as enumeration does."""

    @pytest.mark.parametrize("n", range(8, 14))
    def test_single_pattern_routes_equal_enumeration_bitwise(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(4):
            p, a, t, dist, picks = _random_patterns(n, rng)
            rows = engine.branch_log_rows(p, np.array([t]))
            both = _doubling(rows[:, 0], rows[:, 1], np.zeros((2, 1, 1)))[:, 0]
            logs = dict(zip(("up", "down"), both))
            for i in picks:
                code = int(dist.pattern_codes[i])
                pat = FlipPattern.from_code(code, n)
                assert pattern_projection(p, a, t, pat) == dist.u[i]
                for branch, log_w in logs.items():
                    assert log_branch_weight(p, branch, t, pat) == log_w[code]

    @pytest.mark.parametrize("n", [8, 10, 13])
    def test_sampled_u_is_the_enumerated_and_single_pattern_u(self, n):
        # Each drawn pattern's u is, bit for bit, the u that enumeration and
        # pattern_projection give that pattern: one x on every route.
        rng = np.random.default_rng(700 + n)
        p, a, t, dist, _ = _random_patterns(n, rng)
        enumerated = dict(zip(dist.pattern_codes.tolist(), dist.u.view(np.int64).tolist()))
        branches = engine._log_branch_pair(p, a, t)
        sampled = _chunk_u(branches, a, 31, 0, 300)
        codes = _chunk_flips(branches, a, 31, 0, 300) @ (1 << np.arange(n))
        for u, code in zip(sampled.tolist(), codes.tolist()):
            single = pattern_projection(p, a, t, FlipPattern.from_code(code, n))
            assert np.float64(u).view(np.int64) == enumerated[code]
            assert np.float64(single).view(np.int64) == enumerated[code]

    @pytest.mark.parametrize("n", range(8, 14))
    def test_wavefunction_magnitudes_match_projection(self, n):
        rng = np.random.default_rng(600 + n)
        for _ in range(2):
            p, a, t, dist, picks = _random_patterns(n, rng)
            for i in picks:
                pat = FlipPattern.from_code(int(dist.pattern_codes[i]), n)
                spins = tuple(int(s) for s in rng.choice([-1, 1], n))
                phi = wavefunction_of_pattern(p, a, t, spins, pat)
                u = pattern_projection(p, a, t, pat)
                # Two ulp of 1: u is at most 1.
                assert abs(abs(phi[0]) ** 2 - u) <= 2 * np.finfo(float).eps
                assert abs(np.linalg.norm(phi) - 1.0) <= 1e-15


class TestMergeByU:
    def test_groups_and_weights(self):
        from centralspin.engine import ProjectionDistribution

        dist = ProjectionDistribution(
            u=np.array([0.5, 0.5 + 5e-13, 0.9]),
            weight=np.array([0.2, 0.3, 0.5]),
            kind="exact",
        )
        merged = merge_by_u(dist)
        assert len(merged) == 2
        assert merged.weight[0] == pytest.approx(0.5)
        assert merged.u[0] == pytest.approx(0.5, abs=1e-12)

    def test_empty_passthrough(self):
        from centralspin.engine import ProjectionDistribution

        dist = ProjectionDistribution(u=np.empty(0), weight=np.empty(0), kind="exact")
        assert len(merge_by_u(dist)) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_group_loop(self, seed):
        # Clustered u (groups of about a dozen atoms), exact 0/1 atoms and a zero-weight group.
        rng = np.random.default_rng(seed)
        size = 400
        centers = rng.choice(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 30))), size)
        u = np.clip(centers + rng.uniform(-4e-13, 4e-13, size) * (centers % 1 > 0), 0.0, 1.0)
        weight = rng.uniform(0, 1, size) * (rng.uniform(0, 1, size) > 0.1)
        weight[centers == centers[0]] = 0.0
        dist = engine.ProjectionDistribution(u=u, weight=weight / weight.sum(), kind="binomial")
        want_u, want_w, sizes = _merge_loop(dist, engine.U_MERGE_TOL)
        assert np.any(want_w == 0.0) and want_u.size < size / 5
        got = merge_by_u(dist)
        assert got.u.size == want_u.size
        # Two summation orders of n >= 0 terms differ by at most 2 (n - 1) eps of the
        # sum, and u is the ratio of two such sums, so single atoms match exactly.
        eps = np.finfo(float).eps
        assert np.all(np.abs(got.weight - want_w) <= 2 * (sizes - 1) * eps * want_w)
        assert np.all(np.abs(got.u - want_u) <= (4 * (sizes - 1) + 1) * eps * want_u)

    def test_binomial_groups_equal_group_loop(self, monkeypatch):
        # The raw atoms are a one-time block's unmerged atoms, as its merge receives them;
        # merging them alone gives the point's atoms bit for bit.
        p = ModelParams(delta=0.1, h=(0.02,) * 100_000)
        real = engine._merge_rows
        for t in (0.0, 37.5, 410.0):
            unmerged = []
            monkeypatch.setattr(
                engine, "_merge_rows", lambda *args: unmerged.append(args) or real(*args)
            )
            point = binomial_outcomes(p, ALPHAS, t)
            monkeypatch.undo()
            ((u, weight, kept),) = unmerged
            assert kept.tolist() == [u.size]
            raw = engine.ProjectionDistribution(
                u=u, weight=weight, kind="binomial", dropped=point.dropped
            )
            want_u, want_w, _ = _merge_loop(raw, engine.U_MERGE_TOL)
            got = merge_by_u(raw)
            _assert_same_atoms(got, point, t)
            assert got.u.size == want_u.size
            assert np.all(np.abs(got.u - want_u) <= 4 * np.spacing(np.maximum(want_u, 1e-300)))
            assert np.all(np.abs(got.weight - want_w) <= 4 * np.spacing(np.maximum(want_w, 1e-300)))


def _merge_loop(dist, tol):
    """Reference: the group-by-group merge, one Python iteration per group; also the group sizes."""
    order = np.argsort(dist.u, kind="stable")
    u_sorted, w_sorted = dist.u[order], dist.weight[order]
    groups = np.split(np.arange(u_sorted.size), np.nonzero(np.diff(u_sorted) > tol)[0] + 1)
    u_out, w_out = np.empty(len(groups)), np.empty(len(groups))
    for g, idx in enumerate(groups):
        w = w_sorted[idx]
        w_out[g] = np.sum(w)
        u_out[g] = np.average(u_sorted[idx], weights=w) if w_out[g] > 0 else u_sorted[idx[0]]
    return u_out, w_out, np.array([idx.size for idx in groups])


def _u_from_logs(total_up, total_down):
    """Reference: u from the two branch log-weights, exact 0/1 set by masks."""
    total_up = np.asarray(total_up, dtype=float)
    total_down = np.asarray(total_down, dtype=float)
    u = np.empty_like(total_up)
    up_dead = np.isneginf(total_up)
    down_dead = np.isneginf(total_down)
    u[up_dead] = 0.0
    u[down_dead] = 1.0
    live = ~(up_dead | down_dead)
    with np.errstate(over="ignore"):
        u[live] = 1.0 / (1.0 + np.exp(total_down[live] - total_up[live]))
    return u


class TestUFromX:
    def test_equals_masked_log_form_bitwise(self):
        rng = np.random.default_rng(3)
        size = 200_000
        tu = rng.normal(0, 300, size) - rng.exponential(50, size)
        td = rng.normal(0, 300, size) - rng.exponential(50, size)
        # Dead branches, never both at once (that outcome is degenerate).
        tu[rng.uniform(0, 1, size) < 0.05] = -math.inf
        td[(rng.uniform(0, 1, size) < 0.05) & np.isfinite(tu)] = -math.inf
        want = _u_from_logs(tu, td)
        assert np.array_equal(u_from_x(td - tu), want)
        assert set(want[np.isneginf(tu)]) == {0.0} and set(want[np.isneginf(td)]) == {1.0}

    def test_scalars_equal_array_entries(self):
        xs = np.array([-800.0, -30.0, -1e-3, 0.0, 2.5, 36.7, 709.0, 710.0, math.inf, -math.inf])
        assert [float(u_from_x(float(x))) for x in xs] == u_from_x(xs).tolist()


@settings(max_examples=30, deadline=None)
@given(
    delta=st.floats(-1, 1, allow_nan=False),
    t=st.floats(0, 150, allow_nan=False),
    w_up=st.floats(0.05, 0.95),
)
def test_projection_always_in_unit_interval(delta, t, w_up):
    p = ModelParams(delta=delta, h=(0.3, -0.7, 0.05))
    a = SystemAmplitudes.from_up_weight(w_up)
    dist = enumerate_outcomes(p, a, t)
    assert np.all((dist.u >= 0.0) & (dist.u <= 1.0))
    assert dist.total_weight() == pytest.approx(1.0, abs=1e-9)


def _bit_loop_log_weights(log_keep, log_flip):
    """Reference: one pass per spin over all 2^N codes (bit i set = spin i+1 flipped)."""
    n = log_keep.size
    codes = np.arange(2**n, dtype=np.int64)
    acc = np.zeros(2**n)
    for i in range(n):
        bit = ((codes >> i) & 1).astype(bool)
        acc += np.where(bit, log_flip[i], log_keep[i])
    return acc


def _doubling(keep, flip, prefix):
    """``pattern_log_weights`` of both branches into fresh out and spare arrays, from prefix."""
    _, t, n = keep.shape
    rows = np.stack((keep, flip), axis=1)
    return pattern_log_weights(rows, prefix, np.empty((2, t, 2**n)), np.empty(t << n))


def _assert_equals_bit_loop(got, keep, flip):
    """Every branch's and time's row of a doubling equals the spin-by-spin loop bit for bit."""
    assert got.shape == keep.shape[:2] + (2 ** keep.shape[2],)
    for branch in range(2):
        for row in range(keep.shape[1]):
            want = _bit_loop_log_weights(keep[branch, row], flip[branch, row])
            assert np.array_equal(got[branch, row], want)


class TestSubsetDoubling:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_bit_loop_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        log_keep = np.log(rng.uniform(0.0, 1.0, (2, 3, n)))
        log_flip = np.log(rng.uniform(0.0, 1.0, (2, 3, n)))
        # Exact zeros: a frozen spin in row 1, a certain flip in row 2, on both branches.
        log_flip[:, 1, n // 2] = -math.inf
        log_keep[:, 2, n - 1] = -math.inf
        got = _doubling(log_keep, log_flip, np.zeros((2, 3, 1)))
        _assert_equals_bit_loop(got, log_keep, log_flip)
        assert np.isneginf(got[:, 1]).sum() == 2 ** n

    @pytest.mark.parametrize("t", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 5, 10, 13])
    def test_pattern_major_doubling_equals_spin_loop_bitwise(self, t, n):
        rng = np.random.default_rng(1000 * t + n)
        log_keep = np.log(rng.uniform(0.0, 1.0, (2, t, n)))
        log_flip = np.log(rng.uniform(0.0, 1.0, (2, t, n)))
        log_flip[0, 0, n - 1] = -math.inf
        got = _doubling(log_keep, log_flip, np.zeros((2, t, 1)))
        assert got.flags.c_contiguous
        _assert_equals_bit_loop(got, log_keep, log_flip)

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_prefix_continued_doubling_equals_spin_loop_bitwise(self, t, n):
        rng = np.random.default_rng(10 * t + n)
        log_keep = np.log(rng.uniform(0.0, 1.0, (2, t, n)))
        log_flip = np.log(rng.uniform(0.0, 1.0, (2, t, n)))
        log_flip[0, 0, n - 1] = -math.inf
        for k in sorted({0, 1, n // 2, n}):
            prefix = _doubling(log_keep[..., :k], log_flip[..., :k], np.zeros((2, t, 1)))
            _assert_equals_bit_loop(_doubling(log_keep, log_flip, prefix), log_keep, log_flip)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_low_spin_table_continues_both_branches_bitwise(self, n):
        # Times [first, first + 2) of the table are the prefix of a block of two times.
        rng = np.random.default_rng(n)
        c, first = 5, 2
        rows = np.log(rng.uniform(0.0, 1.0, (2, 2, c, n)))
        block = rows[:, :, first : first + 2]
        for k in sorted({0, 1, n // 2, n}):
            low = engine.low_spin_table(rows, k, np.full(c << k, np.nan))
            assert low.shape == (2, c, 2**k)
            out = np.empty((2, 2, 2**n))
            got = pattern_log_weights(block, low[:, first : first + 2], out, np.empty(2 << n))
            _assert_equals_bit_loop(got, block[:, 0], block[:, 1])

    @pytest.mark.parametrize("t", [1, 2, 8])
    @pytest.mark.parametrize("n, k", [(9, 6), (9, 5), (8, 0), (6, 6), (1, 1)])
    def test_both_branches_in_one_call_equal_spin_loop_bitwise(self, t, n, k):
        # N - k odd (3 steps, the first into out), even (4 and 8 steps, the first into spare) and
        # zero (prefix copied).  The rows and the prefix are strided slices of longer tables, as a
        # block's table view and low-spin slice are, and out is the head of a longer flat buffer,
        # as a short block's base is; each branch has a -inf factor, on a low spin and on a high
        # one.  A strided out is refused: the steps before the last use its memory compactly.
        rng = np.random.default_rng(100 * n + 10 * k + t)
        log_rows = np.log(rng.uniform(0.0, 1.0, (2, 2, t + 2, n)))
        log_rows[0, 1, 1, n - 1] = -math.inf
        log_rows[1, 0, t, 0] = -math.inf
        rows = log_rows[:, :, 1:-1]
        table = _doubling(log_rows[:, 0, :, :k], log_rows[:, 1, :, :k], np.zeros((2, t + 2, 1)))
        buffer = np.full(2 * (t + 1) << n, np.nan)
        view = buffer[: 2 * t << n].reshape(2, t, 2**n)
        spare = np.empty(t << n)
        assert pattern_log_weights(rows, table[:, 1:-1], view, spare) is view
        _assert_equals_bit_loop(view, rows[:, 0], rows[:, 1])
        assert np.isnan(buffer[2 * t << n :]).all()
        strided = np.empty((2, t + 1, 2**n))[:, :t]
        with pytest.raises(ValueError, match="C-contiguous"):
            pattern_log_weights(rows, table[:, 1:-1], strided, spare)


class TestDoublingBufferSize:
    """The exact routes run in numpy state of their own and give the caller's back."""

    # A strict caller: a division by zero or an invalid operation outside the routes' own
    # state would raise, and the routes must hand this state back as it was.
    CALLER = dict(divide="raise", over="warn", under="ignore", invalid="raise")

    def _assert_callers_state(self, size):
        assert np.getbufsize() == size and np.geterr() == self.CALLER

    def test_callers_setting_is_kept(self, monkeypatch):
        # At numpy's default and at another size, after each route, a grid that raises, a point
        # whose mixing raises and a doubling whose add raises (an integer out takes no float sum).
        params = ModelParams(delta=0.3, h=dispersed_couplings(0.05, 0.4, 9))
        times, cutoffs = np.array([0.0, 37.0]), logit_cutoffs(1e-3)
        rows = engine.branch_log_rows(params, times)
        top = enumerate_outcomes(params, ALPHAS, 37.0).weight.max()
        with np.errstate(**self.CALLER):
            for size in (np.getbufsize(), 4096):
                np.setbufsize(size)
                engine.exact_class_masses(params, ALPHAS, times, cutoffs)
                self._assert_callers_state(size)
                for t in times:
                    enumerate_outcomes(params, ALPHAS, t)
                    self._assert_callers_state(size)
                engine.low_spin_table(rows, 4, np.empty(2 << 4))
                self._assert_callers_state(size)
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "WEIGHT_FLOOR", (1.0 + top) / 2)
                    with pytest.raises(ValueError, match="empty distribution"):
                        engine.exact_class_masses(params, ALPHAS, times, cutoffs)
                self._assert_callers_state(size)
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "_mix_block", lambda *args: 1 / 0)
                    with pytest.raises(ZeroDivisionError):
                        enumerate_outcomes(params, ALPHAS, 37.0)
                self._assert_callers_state(size)
                out, prefix = np.empty((2, 2, 2**9), dtype=np.int64), np.zeros((2, 2, 1))
                with pytest.raises(TypeError):
                    pattern_log_weights(rows, prefix, out, np.empty(2**10))
                self._assert_callers_state(size)

    def test_table_doubling_and_mixing_run_in_the_grid_state(self, monkeypatch):
        # DOUBLING_BUFSIZE keeps the doubling's buffers small (the memory tests' bounds).
        seen = []

        def recorded(name, real):
            def call(*args):
                err = np.geterr()
                seen.append((name, np.getbufsize(), err["divide"], err["invalid"]))
                return real(*args)

            return call

        names = ("_log_rows", "pattern_log_weights", "_mix_block")
        for name in names:
            monkeypatch.setattr(engine, name, recorded(name, getattr(engine, name)))
        params = ModelParams(delta=0.0, h=(0.0, 0.3, 0.5))
        with np.errstate(**self.CALLER):
            engine.exact_class_masses(params, ALPHAS, np.array([0.0, 37.0]), logit_cutoffs(1e-3))
            enumerate_outcomes(params, ALPHAS, 0.0)
        assert {name for name, *_ in seen} == set(names)
        assert {tuple(state) for _, *state in seen} == {(engine.DOUBLING_BUFSIZE, "ignore", "ignore")}


def _grid_chunk(n):
    """Times per chunk of an exact grid at N = n."""
    step = max(1, engine.GRID_BLOCK_ATOMS >> n)
    return step * max(1, engine.PROFILE_CHUNK_ENTRIES // (step * n))


class TestChunkTable:
    """An exact grid's (2, 2, C, N) tables, from constants formed once, are the profiles' rows."""

    CASES = {
        # delta = 0 and h_1 = 0: spin 1 is frozen on the down branch (omega = 0) and cannot flip
        # on the up one either.
        "frozen_spin": ModelParams(
            delta=0.0, h=np.concatenate(([0.0], dispersed_couplings(0.05, 0.4, 10)[1:]))
        ),
        "dispersed": ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 13)),
        "equal": ModelParams(delta=0.3, h=(0.01,) * 5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_stacked_profiles_bitwise(self, case, monkeypatch):
        params = self.CASES[case]
        n = params.n_env
        # t = 0 first, and a grid of three chunks and one time more.
        times = np.concatenate(([0.0], np.linspace(0.7, 1800.0, 3 * _grid_chunk(n))))
        profiles = [branch_flip_profile(params, branch, times) for branch in ("up", "down")]
        want = np.stack([(p.log_keep, p.log_flip) for p in profiles])
        assert engine.branch_log_rows(params, times).tobytes() == want.tobytes()
        tables = []
        real = engine._log_rows
        monkeypatch.setattr(engine, "_log_rows", lambda *args: tables.append(real(*args)) or tables[-1])
        engine.exact_class_masses(params, ALPHAS, times, logit_cutoffs(1e-3))
        assert [t.shape[2] for t in tables] == [_grid_chunk(n)] * 3 + [1]
        assert np.concatenate(tables, axis=2).tobytes() == want.tobytes()
        # At t = 0 nothing flips; a frozen spin never does, and keeps with weight exactly 1.
        assert np.isneginf(want[:, 1, 0]).all() and (want[:, 0, 0] == 0.0).all()
        if case == "frozen_spin":
            assert np.isneginf(want[:, 1, :, 0]).all() and (want[1, 0, :, 0] == 0.0).all()

    # A time before 0, a non-finite time, and a phase that overflows on the up branch and (at
    # delta = 1e200, where the down branch turns faster) on the down one only.
    @pytest.mark.parametrize(
        "delta, times, message",
        [
            (0.0, [2.0, -0.5, 3.0], "t=-0.5 precedes the initial time 0"),
            (0.0, [1.0, math.inf], "t must be finite, got inf"),
            (0.0, [0.0, 1e308], "phase omega * t must be finite on the up branch"),
            (1e200, [0.0, 1e200], "phase omega * t must be finite on the down branch"),
        ],
    )
    def test_bad_times_raise_the_profile_error(self, delta, times, message):
        params = ModelParams(delta=delta, h=(0.0, 0.5, 2.0))
        times = np.array(times)
        with pytest.raises(ValueError) as profile:
            for branch in ("up", "down"):
                branch_flip_profile(params, branch, times)
        cutoffs = logit_cutoffs(1e-3)
        for route in (
            lambda: engine.branch_log_rows(params, times),
            lambda: engine.exact_class_masses(params, ALPHAS, times, cutoffs),
        ):
            with pytest.raises(ValueError) as got:
                route()
            assert str(got.value) == str(profile.value) == message


class TestBlockWorkspace:
    @pytest.mark.parametrize("n", [3, 10, 14, 16])
    def test_a_used_workspace_gives_a_fresh_ones_result(self, n):
        # Other times, the other w_up and a frozen spin leave nothing behind in the buffers.
        # At N = 16 a block is two tiles, and the grid's base buffer is reused as well.
        bits = min(n, engine.TILE_BITS)
        t = max(1, engine.GRID_BLOCK_ATOMS >> bits)
        params = ModelParams(delta=0.01, h=np.concatenate(([0.0], dispersed_couplings(0.05, 0.4, n)[1:])))
        rows = engine.branch_log_rows(params, np.linspace(0.0, 90.0, t))
        other = engine.branch_log_rows(params, np.linspace(7.0, 400.0, t))
        k = min(bits, engine._low_spins(n, t))
        low, other_low = (
            engine.low_spin_table(r, k, np.empty(r.shape[2] << k)) for r in (rows, other)
        )
        cutoffs = logit_cutoffs(1e-3)

        def buffers():
            base = np.empty(2 * t << bits) if n > bits else None
            return engine.block_workspace(bits, t, 1 << (n - bits)), base

        def masses(alphas, block_rows, prefix, workspace, base):
            out = np.empty((2, t))
            with engine._grid_state():
                mix = engine._mixture(alphas)
                dropped = engine._block_masses(mix, block_rows, workspace, prefix, base, cutoffs, out)
            return out, dropped

        for w_up in (0.0, 0.4, 1.0):
            alphas = SystemAmplitudes.from_up_weight(w_up)
            fresh, fresh_dropped = masses(alphas, rows, low, *buffers())
            used = buffers()
            masses(SystemAmplitudes.from_up_weight(1.0 - w_up), other, other_low, *used)
            got, got_dropped = masses(alphas, rows, low, *used)
            assert np.array_equal(got, fresh) and got_dropped == fresh_dropped

    def test_short_block_views_share_the_buffers(self):
        ws = engine.block_workspace(4, 3)
        short = ws.sized(2)
        assert ws.sized(3) is ws
        assert short.weight.shape == short.keep.shape == (2, 16)
        assert short.buffers is ws.buffers
        assert short.logs.shape == (2, 2, 16) and short.spare.shape == (32,)
        for name in ("spare", "weight", "logs", "log_up", "log_down", "keep", "up", "down"):
            assert any(np.shares_memory(getattr(short, name), b) for b in ws.buffers)

    def test_cap_checked_before_any_allocation(self, traced):
        def over_cap():
            with pytest.raises(EnvironmentTooLarge):
                engine.block_workspace(21, 1)
            with pytest.raises(EnvironmentTooLarge):
                enumerate_outcomes(ModelParams(delta=0.0, h=(0.1,) * 21), ALPHAS, 1.0)

        _, _, peak = traced(over_cap)
        assert peak < 64 * 1024


def _unskipped_block_masses(flags, mix, rows, workspace, prefix, base, cutoffs, out):
    """Reference: ``engine._block_masses`` as a plain tile loop without its skips.

    Every tile takes the found-row test, the class masks with keep and
    both class sums; flags takes, per tile, (every atom kept, up class
    empty, down class empty).
    """
    ws = workspace.sized(rows.shape[2])
    bits, times = ws.n, ws.times
    high = rows.shape[3] - bits
    start = ws.logs if base is None else base[: 2 * times << bits].reshape(2, times, 1 << bits)
    pattern_log_weights(rows[..., :bits], prefix, start, ws.spare)
    c_up, c_down = cutoffs
    found, kept, tile_sums = np.zeros(times, dtype=bool), 0, []
    for tile in range(1 << high):
        for s in range(high):
            np.add(ws.logs if s else start, rows[:, tile >> s & 1, :, bits + s, None], out=ws.logs)
        x, weight, keep = engine._mix_block(mix, ws)
        kept += int(np.count_nonzero(keep))
        found |= keep.any(axis=1)
        up, down = (x <= c_up) & keep, (x > c_down) & keep
        flags.append((bool(keep.all()), not up.any(), not down.any()))
        tile_sums.append([np.where(mask, weight, 0.0).sum(axis=1) for mask in (up, down)])
    if not found.all():
        raise ValueError("empty distribution")
    out[:] = engine.tile_tree_sum(np.stack(tile_sums, axis=-1))
    return (times << rows.shape[3]) - kept


class TestBlockTileSkips:
    """A tile that keeps every atom, and a class empty in a tile, skip work but keep the bits."""

    # Each case: params, alphas, times, the floor on kept weights, and the branch its tiles
    # must take.  An empty class follows a time whose same tile has atoms in that class, so a
    # skip that left the tile's sums unset would read them.
    CASES = {
        # Dispersed couplings at times off every node: every atom of every tile is kept.
        "every_atom_kept_n10": (
            ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 10)),
            ALPHAS,
            np.linspace(3.0, 400.0, 40),
            engine.WEIGHT_FLOOR,
            lambda full, up_empty, down_empty: all(full),
        ),
        "every_atom_kept_n16": (
            ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 16)),
            ALPHAS,
            np.array([20.0, 150.0]),
            engine.WEIGHT_FLOOR,
            lambda full, up_empty, down_empty: all(full),
        ),
        # At t = 0 every flip factor is exactly 0, so only the no-flip pattern is kept; at
        # t = 37 every atom is.
        "factor_zero_drops_atoms": (
            ModelParams(delta=0.3, h=dispersed_couplings(0.05, 0.4, 16)),
            ALPHAS,
            np.array([0.0, 37.0]),
            engine.WEIGHT_FLOOR,
            lambda full, up_empty, down_empty: any(full) and not all(full),
        ),
        # The atoms t = 0 drops have x NaN, which no class takes; a raised floor drops atoms
        # whose finite x lies in a class, so only the keep mask keeps them out of it.
        "floor_drops_classed_atoms": (
            ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 16)),
            ALPHAS,
            np.array([150.0, 350.0]),
            1e-8,
            lambda full, up_empty, down_empty: not any(full),
        ),
        "up_class_empty_in_a_tile": (
            ModelParams(delta=0.01, h=dispersed_couplings(0.01, 0.02, 16)),
            ALPHAS,
            np.array([350.0, 37.0]),
            engine.WEIGHT_FLOOR,
            lambda full, up_empty, down_empty: up_empty == (False, False, False, True),
        ),
        "down_class_empty_in_a_tile": (
            ModelParams(delta=0.3, h=dispersed_couplings(0.5, 0.2, 16)),
            SystemAmplitudes.from_up_weight(0.99),
            np.array([3.0, 5.0]),
            engine.WEIGHT_FLOOR,
            lambda full, up_empty, down_empty: down_empty == (False, False, True, False),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_unskipped_tile_loop_bitwise(self, case, monkeypatch):
        params, alphas, times, floor, takes_the_branch = self.CASES[case]
        monkeypatch.setattr(engine, "WEIGHT_FLOOR", floor)
        cutoffs = logit_cutoffs(1e-3)
        masses, dropped = engine.exact_class_masses(params, alphas, times, cutoffs)
        flags = []
        monkeypatch.setattr(
            engine, "_block_masses", lambda *args: _unskipped_block_masses(flags, *args)
        )
        want, want_dropped = engine.exact_class_masses(params, alphas, times, cutoffs)
        assert masses.tobytes() == want.tobytes() and dropped == want_dropped
        assert takes_the_branch(*zip(*flags))
        if case == "factor_zero_drops_atoms":
            assert dropped == (1 << params.n_env) - 1
            assert np.isneginf(engine.branch_log_rows(params, times)[:, 1, 0]).all()

    def test_a_row_that_keeps_no_atom_still_raises(self, monkeypatch):
        # A floor between the t = 0 no-flip weight (1) and every t = 37 weight empties the
        # second row.
        params = ModelParams(delta=0.3, h=dispersed_couplings(0.05, 0.4, 16))
        top = enumerate_outcomes(params, ALPHAS, 37.0).weight.max()
        monkeypatch.setattr(engine, "WEIGHT_FLOOR", (1.0 + top) / 2)
        times, cutoffs = np.array([0.0, 37.0]), logit_cutoffs(1e-3)
        with pytest.raises(ValueError, match="empty distribution"):
            engine.exact_class_masses(params, ALPHAS, times, cutoffs)
        monkeypatch.setattr(engine, "_block_masses", lambda *args: _unskipped_block_masses([], *args))
        with pytest.raises(ValueError, match="empty distribution"):
            engine.exact_class_masses(params, ALPHAS, times, cutoffs)


class TestBinomialLogCounts:
    @pytest.mark.parametrize("n", [1, 2, 80, 1000, 10**5])
    def test_equals_lgamma_formula_bitwise(self, n):
        want = [math.lgamma(v + 1) for v in range(n + 1)]
        assert np.array_equal(log_factorials(n).view(np.int64), np.array(want).view(np.int64))

    # The top 10^5 counts up to the table cap (log k! of N <= ARRAY_BYTES_CAP // 8 - 1), a
    # mid-range span and a one-count span: the float arguments give lgamma's bits on ints.
    CAP = engine.ARRAY_BYTES_CAP // 8 - 1

    @pytest.mark.parametrize(
        "start, n", [(CAP - 10**5 + 1, CAP), (6_809, 14_602), (CAP, CAP), (41, 41)]
    )
    def test_spans_equal_int_lgamma_bitwise(self, start, n):
        want = np.array([math.lgamma(k + 1) for k in range(start, n + 1)])
        assert log_factorials(n, start).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097, 8190, 8192, 8193, 10**5, 10**5 + 1])
    def test_in_place_table_equals_vector_formula_bitwise(self, n):
        # log C(n, k) as the spans form it in place and as the reference forms it, from
        # log k!, is the scalar lgamma formula at both parities of n.
        lf = log_factorials(n)
        want = [math.lgamma(n + 1) - math.lgamma(v + 1) - math.lgamma(n - v + 1) for v in range(n + 1)]
        got = lf[-1] - lf - lf[::-1]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_peak_is_the_table(self, traced):
        n = 10**6
        _, _, peak = traced(lambda: log_factorials(n))
        # 4 KiB for the array header and the lgamma iterator.
        assert peak < 8 * (n + 1) + 4 * 1024

    def test_passed_counts_give_the_same_distribution(self):
        p = ModelParams(delta=0.1, h=(0.02,) * 80)
        grid = BinomialGrid(p)
        for t in (0.0, 37.5, 410.0):
            a = binomial_outcomes(p, ALPHAS, t)
            b = binomial_outcomes(p, ALPHAS, t, grid=grid)
            assert np.array_equal(a.u, b.u) and np.array_equal(a.weight, b.weight)
            assert a.dropped == b.dropped


def _binomial_full_weights(params, alphas, t, log_fact):
    """Reference: every flip count's (x, weight) from all N spins' profiles (every row equal)."""
    n = params.n_env
    log_counts = log_fact[n] - log_fact - log_fact[::-1]
    up, down, lw_up, lw_down = engine._log_branch_pair(params, alphas, t)
    k = np.arange(n + 1, dtype=np.int64)

    def log_w(profile):
        with np.errstate(invalid="ignore"):
            keep_part = np.where(k < n, (n - k) * profile.log_keep[0], 0.0)
            flip_part = np.where(k > 0, k * profile.log_flip[0], 0.0)
        return keep_part + flip_part

    log_wu, log_wd = log_w(up), log_w(down)
    weight = alphas.w_up * np.exp(log_counts + log_wu) + alphas.w_down * np.exp(log_counts + log_wd)
    with np.errstate(invalid="ignore"):
        return (lw_down + log_wd) - (lw_up + log_wu), weight


def _binomial_full_profile(params, alphas, t, log_fact=None):
    """Reference: the binomial atoms over all N + 1 counts, from all N spins' profiles."""
    if log_fact is None:
        log_fact = log_factorials(params.n_env)
    x, weight = _binomial_full_weights(params, alphas, t, log_fact)
    keep = weight >= engine.WEIGHT_FLOOR
    dist = engine.ProjectionDistribution(
        u=u_from_x(x[keep]), weight=weight[keep], kind="binomial",
        dropped=int(np.count_nonzero(~keep)),
    )
    return merge_by_u(dist)
