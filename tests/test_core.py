"""Per-spin algebra against an independent matrix-exponential oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from centralspin import core
from centralspin.core import (
    LOG_SUM_BLOCK,
    FlipPattern,
    FlipProfile,
    ModelParams,
    SystemAmplitudes,
    branch_axis,
    branch_flip_profile,
    dispersed_couplings,
    last_dispersed_coupling,
    log_branch_weight,
    pattern_log_weight,
    spin_amplitude,
    spin_spectral,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def expm_amplitude(a, b, tau, s, flipped):
    """Independent 2x2 oracle: matrix element of expm(-i tau (a sz + b sx))."""
    u = expm(-1j * tau * (a * SZ + b * SX))
    row = 0 if ((-s if flipped else s) == 1) else 1
    col = 0 if s == 1 else 1
    return complex(u[row, col])


finite_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


class TestModelParams:
    def test_dispersed_couplings_rule(self):
        h = dispersed_couplings(0.01, 0.02, 10)
        assert h.dtype == np.float64 and h.shape == (10,)
        assert h == pytest.approx([0.01 + (j - 1) * 0.002 for j in range(1, 11)])

    def test_dispersed_couplings_equal_scalar_formula_bitwise(self):
        rng = np.random.default_rng(11)
        cases = [(0.01, 0.02, 10), (0.3, 0.0, 7), (0.2, -0.7, 9), (-0.0, -0.5, 3), (0.4, 0.3, 1)]
        for _ in range(50):
            cases.append((rng.uniform(-10, 10), rng.uniform(-5, 5), int(rng.integers(1, 500))))
        cases += [(rng.normal(), 0.0, int(rng.integers(1, 50))) for _ in range(5)]
        # Signed zeros, the least subnormal and a huge h, each with delta_h = 0.02.
        cases += [(h, 0.02, n) for h in (0.01, 0.0, -0.0, 5e-324, -1e300) for n in (1, 7, 1000)]
        for h, delta_h, n in cases:
            got = dispersed_couplings(h, delta_h, n)
            want = [h + (j - 1) * delta_h / n for j in range(1, n + 1)]
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    @pytest.mark.parametrize("h", [0.01, 0.0, -0.0, 5e-324, -1e300])
    @pytest.mark.parametrize("delta_h", [0.0, -0.0])
    def test_constant_couplings_are_one_shared_float(self, h, delta_h):
        # Every coupling has the bits of the one float h + delta_h / n, sign of zero
        # included (-0.0 + 0.0 is +0.0), and ModelParams keeps them.
        for n in (1, 7, 1000):
            got = ModelParams(delta=0.0, h=dispersed_couplings(h, delta_h, n))
            one = np.float64(h + delta_h / n)
            assert np.array_equal(got.h.view(np.int64), np.full(n, one).view(np.int64))
            assert got.equal_couplings

    def test_last_dispersed_coupling_is_last_of_expansion(self):
        for h, delta_h, n in ((0.01, 0.02, 10), (0.3, -0.7, 7), (1e-300, 1e-320, 4), (0.2, 0.0, 1)):
            assert last_dispersed_coupling(h, delta_h, n) == dispersed_couplings(h, delta_h, n)[-1]

    def test_mu_nu_sum_to_one(self):
        for delta in (0.0, 0.3, -0.77, 1.0):
            p = ModelParams(delta=delta, h=(0.1,))
            assert p.mu + p.nu == pytest.approx(1.0, abs=1e-15)
            assert p.mu - p.nu == pytest.approx(delta, abs=1e-15)

    def test_rejects_empty_bath(self):
        with pytest.raises(ValueError):
            ModelParams(delta=0.0, h=())

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ModelParams(delta=0.0, h=(0.1,), beta=-1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"), h=(0.1,))
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(delta=0.0, h=(0.1, bad, 0.2))

    @pytest.mark.parametrize("h", [(), np.empty(0), [[0.1, 0.2]], np.zeros((3, 1)), 0.1])
    def test_rejects_couplings_that_are_not_one_nonempty_row(self, h):
        with pytest.raises(ValueError, match="at least one environment spin"):
            ModelParams(delta=0.0, h=h)

    def test_couplings_are_a_read_only_copy(self):
        source = np.array([0.1, 0.2, 0.3])
        p = ModelParams(delta=0.0, h=source)
        source[0] = 9.0
        assert p.h.dtype == np.float64 and p.h.tolist() == [0.1, 0.2, 0.3]
        with pytest.raises(ValueError, match="read-only"):
            p.h[0] = 1.0
        assert ModelParams(delta=0.0, h=[1, 2]).h.dtype == np.float64

    def test_broadcast_couplings_are_one_read_only_value(self):
        source = np.array(0.25)
        p = ModelParams(delta=0.0, h=np.broadcast_to(source, (10**6,)))
        source[...] = 9.0
        assert p.h.strides == (0,) and p.h.shape == (10**6,) and p.h[-1] == 0.25
        assert p.n_env == 10**6 and p.equal_couplings
        with pytest.raises(ValueError, match="read-only"):
            p.h[0] = 1.0
        assert ModelParams(delta=0.0, h=np.broadcast_to(np.int64(2), (3,))).h.dtype == np.float64
        with pytest.raises(ValueError, match="finite"):
            ModelParams(delta=0.0, h=np.broadcast_to(math.inf, (5,)))

    def test_explicit_equal_couplings_are_copied_whole(self):
        assert ModelParams(delta=0.0, h=(0.1,) * 5).h.strides == (8,)
        h = ModelParams(delta=0.0, h=[0.0, -0.0]).h
        assert h.tolist() == [0.0, 0.0] and np.signbit(h).tolist() == [False, True]

    def test_elapsed_rejects_past(self):
        p = ModelParams(delta=0.0, h=(0.1,))
        for t in (-1.0, -5e-324, np.array([2.0, -0.5])):
            with pytest.raises(ValueError, match="precedes the initial time 0"):
                p.elapsed(t)
            with pytest.raises(ValueError, match="precedes the initial time 0"):
                branch_flip_profile(p, "up", t)

    @pytest.mark.parametrize(
        "h",
        [
            (0.0, -0.0),
            (0.3,),
            dispersed_couplings(1e-300, 1e-320, 4),
            dispersed_couplings(0.01, 0.02, 10),
        ],
        ids=["signed_zeros", "single_spin", "underflowing_dispersion", "dispersed"],
    )
    def test_equal_couplings_is_one_distinct_value(self, h):
        assert ModelParams(delta=0.0, h=h).equal_couplings == (len(set(h)) == 1)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_elapsed_rejects_nonfinite(self, t):
        p = ModelParams(delta=0.0, h=(0.1,))
        with pytest.raises(ValueError, match="finite"):
            p.elapsed(t)
        with pytest.raises(ValueError, match="finite"):
            p.elapsed(np.array([3.0, t]))
        with pytest.raises(ValueError, match="finite"):
            branch_flip_profile(p, "up", t)


class TestSystemAmplitudes:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SystemAmplitudes(1.0, 1.0)

    def test_from_up_weight(self):
        a = SystemAmplitudes.from_up_weight(0.4, 0.9)
        assert a.w_up == pytest.approx(0.4, abs=1e-15)
        assert a.w_down == pytest.approx(0.6, abs=1e-15)
        assert cmath.phase(a.a_down) == pytest.approx(0.9)

    def test_up_weight_range(self):
        with pytest.raises(ValueError):
            SystemAmplitudes.from_up_weight(1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
    def test_rejects_nonfinite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SystemAmplitudes(bad, 0.5)
        with pytest.raises(ValueError, match="finite"):
            SystemAmplitudes(0.5, bad)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_phase(self, phase):
        with pytest.raises(ValueError, match="finite"):
            SystemAmplitudes.from_up_weight(0.4, phase)
        with pytest.raises(ValueError, match="finite"):
            SystemAmplitudes.from_up_weight(1.0, phase)


class TestSpinSpectral:
    def test_down_branch_at_zero_detuning(self):
        p = ModelParams(delta=0.0, h=(0.01,))
        s = spin_spectral(p, "down", 1)
        assert s.omega == pytest.approx(0.01, abs=1e-15)
        assert s.ratio == 0.0

    def test_up_branch_zero_coupling(self):
        for delta in (0.0, 0.5, -0.2):
            p = ModelParams(delta=delta, h=(0.0,))
            s = spin_spectral(p, "up", 1)
            assert s.omega == 1.0
            assert s.ratio == 1.0

    def test_symmetric_case(self):
        p = ModelParams(delta=0.1, h=(0.1,))
        s = spin_spectral(p, "down", 1)
        assert s.omega == pytest.approx(math.sqrt(0.02), rel=1e-14)
        assert s.ratio == pytest.approx(0.5, rel=1e-14)

    def test_ratio_times_omega_squared(self):
        p = ModelParams(delta=-0.35, h=(0.7, 0.0))
        for branch in ("up", "down"):
            a, _ = branch_axis(p, branch)
            for j in (1, 2):
                s = spin_spectral(p, branch, j)
                assert s.ratio * s.omega**2 == pytest.approx(a**2, abs=1e-14)

    def test_index_out_of_range(self):
        p = ModelParams(delta=0.0, h=(0.1,))
        with pytest.raises(IndexError):
            spin_spectral(p, "up", 2)
        with pytest.raises(IndexError):
            spin_spectral(p, "up", 0)

    def test_unknown_branch(self):
        p = ModelParams(delta=0.0, h=(0.1,))
        with pytest.raises(ValueError):
            spin_spectral(p, "sideways", 1)


class TestSpinAmplitude:
    def test_identity_at_initial_time(self):
        p = ModelParams(delta=0.2, h=(0.4,))
        assert spin_amplitude(p, "up", 1, 0.0, 1, flipped=False) == 1.0
        assert spin_amplitude(p, "up", 1, 0.0, 1, flipped=True) == 0.0

    def test_zero_coupling_pure_phase(self):
        p = ModelParams(delta=0.6, h=(0.0,))
        for t in (0.3, 2.0, 17.5):
            g = spin_amplitude(p, "up", 1, t, 1, flipped=False)
            assert g == pytest.approx(cmath.exp(-1j * t), abs=1e-14)

    def test_against_matrix_exponential_oracle(self):
        # 1000 random (delta, h, t) draws, both branches, both spins, to 1e-12.
        rng = np.random.default_rng(20260809)
        worst = 0.0
        for _ in range(1000):
            p = ModelParams(delta=float(rng.uniform(-1, 1)), h=(float(rng.uniform(-3, 3)),))
            t = float(rng.uniform(0, 80))
            branch = ("up", "down")[int(rng.integers(2))]
            s = int(rng.choice([1, -1]))
            flipped = bool(rng.integers(2))
            a, b_sign = branch_axis(p, branch)
            got = spin_amplitude(p, branch, 1, t, s, flipped)
            want = expm_amplitude(a, b_sign * p.h[0], t, s, flipped)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    def test_modulus_matches_flip_profile(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            p = ModelParams(delta=float(rng.uniform(-1, 1)), h=tuple(rng.uniform(-2, 2, 3)))
            t = float(rng.uniform(0, 50))
            branch = ("up", "down")[int(rng.integers(2))]
            prof = branch_flip_profile(p, branch, t)
            for j in (1, 2, 3):
                s = int(rng.choice([1, -1]))
                kept = abs(spin_amplitude(p, branch, j, t, s, flipped=False)) ** 2
                flip = abs(spin_amplitude(p, branch, j, t, s, flipped=True)) ** 2
                worst = max(worst, abs(kept - prof.keep[j - 1]), abs(flip - prof.flip[j - 1]))
        assert worst <= 1e-12

    def test_rejects_bad_spin(self):
        p = ModelParams(delta=0.0, h=(0.1,))
        with pytest.raises(ValueError):
            spin_amplitude(p, "up", 1, 1.0, 0, flipped=False)


@settings(max_examples=60, deadline=None)
@given(
    delta=finite_floats,
    h=st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6),
    t=st.floats(0, 200, allow_nan=False),
)
def test_per_spin_pair_sum_rule(delta, h, t):
    p = ModelParams(delta=delta, h=tuple(h))
    for branch in ("up", "down"):
        prof = branch_flip_profile(p, branch, t)
        assert np.max(np.abs(prof.keep + prof.flip - 1.0)) <= 1e-12


class TestBlockProfile:
    def test_rows_equal_scalar_profiles_bitwise(self):
        # A frozen spin (delta = 0, h = 0 on the down branch) and t = 0
        # give exact zeros, hence -inf logs.
        p = ModelParams(delta=0.0, h=(0.0, 0.01, 0.37, 2.5))
        times = np.array([0.0, 0.3, 17.0, 1800.0 / 7])
        for branch in ("up", "down"):
            block = branch_flip_profile(p, branch, times)
            for k, t in enumerate(times):
                one = branch_flip_profile(p, branch, float(t))
                for got, want in zip(block, one):
                    assert got.shape == (4, 4) and np.array_equal(got[k], want)

    def test_block_time_before_t0_rejected(self):
        # t0 = 0, the initial time of every evolution.
        p = ModelParams(delta=0.0, h=(0.1,))
        with pytest.raises(ValueError, match="precedes"):
            branch_flip_profile(p, "up", np.array([2.0, -0.5]))


class TestLogBranchWeight:
    def test_no_flips_at_initial_time(self):
        p = ModelParams(delta=0.0, h=(0.3, 0.1))
        assert log_branch_weight(p, "up", 0.0, FlipPattern.none(2)) == 0.0

    def test_flip_at_initial_time_is_impossible(self):
        p = ModelParams(delta=0.0, h=(0.3, 0.1))
        assert log_branch_weight(p, "down", 0.0, FlipPattern([1, -1])) == -math.inf

    def test_matches_naive_product(self):
        # Two kept spins and one flipped: 2 log(keep) + log(flip).
        p = ModelParams(delta=0.0, h=(0.01, 0.01, 0.01))
        t = 100.0
        s = spin_spectral(p, "up", 1)
        keep = math.cos(s.omega * t) ** 2 + s.ratio * math.sin(s.omega * t) ** 2
        flip = (1 - s.ratio) * math.sin(s.omega * t) ** 2
        want = 2 * math.log(keep) + math.log(flip)
        got = log_branch_weight(p, "up", t, FlipPattern([1, 1, -1]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        h = rng.uniform(-1, 1, 6)
        d = rng.choice([1, -1], 6)
        t = 23.7
        base = log_branch_weight(
            ModelParams(delta=0.25, h=tuple(h)), "down", t, FlipPattern(d)
        )
        for _ in range(10):
            perm = rng.permutation(6)
            shuffled = log_branch_weight(
                ModelParams(delta=0.25, h=tuple(h[perm])), "down", t, FlipPattern(d[perm])
            )
            assert shuffled == pytest.approx(base, abs=1e-12)

    def test_pattern_length_checked(self):
        p = ModelParams(delta=0.0, h=(0.3,))
        with pytest.raises(ValueError):
            log_branch_weight(p, "up", 1.0, FlipPattern([1, 1]))

    @pytest.mark.parametrize("n", [1, 8, 13, 80])
    def test_mask_block_equals_single_masks_bitwise(self, n):
        rng = np.random.default_rng(70 + n)
        p = ModelParams(delta=0.1, h=dispersed_couplings(0.01, 0.3, n))
        profile = branch_flip_profile(p, "down", 41.3)
        masks = rng.random((20, n)) < 0.5
        masks[0] = False
        got = pattern_log_weight(profile, masks)
        assert got.shape == (20,)
        for row, mask in zip(got, masks):
            one = pattern_log_weight(profile, mask)
            assert isinstance(one, float) and row == one

    @pytest.mark.parametrize("n, samples", [(90, 1500), (3, 50_000)])
    def test_spin_blocks_and_layouts_agree_row_by_row(self, n, samples):
        # Both shapes span several blocks of LOG_SUM_BLOCK terms; the first
        # spin is frozen on the down branch (delta = 0, h_1 = 0), so its
        # flip log is -inf.
        assert n * samples > 2 * LOG_SUM_BLOCK
        rng = np.random.default_rng(n)
        p = ModelParams(delta=0.0, h=np.concatenate(([0.0], dispersed_couplings(0.02, 0.5, n)[1:])))
        profile = branch_flip_profile(p, "down", 77.7)
        assert profile.log_flip[0] == -math.inf
        masks = rng.random((samples, n)) < 0.3
        masks[: samples // 2, 0] = False
        got = pattern_log_weight(profile, masks)
        spin_major = pattern_log_weight(profile, np.ascontiguousarray(masks.T).T)
        assert np.array_equal(got.view(np.int64), spin_major.view(np.int64))
        assert np.isneginf(got).sum() == np.count_nonzero(masks[:, 0])
        singles = np.array([pattern_log_weight(profile, mask) for mask in masks])
        assert np.array_equal(got.view(np.int64), singles.view(np.int64))


def _spin_loop_sums(log_keep, log_flip, masks):
    """Reference: each pattern's logs added spin by spin from spin 1, starting at 0."""
    out = []
    for mask in masks:
        total = 0.0
        for keep, flip, flipped in zip(log_keep.tolist(), log_flip.tolist(), mask.tolist()):
            total += flip if flipped else keep
        out.append(total)
    return np.array(out)


class TestLogSumOrder:
    @pytest.mark.parametrize("block", [LOG_SUM_BLOCK, 64])
    @pytest.mark.parametrize("n, samples", [(1, 3), (9, 1), (13, 2), (40, 7), (300, 20), (80, 1025)])
    def test_equals_a_spin_by_spin_loop_bitwise(self, n, samples, block, monkeypatch):
        # A block of 64 terms splits every case past N = 64 / S into several blocks of spins;
        # -inf keep and flip logs sit at the first, a middle and the last spin.
        monkeypatch.setattr(core, "LOG_SUM_BLOCK", block)
        rng = np.random.default_rng(100 * n + samples)
        log_keep = np.log(rng.uniform(0.0, 1.0, n))
        log_flip = np.log(rng.uniform(0.0, 1.0, n))
        log_flip[0] = log_keep[n // 2] = log_flip[n - 1] = -math.inf
        profile = FlipProfile(np.exp(log_keep), np.exp(log_flip), log_keep, log_flip)
        masks = rng.random((samples, n)) < 0.3
        masks[0] = False
        want = _spin_loop_sums(log_keep, log_flip, masks)
        got = pattern_log_weight(profile, masks)
        assert got.shape == (samples,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        singles = np.array([pattern_log_weight(profile, mask) for mask in masks])
        assert np.array_equal(singles.view(np.int64), want.view(np.int64))


class TestFlipPattern:
    def test_code_roundtrip(self):
        for code in (0, 1, 5, 12, 31):
            assert FlipPattern.from_code(code, 5).code() == code

    @pytest.mark.parametrize("n", [63, 64, 65, 80, 200])
    def test_code_roundtrip_past_64_spins(self, n):
        rng = np.random.default_rng(n)
        codes = {0, 1, 1 << (n - 1), (1 << n) - 1, int(rng.integers(0, 2**62)) << (n - 63)}
        for code in codes:
            pattern = FlipPattern.from_code(code, n)
            assert pattern.code() == code
            assert pattern.flipped.tolist() == [bool((code >> i) & 1) for i in range(n)]
        # The two patterns that collided at -2^63 and at 0 from N = 64 on stay distinct.
        assert FlipPattern.from_code(1 << (n - 1), n).code() != FlipPattern.none(n).code()

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            FlipPattern([1, 0, -1])

    @pytest.mark.parametrize("d", [[1.5, -1.2], np.array([257, 255]), np.array([1.0, -0.5])])
    def test_entries_checked_before_the_cast(self, d):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            FlipPattern(d)

    def test_flip_count(self):
        assert FlipPattern([1, -1, -1, 1]).flip_count == 2
