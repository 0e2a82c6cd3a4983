"""Config parsing, presets, emission contracts, command-line behavior."""

import contextlib
import errno
import importlib
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centralspin import cli, engine, observables, selfcheck, universe
from centralspin.cli import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _preset_configs,
    emit_results,
    main,
    parse_config,
    run_config,
)
from centralspin.core import ModelParams, SystemAmplitudes, dispersed_couplings

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MINIMAL = "n = 10\nh = 0.01\ndelta = 0\nalpha_up_sq = 0.4\n"


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 10
        assert cfg.h == (0.01,)
        assert cfg.alpha_up_sq == 0.4
        assert cfg.epsilon == 1e-3
        assert cfg.beta == 0.0
        assert cfg.seed == 0
        assert cfg.method == "auto"
        assert cfg.resolved_method() == "exact"

    def test_dispersion_expansion(self):
        cfg = parse_config(MINIMAL + "delta_h = 0.02\n")
        h = cfg.params().h
        assert h == pytest.approx(tuple(0.01 + (j - 1) * 0.002 for j in range(1, 11)))

    def test_explicit_coupling_list(self):
        cfg = parse_config("n = 3\nh = 0.1; 0.2; 0.3\n")
        assert cfg.params().h.tolist() == [0.1, 0.2, 0.3]

    def test_coupling_list_length_checked(self):
        with pytest.raises(ConfigError, match="h"):
            parse_config("n = 4\nh = 0.1; 0.2; 0.3\n")

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha_up_sq"):
            parse_config("n = 2\nh = 0.1\nalpha_up_sq = 1.5\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(MINIMAL + "wibble = 3\n")

    def test_preset_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown key 'preset' on line 5"):
            parse_config(MINIMAL + "preset = fig1\n")

    def test_each_key_parses_to_its_field(self):
        # One value per config key, as text and as the field holds it; the int, float,
        # list and str parsers each meet a field of their own type.
        values = {
            "n": ("3", 3), "h": ("0.1, 0.2", (0.1, 0.2)), "delta": ("0.25", 0.25),
            "delta_h": ("0.02", 0.02), "beta": ("1.5", 1.5), "alpha_up_sq": ("0.4", 0.4),
            "phase": ("0.3", 0.3), "epsilon": ("1e-4", 1e-4), "t_start": ("1", 1.0),
            "t_end": ("50", 50.0), "steps": ("7", 7), "method": ("binomial", "binomial"),
            "samples": ("500", 500), "seed": ("4", 4), "workers": ("3", 3),
            "hist_times": ("5; 10", (5.0, 10.0)), "label": ("demo", "demo"),
            "out": ("elsewhere", "elsewhere"),
        }
        assert set(values) == set(cli._KEY_PARSERS)
        for key, (text, value) in values.items():
            lines = {"n": "2", "h": "0.01", key: text}
            cfg = parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
            assert cfg == ExperimentConfig(**{"n": 2, "h": (0.01,), key: value}), key
            assert type(getattr(cfg, key)) is type(value), key

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "n = 4\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="n"):
            parse_config("h = 0.1\n")
        with pytest.raises(ConfigError, match="h"):
            parse_config("n = 3\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nn = 2  # trailing\nh = 0.1\n")
        assert cfg.n == 2

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(MINIMAL + "steps = many\n")

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(MINIMAL + "epsilon = 0.7\n")


# Each config here fails at run time unless validate rejects it first.
RUN_REJECTS = {
    "nan_delta": "delta = nan\n",
    "inf_t_end": "t_end = inf\n",
    "nan_phase": "phase = nan\n",
    "inf_coupling": "h = 0.01; inf; 0.01; 0.01; 0.01; 0.01; 0.01; 0.01; 0.01; 0.01\n",
    "nan_hist_time": "hist_times = nan\n",
    "overflowing_dispersion": "delta_h = 1e308\nn = 20\n",
    "grid_before_t0": "t_start = -500\n",
    "hist_before_t0": "hist_times = -1\n",
    "grid_spacing_below_ulp": "t_start = 1e16\nt_end = 1.0000000000000004e16\n",
    "negative_seed": "seed = -1\n",
    "exact_over_cap": "n = 21\nmethod = exact\n",
    "universe_over_cap": "n = 13\nmethod = exact-universe\n",
    "binomial_dispersed": "delta_h = 0.02\nmethod = binomial\n",
    "label_escapes_out": "label = ../escape\n",
    "label_has_separator": "label = sub/name\n",
    "out_has_nul": "out = sub\0name\n",
    # At the last grid time delta = 1e307 overflows the down-branch phase, h = 1e307 both.
    "overflowing_phase_delta": "delta = 1e307\n",
    "overflowing_phase_coupling": "h = 1e307\n",
    # Each spin's phase is finite, but a sector eigenvalue of about n * h times t is not.
    "overflowing_universe_phase": "n = 4\nh = 2.5e305\nmethod = exact-universe\nsteps = 3\n",
    # The thermal log-weight -beta * mu * n overflows (mu = 0.5), so the occupations would be NaN.
    "overflowing_thermal_weights": (
        "n = 4\nh = 0.1\nbeta = 1e308\nmethod = exact-universe\nsteps = 2\n"
    ),
}


def config_text(overrides):
    """MINIMAL with the keys in ``overrides`` replaced."""
    keys = {line.split("=")[0].strip() for line in overrides.splitlines()}
    kept = [line for line in MINIMAL.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + overrides


PREPARE_REACHED = "evaluation reached observables.prepare"


def _never_prepare(*args, **kwargs):
    """Stands in for observables.prepare, which every evaluation calls first."""
    raise RuntimeError(PREPARE_REACHED)


class TestValidateBoundary:
    @pytest.mark.parametrize("case", sorted(RUN_REJECTS))
    def test_validate_and_run_exit_1(self, case, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(config_text(RUN_REJECTS[case]))
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "escape.csv").exists()

    @pytest.mark.parametrize(
        "overrides, branch, t",
        [
            ("delta = 1e307\n", "down", "399.66666666666663"),
            ("h = 1e307\n", "up", "399.66666666666663"),
            ("delta = 1e307\nhist_times = 1; 500\n", "down", "500.0"),
        ],
    )
    def test_overflowing_phase_names_its_branch(self, overrides, branch, t):
        # The first branch whose phase omega * t overflows at the last time, grid or histogram.
        with pytest.raises(ConfigError) as err:
            parse_config(config_text(overrides))
        assert str(err.value) == (
            f"delta, h: phase omega * t must be finite on the {branch} branch at t = {t}"
        )

    def test_overrides_are_validated(self, tmp_path):
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL)
        assert main(["run", str(path), "--seed", "-1", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["run", "preset"])
    def test_rejected_override_creates_no_directory(self, tmp_path, capsys, command):
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL)
        out = tmp_path / "o3"
        target = [str(path)] if command == "run" else ["fig1"]
        assert main([command, *target, "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: seed: must be non-negative\n"
        assert not out.exists()

    def test_overridden_samples_rejected_with_its_message(self, tmp_path, capsys):
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL)
        assert main(["run", str(path), "--samples", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "config error: samples: must be positive\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_grid_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        # steps = 10**12 would ask numpy for a 7.28 TiB grid; the budget rejects it before.
        def never(self, *args):
            raise AssertionError("built the grid of a config over the results budget")

        monkeypatch.setattr(ExperimentConfig, "grid", never)
        path = tmp_path / "huge.conf"
        path.write_text(MINIMAL + "steps = 1000000000000\n")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == 2 * f"config error: {TestResultsBudget.message(10**12, 0)}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_largest_finite_thermal_weights_run(self, tmp_path):
        # At n = 3 every log-weight is finite: a one-hot ensemble, finite masses, no warning.
        path = tmp_path / "cold.conf"
        path.write_text("n = 3\nh = 0.1\nbeta = 1e308\nmethod = exact-universe\nsteps = 2\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "nan" not in (tmp_path / "out" / "run.csv").read_text()

    @pytest.mark.parametrize("how", ["run_config_out", "run_flag", "preset_flag"])
    def test_out_that_is_a_file_exits_1_before_evaluating(self, tmp_path, monkeypatch, capsys, how):
        def never(*args, **kwargs):
            raise AssertionError("prepared an engine for a run whose output directory is unusable")

        # Every evaluation prepares its engine first.
        monkeypatch.setattr(observables, "prepare", never)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL + (f"out = {taken}\n" if how == "run_config_out" else ""))
        argv = {
            "run_config_out": ["run", str(path)],
            "run_flag": ["run", str(path), "--out", str(taken)],
            "preset_flag": ["preset", "fig1", "--out", str(taken)],
        }[how]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: out:")
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("command", ["validate", "run", "preset"])
    @pytest.mark.parametrize("unusable", ["dangling_symlink", "unwritable_directory"])
    def test_unusable_out_exits_1_before_evaluating(
        self, tmp_path, monkeypatch, capsys, unusable, command
    ):
        monkeypatch.setattr(observables, "prepare", _never_prepare)
        out = tmp_path / "out"
        if unusable == "dangling_symlink":
            out.symlink_to(tmp_path / "nowhere")
        else:
            # A stand-in for os.access: a process that may write anywhere sees no unwritable one.
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            out.mkdir()
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL + f"out = {out}\n")
        before = sorted(os.walk(tmp_path))
        target = ["fig1", "--out", str(out)] if command == "preset" else [str(path)]
        assert main([command, *target]) == 1
        expected = f"config error: out: {str(out)!r} is not a writable directory\n"
        assert capsys.readouterr().err == expected
        assert sorted(os.walk(tmp_path)) == before

    def test_new_name_too_long_for_its_file_system_exits_1(self, tmp_path, capsys):
        # The first missing name hides the second from a lookup of the whole path.
        out = tmp_path / "new" / ("n" * 300)
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL + f"out = {out}\n")
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == err[1]
        assert err[0].startswith(f"config error: out: [Errno {errno.ENAMETOOLONG}]")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("out_exists", [False, True])
    def test_record_name_too_long_for_its_file_system_exits_1(self, tmp_path, capsys, out_exists):
        out = tmp_path / "out"
        if out_exists:
            out.mkdir()
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL + f"label = {'n' * 300}\nout = {out}\n")
        before = sorted(os.walk(tmp_path))
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == err[1]
        assert err[0].startswith(f"config error: out: [Errno {errno.ENAMETOOLONG}]")
        assert sorted(os.walk(tmp_path)) == before

    @pytest.mark.parametrize("kind", ["directory", "symlink_to_directory", "unwritable_file"])
    @pytest.mark.parametrize(
        "command, name", [("validate", "run.csv"), ("run", "run.csv"), ("preset", "fig1_N2.json")]
    )
    def test_record_name_it_cannot_write_exits_1_before_evaluating(
        self, tmp_path, monkeypatch, capsys, kind, command, name
    ):
        # Records are written after the whole evaluation, so a name taken by something
        # that cannot be written fails first.  validate checks run's default csv names.
        monkeypatch.setattr(observables, "prepare", _never_prepare)
        out = tmp_path / "out"
        taken = out / name
        out.mkdir()
        if kind == "directory":
            taken.mkdir()
        elif kind == "symlink_to_directory":
            (tmp_path / "elsewhere").mkdir()
            taken.symlink_to(tmp_path / "elsewhere")
        else:
            taken.write_text("a file\n")
            # A stand-in for os.access: a process that may write anywhere sees no unwritable one.
            monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != taken)
        path = tmp_path / "c.conf"
        path.write_text(f"n = 2\nh = 0.01\nsteps = 2\nout = {out}\n")
        before = sorted(os.walk(tmp_path))
        preset = ["fig1", "--out", str(out), "--format", "json"]
        assert main([command, *(preset if command == "preset" else [str(path)])]) == 1
        expected = f"config error: out: {str(taken)!r} is not a writable file\n"
        assert capsys.readouterr().err == expected
        assert sorted(os.walk(tmp_path)) == before

    def test_failed_evaluation_exits_2_and_leaves_no_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(observables, "prepare", _never_prepare)
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL)
        out = tmp_path / "new" / "out"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {PREPARE_REACHED}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_run_validates_twice(self, tmp_path, monkeypatch):
        # Once when the file's config is built and once when the overrides rebuild it, before
        # the output directory is checked; the evaluation does not validate again.
        calls = []
        real = ExperimentConfig.validate

        def counted(self):
            calls.append(self.seed)
            return real(self)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL + "steps = 2\n")
        assert main(["run", str(path), "--seed", "3", "--out", str(tmp_path / "out")]) == 0
        assert calls == [0, 3]

    def test_boundary_values_accepted(self):
        # A first grid point at t0, a histogram at t0, equal explicit
        # couplings for binomial and dotted labels are all fine.
        cfg = parse_config(
            config_text("t_start = -1\nt_end = 1\nsteps = 1\nhist_times = 0\nlabel = h0.01\n")
        )
        assert cfg.grid()[0] == 0.0
        # One grid point has no spacing to resolve, however far out it lies.
        parse_config(config_text("t_start = 1e16\nt_end = 1.0000000000000008e16\nsteps = 1\n"))
        for label in (".", ".."):
            parse_config(config_text(f"label = {label}\n"))
        parse_config("n = 3\nh = 0.2; 0.2; 0.2\nmethod = binomial\n")
        parse_config("n = 12\nh = 0.1\nmethod = exact-universe\n")

    @pytest.mark.parametrize("seed", range(6))
    def test_universe_phase_bound_holds(self, seed):
        # validate bounds every sector eigenvalue by n * (max(1, |delta|) + max |h_j|).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        params = ModelParams(delta=float(rng.normal(0.0, 3.0)), h=tuple(rng.normal(0.0, 2.0, n)))
        bound = n * (max(1.0, abs(params.delta)) + max(map(abs, params.h)))
        for w, _ in universe.sector_spectra(params):
            assert np.max(np.abs(w)) <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.5, -1e-3, math.nan, 0.7, 1e-3, 0.4999])
    def test_epsilon_rejected_exactly_when_its_owner_rejects(self, eps):
        text = config_text(f"epsilon = {eps!r}\n")
        try:
            observables.validate_error_threshold(eps)
        except ValueError:
            with pytest.raises(ConfigError, match="^epsilon: "):
                parse_config(text)
        else:
            assert parse_config(text).epsilon == eps

    @pytest.mark.parametrize(
        "t_start, t_end, steps",
        [
            (10.0, 0.0, 5),
            (1e16, 1.0000000000000004e16, 600),
            (-1e308, 1e308, 600),
            (1e16, 1.0000000000000008e16, 1),
            (0.0, 400.0, 600),
        ],
        ids=["reversed", "spacing_below_ulp", "overflowing_span", "single_point", "default"],
    )
    def test_grid_rejected_exactly_when_its_owner_rejects(self, t_start, t_end, steps):
        # An invalid config cannot be built, so the real method reads a namespace.
        grid = ExperimentConfig.grid(SimpleNamespace(t_start=t_start, t_end=t_end, steps=steps))
        text = config_text(f"t_start = {t_start!r}\nt_end = {t_end!r}\nsteps = {steps}\n")
        try:
            observables.check_grid(grid)
        except ValueError:
            with pytest.raises(ConfigError, match="^(t_start|t_end|steps): "):
                parse_config(text)
        else:
            assert np.array_equal(parse_config(text).grid(), grid)

    def test_caps_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(engine, "ENUMERATION_CAP", 3)
        monkeypatch.setattr(universe, "DEFAULT_CAP", 3)
        for method in ("exact", "exact-universe"):
            with pytest.raises(ConfigError, match="capped at n = 3"):
                parse_config(f"n = 4\nh = 0.1\nmethod = {method}\n")

    def test_constant_coupling_detection_matches_expansion(self):
        underflowing = "n = 4\nh = 1e-300\ndelta_h = 1e-320\n"
        for text in (MINIMAL, MINIMAL + "delta_h = 0.02\n", underflowing):
            cfg = parse_config(text)
            assert cfg._constant_couplings() == (len(set(cfg.couplings())) == 1)


# Boundary values of every config key but out, as config text.  Each out kind
# names a path inside the example's temporary directory.
BOUNDARY_VALUES = {
    "n": ["0", "1", "12", "13", "16", "17", "20", "21", "33554431", "33554432"],
    "h": ["-0.0", "1e307", "inf", "0.1; 0.2"],
    "delta": ["-0.0", "nan", "1e307"],
    "delta_h": ["0.02", "1e308"],
    "beta": ["-5e-324", "1e308"],
    "alpha_up_sq": ["-0.0", "-5e-324", "1.0", "1.0000000000000002"],
    "phase": ["-0.0", "1e308", "nan"],
    "epsilon": ["5e-324", "0.49999999999999994", "0.5"],
    "t_start": ["-1e-300", "-400", "inf"],
    "t_end": ["0", "1e-300", "1.0000000000000004e16"],
    "steps": ["0", "1", "100000"],
    "method": ["auto", "exact", "binomial", "sampled", "exact-universe", "bogus"],
    "samples": ["0", "1", str(engine.ARRAY_BYTES_CAP // 8), str(engine.ARRAY_BYTES_CAP // 8 + 1)],
    "seed": ["-1", "0"],
    "workers": ["0", "1"],
    "hist_times": ["-1e-300", "0", "nan"],
    "label": ["a/b", ".."],
}
OUT_KINDS = {
    "missing": "missing/sub",
    "directory": "directory",
    "file": "file",
    "under_file": "file/sub",
    "dangling_symlink": "dangling",
    "name_too_long": "missing/" + "n" * 300,
    "holds_run_csv_directory": "holding",
}


def _exit_and_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _all_quantum(params, alphas, times, hist_times, eps, method, *args):
    """Stands in for observables.evaluate: P_q = 1 over the grid it is given, no histograms."""
    zeros = np.zeros(times.size)
    return observables.ObservableSeries(times, zeros, zeros, np.ones(times.size), method), []


def _tree(base):
    """Every path below ``base``, symlinks not followed."""
    return {Path(root, name) for root, dirs, files in os.walk(base) for name in dirs + files}


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {"out": st.sampled_from(sorted(OUT_KINDS))},
        optional={key: st.sampled_from(values) for key, values in BOUNDARY_VALUES.items()},
    )
)
def test_validate_rejects_exactly_what_run_rejects(overrides):
    """validate and run (with the config's own out) share one preflight.

    When validate exits 1, run exits 1 with the same stderr line, and
    neither command creates anything.  When validate accepts, run must
    exit 0 and add exactly its record file to the tree, plus ``out`` and
    its missing parents: a stand-in for ``observables.evaluate`` keeps
    every accepted config cheap, and the write that follows is real, so
    a rejection that only the write would show fails here.
    """
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        base = Path(tmp)
        (base / "directory").mkdir()
        (base / "file").write_text("a file\n")
        (base / "dangling").symlink_to(base / "nowhere")
        (base / "holding" / "run.csv").mkdir(parents=True)
        text = "".join(f"{key} = {value}\n" for key, value in overrides.items() if key != "out")
        path = base / "exp.conf"
        path.write_text(config_text(text + f"out = {base / OUT_KINDS[overrides['out']]}\n"))
        out = base / OUT_KINDS[overrides["out"]]
        created = {out / f"{overrides.get('label', 'run')}.csv"}
        created |= {p for p in (out, *out.parents) if not os.path.lexists(p)}
        before = _tree(base)
        patch.setattr(observables, "evaluate", _all_quantum)
        validated = _exit_and_stderr(["validate", str(path)])
        ran = _exit_and_stderr(["run", str(path)])
        if validated[0] == 0:
            assert ran[0] == 0, ran
            assert _tree(base) == before | created
        else:
            assert validated[0] == 1 and validated[1].startswith("config error: ")
            assert ran == validated
            assert _tree(base) == before


class TestResultsBudget:
    """A run's results, estimated from steps and hist_times, are capped at ``engine.ARRAY_BYTES_CAP``."""

    CAP = engine.ARRAY_BYTES_CAP

    @staticmethod
    def message(steps, hists):
        estimate = cli.RESULT_POINT_BYTES * steps + cli.RESULT_HISTOGRAM_BYTES * hists
        return (
            f"steps: {steps} grid points and {hists} histogram times take an estimated "
            f"{estimate} bytes of results; a run is capped at {engine.ARRAY_BYTES_CAP} bytes"
        )

    def limit(self, hists):
        return (self.CAP - cli.RESULT_HISTOGRAM_BYTES * hists) // cli.RESULT_POINT_BYTES

    def text(self, steps, hists):
        times = ";".join(str(float(k)) for k in range(hists))
        return MINIMAL.replace("n = 10", "n = 2") + f"steps = {steps}\nhist_times = {times}\n"

    @pytest.mark.parametrize("hists", [0, 3])
    def test_at_the_budget_accepted_within_one_mib(self, hists, traced):
        steps = self.limit(hists)
        cfg, _, peak = traced(lambda: parse_config(self.text(steps, hists)))
        assert (cfg.steps, len(cfg.hist_times)) == (steps, hists)
        # Its grid alone would take 3.4 MiB.
        assert peak < 2**20

    @pytest.mark.parametrize("hists", [0, 3])
    def test_one_point_over_exits_1_without_output(self, hists, tmp_path, capsys):
        steps = self.limit(hists) + 1
        path = tmp_path / "over.conf"
        path.write_text(self.text(steps, hists))
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == 2 * f"config error: {self.message(steps, hists)}\n"
        assert not out.exists()

    def test_limit_is_the_documented_point_count(self):
        assert self.limit(0) == 447_392

    @pytest.mark.parametrize("size", [50, 1, 7, cli.GRID_CHECK_POINTS])
    def test_grid_checked_in_blocks_sees_every_pair(self, size, monkeypatch):
        # Floats near 1e16 lie 2 apart, so of the points 1e16 + 1.96 (k + 0.5) only points 49
        # and 50 round to one value.  Blocks of 50 put that pair across their boundary.
        text = "n = 2\nh = 0.01\nt_start = 1e16\nt_end = 10000000000000196\nsteps = 100\n"
        grid = 1e16 + (np.arange(100) + 0.5) * 1.96
        assert np.flatnonzero(np.diff(grid) <= 0).tolist() == [49]
        monkeypatch.setattr(cli, "GRID_CHECK_POINTS", size)
        with pytest.raises(ConfigError, match="^steps: times must be strictly increasing$"):
            parse_config(text)

    def test_block_slices_have_the_whole_grid_bits(self):
        cfg = parse_config("n = 2\nh = 0.01\nt_start = 0.3\nt_end = 977.1\nsteps = 1001\n")
        whole = cfg.grid()
        blocks = np.concatenate([cfg.grid(lo, lo + 64) for lo in range(0, 1001, 64)])
        assert np.array_equal(whole.view(np.int64), blocks.view(np.int64))


class TestSamplesBudget:
    """A sampled point's u, 8 bytes per draw, is capped at ``engine.ARRAY_BYTES_CAP``."""

    LIMIT = engine.ARRAY_BYTES_CAP // 8
    # auto sends a dispersed n = 21 to the sampler (n <= 20 enumerates); the n = 10 config
    # names it.
    SAMPLED = {
        "auto": "n = 21\nh = 0.01\ndelta_h = 0.02\n",
        "named": MINIMAL + "method = sampled\n",
    }

    def message(self, samples):
        return (
            f"samples: {samples} draws hold {8 * samples} bytes of u per grid point; the sampled "
            f"method is capped at {engine.ARRAY_BYTES_CAP} bytes ({self.LIMIT} draws)"
        )

    @pytest.mark.parametrize("how", sorted(SAMPLED))
    def test_at_the_budget_accepted_without_allocating(self, how, traced):
        text = self.SAMPLED[how] + f"samples = {self.LIMIT}\n"
        cfg, _, peak = traced(lambda: parse_config(text))
        assert (cfg.resolved_method(), cfg.samples) == ("sampled", self.LIMIT)
        # The u the budget bounds would take 256 MiB.
        assert peak < 2**20

    @pytest.mark.parametrize("samples", [LIMIT + 1, 10**12])
    @pytest.mark.parametrize("how", sorted(SAMPLED))
    def test_over_the_budget_rejected_with_the_byte_estimate(self, how, samples):
        text = self.SAMPLED[how] + f"samples = {samples}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == self.message(samples)

    def test_validate_and_run_exit_1(self, tmp_path, capsys):
        over = tmp_path / "over.conf"
        over.write_text(self.SAMPLED["auto"] + f"samples = {self.LIMIT + 1}\n")
        ok = tmp_path / "ok.conf"
        ok.write_text(self.SAMPLED["named"])
        out = tmp_path / "out"
        assert main(["validate", str(over)]) == 1
        assert main(["run", str(over), "--out", str(out)]) == 1
        assert main(["run", str(ok), "--samples", str(self.LIMIT + 1), "--out", str(out)]) == 1
        line = f"config error: {self.message(self.LIMIT + 1)}\n"
        assert capsys.readouterr().err == 3 * line
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", [MINIMAL, "n = 20\nh = 0.01\n", MINIMAL + "method = exact-universe\n"],
        ids=["exact", "binomial", "exact-universe"],
    )
    def test_other_methods_take_any_positive_count(self, text):
        # Only the sampler draws, and the CSV reports n_samples = 0 for the others.
        cfg = parse_config(text + "samples = 1000000000000\n")
        assert cfg.resolved_method() != "sampled"

    def test_budget_read_at_call_time(self, monkeypatch):
        # 8 MiB still holds the 10-spin config's arrays (about 4.2 MB, mostly one chunk's
        # flip mask), so the samples rule is the one that moves with the cap.
        monkeypatch.setattr(engine, "ARRAY_BYTES_CAP", 8 << 20)
        parse_config(self.SAMPLED["named"] + "samples = 1048576\n")
        with pytest.raises(ConfigError, match=r"capped at 8388608 bytes \(1048576 draws\)$"):
            parse_config(self.SAMPLED["named"] + "samples = 1048577\n")


class TestSampledSpinsBudget:
    """A sampled point's N-sized arrays, estimated in O(1), are capped at ARRAY_BYTES_CAP."""

    # One worker: the larger of building the profiles and drawing one chunk while holding them.
    DRAWING_PER_SPIN = engine.SAMPLE_HELD_SPIN_BYTES + engine.SAMPLE_THREAD_SPIN_BYTES
    LIMIT = min(
        engine.ARRAY_BYTES_CAP // engine.SAMPLE_SPIN_BYTES,
        (engine.ARRAY_BYTES_CAP - engine.SAMPLE_MASK_BYTES) // DRAWING_PER_SPIN,
    )
    DISPERSED = "h = 0.01\ndelta_h = 0.02\nt_start = 66.6\nt_end = 66.8\nsteps = 1\n"

    def message(self, n):
        estimate = max(
            engine.SAMPLE_SPIN_BYTES * n, self.DRAWING_PER_SPIN * n + engine.SAMPLE_MASK_BYTES
        )
        return (
            f"n: {n} spins take an estimated {estimate} bytes per sampled grid point at "
            f"workers = 1; the sampled method is capped at {engine.ARRAY_BYTES_CAP} bytes"
        )

    def test_at_the_limit_accepted_without_allocating(self, traced):
        text = self.DISPERSED + f"n = {self.LIMIT}\n"
        cfg, _, peak = traced(lambda: parse_config(text))
        assert cfg.resolved_method() == "sampled"
        assert peak < 2**20

    @pytest.mark.parametrize("n", [pytest.param(LIMIT + 1, id="limit+1"), 10**9])
    def test_validate_and_run_exit_1_before_allocating(self, n, tmp_path, capsys, traced):
        path = tmp_path / "big.conf"
        path.write_text(self.DISPERSED + f"n = {n}\n")
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == 1
        code, _, peak = traced(lambda: main(["run", str(path), "--out", str(out)]))
        assert code == 1 and peak < 2**20
        assert capsys.readouterr().err == 2 * f"config error: {self.message(n)}\n"
        assert not out.exists()

    def test_more_workers_count_only_running_chunks(self):
        # Two draws are one chunk, so a second worker adds nothing to the estimate.
        base = dict(n=1000, h=(0.01,), delta_h=0.02)
        one, two = (ExperimentConfig(**base, samples=2, workers=w) for w in (1, 2))
        assert one._sampled_bytes() == two._sampled_bytes()
        many = ExperimentConfig(**base, samples=engine.SAMPLE_CHUNK + 1, workers=2)
        extra = engine.SAMPLE_THREAD_SPIN_BYTES * 1000 + engine.SAMPLE_MASK_BYTES
        assert many._sampled_bytes() == one._sampled_bytes() + extra

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2 * 10**5, 10**6])
    def test_estimate_bounds_the_measured_peak(self, n, workers, monkeypatch, traced):
        # Chunks of 20 draws keep the run short and still fill each chunk's 4 MiB mask
        # (SAMPLE_MASK_BYTES // N is 20 draws at N = 2e5 and 4 at 1e6); 21 draws are two
        # chunks, on two threads even on a one-CPU host.
        monkeypatch.setattr(engine, "SAMPLE_CHUNK", 20)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        config = ExperimentConfig(
            n=n, h=(0.01,), delta_h=0.02, delta=0.01, t_start=100.0, t_end=300.0, steps=1,
            method="sampled", samples=21, workers=workers,
        )
        _, _, peak = traced(lambda: run_config(config))
        assert peak <= config._sampled_bytes()

    def test_estimate_is_close_to_the_measured_peak(self, monkeypatch, traced):
        # At one worker building the profiles and drawing are never alive together, so the
        # estimate is the larger phase, not their sum (123.0 MiB measured, 129.7 estimated).
        monkeypatch.setattr(engine, "SAMPLE_CHUNK", 20)
        config = ExperimentConfig(
            n=10**6, h=(0.01,), delta_h=0.02, delta=0.01, t_start=100.0, t_end=300.0, steps=1,
            method="sampled", samples=21, workers=1,
        )
        _, _, peak = traced(lambda: run_config(config))
        assert peak <= config._sampled_bytes() <= 1.25 * peak


class TestBinomialTableBudget:
    """A binomial run's table log k!, 8 (N + 1) bytes, is capped at ARRAY_BYTES_CAP."""

    LIMIT = engine.ARRAY_BYTES_CAP // 8 - 1
    EQUAL = "h = 0.01\nt_start = 66.6\nt_end = 66.8\nsteps = 1\n"

    @pytest.mark.parametrize("method", ["auto", "binomial"])
    def test_at_the_limit_accepted_without_allocating(self, method, traced):
        text = self.EQUAL + f"n = {self.LIMIT}\nmethod = {method}\n"
        cfg, _, peak = traced(lambda: parse_config(text))
        assert (cfg.resolved_method(), cfg.n) == ("binomial", 33_554_431)
        assert peak < 2**20

    @pytest.mark.parametrize("n", [pytest.param(LIMIT + 1, id="limit+1"), 10**9])
    @pytest.mark.parametrize("method", ["auto", "binomial"])
    def test_validate_and_run_exit_1_before_allocating(
        self, method, n, tmp_path, capsys, traced
    ):
        path = tmp_path / "big.conf"
        path.write_text(self.EQUAL + f"n = {n}\nmethod = {method}\n")
        out = tmp_path / "out"
        assert main(["validate", str(path)]) == 1
        code, _, peak = traced(lambda: main(["run", str(path), "--out", str(out)]))
        assert code == 1 and peak < 2**20
        line = (
            f"config error: n: {n} spins need a table log k! of {8 * (n + 1)} bytes; "
            f"the binomial method is capped at {engine.ARRAY_BYTES_CAP} bytes\n"
        )
        assert capsys.readouterr().err == 2 * line
        assert not out.exists()


class TestConfigBehavior:
    def test_grid_is_half_step_offset(self):
        cfg = parse_config("n = 2\nh = 0.1\nt_start = 0\nt_end = 10\nsteps = 5\n")
        np.testing.assert_allclose(cfg.grid(), [1.0, 3.0, 5.0, 7.0, 9.0])

    def test_method_auto_resolution(self):
        assert parse_config("n = 10\nh = 0.01\n").resolved_method() == "exact"
        assert parse_config("n = 80\nh = 0.01\n").resolved_method() == "binomial"
        assert (
            parse_config("n = 80\nh = 0.01\ndelta_h = 0.02\n").resolved_method() == "sampled"
        )
        # Up to the enumeration cap, auto enumerates dispersed couplings; constant ones
        # above n = 16 stay binomial.
        for n in (17, 20, 21):
            dispersed = parse_config(f"n = {n}\nh = 0.01\ndelta_h = 0.02\n")
            constant = parse_config(f"n = {n}\nh = 0.01\n")
            assert dispersed.resolved_method() == ("exact" if n <= engine.ENUMERATION_CAP else "sampled")
            assert constant.resolved_method() == "binomial"

    @pytest.mark.parametrize("n", [17, 20])
    def test_auto_enumerates_dispersed_baths_up_to_the_cap(self, n):
        cfg = parse_config(f"n = {n}\nh = 0.01\ndelta_h = 0.02\ndelta = 0.01\nsteps = 6\n")
        series = run_config(cfg).series
        masses, dropped = engine.exact_class_masses(
            cfg.params(), cfg.alphas(), cfg.grid(), observables.logit_cutoffs(cfg.epsilon)
        )
        assert (series.method, series.dropped) == ("exact", dropped)
        got = np.stack([series.p_up, series.p_down, series.p_q])
        assert np.array_equal(got.view(np.int64), masses.view(np.int64))

    def test_auto_resolution_does_not_expand_couplings(self, monkeypatch):
        cfg = parse_config("n = 100000\nh = 0.01\n")

        def expand(self):
            raise AssertionError("couplings() expanded")

        monkeypatch.setattr(ExperimentConfig, "couplings", expand)
        assert cfg.resolved_method() == "binomial"

    @pytest.mark.parametrize("delta_h", [0.0, 0.02])
    def test_params_hold_one_float_array(self, delta_h, traced):
        # The couplings are one float64 array, not N Python floats.
        n = 10**5
        config = ExperimentConfig(n=n, h=(0.01,), delta_h=delta_h)
        params, retained, _ = traced(config.params)
        assert params.n_env == n and params.equal_couplings == (delta_h == 0.0)
        assert retained < 8 * n + 64 * 1024

    def test_constant_scalar_h_params_hold_one_value(self, traced):
        # Equal couplings from a scalar h are one broadcast float, never N of them.
        n = 10**7
        config = ExperimentConfig(n=n, h=(0.01,)).validate()
        params, retained, _ = traced(config.params)
        assert retained < 4 * 1024
        assert params.n_env == n and params.equal_couplings
        with pytest.raises(ValueError, match="read-only"):
            params.h[0] = 1.0

    @pytest.mark.parametrize(
        "h, delta_h",
        [(0.01, 0.0), (0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (1e-300, 1e-320)],
    )
    def test_compact_couplings_are_the_expansion_bitwise(self, h, delta_h):
        for n in (2, 7, 20):
            config = ExperimentConfig(n=n, h=(h,), delta_h=delta_h)
            want = dispersed_couplings(h, delta_h, n).view(np.int64)
            for got in (config.couplings(), config.params().h):
                assert got.strides == (0,) and got.shape == (n,)
                assert np.array_equal(got.view(np.int64), want)

    def test_preset_parameters_match_captions(self):
        # Every field of all 13 preset configs, in order: the values most of them share,
        # then each config's own.
        shared = dict(
            n=10, h=(0.01,), delta=0.0, delta_h=0.02, beta=0.0, alpha_up_sq=0.4, phase=0.0,
            epsilon=1e-3, t_start=0.0, t_end=400.0, steps=600, method="auto", samples=100_000,
            seed=0, workers=1, hist_times=(), out="results",
        )
        long_grid = dict(t_end=1800.0, steps=2700)
        own = {
            "fig1": [
                dict(n=2, delta_h=0.0, label="N2"),
                dict(n=10, delta_h=0.0, label="N10"),
                dict(n=80, delta_h=0.0, label="N80"),
            ],
            "fig2_top": [
                dict(delta_h=0.0, label="const_h", **long_grid),
                dict(label="dispersed_h", **long_grid),
            ],
            "fig2_bottom": [
                dict(label="h0.01"),
                dict(h=(0.5,), label="h0.5"),
                dict(h=(10.0,), label="h10.0"),
            ],
            "fig3": [
                dict(delta=0.002, label="delta0.002"),
                dict(delta=0.01, label="delta0.01"),
                dict(delta=0.02, label="delta0.02"),
                dict(delta=0.05, label="delta0.05"),
                dict(delta=0.1, label="delta0.1"),
            ],
        }
        assert cli.PRESET_NAMES == ("fig1", "fig2_top", "fig2_bottom", "fig3")
        assert tuple(own) == cli.PRESET_NAMES
        for name, configs in own.items():
            got = [asdict(config) for config in _preset_configs(name)]
            assert got == [{**shared, **config, "preset": name} for config in configs]

    def test_unknown_preset_names_the_presets(self):
        with pytest.raises(ConfigError) as err:
            _preset_configs("fig4")
        assert str(err.value) == (
            "unknown preset 'fig4'; expected one of ('fig1', 'fig2_top', 'fig2_bottom', 'fig3')"
        )

    @pytest.mark.parametrize("seed", [0, 7, 9999])
    def test_figures_workload_is_the_presets_on_grids_four_times_coarser(self, seed, monkeypatch):
        # perfbench/workloads.py spells the 13 preset configs out a second time; a preset
        # change that did not reach the figures workload would show here.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workload = importlib.import_module("workloads").WORKLOADS["figures"]
        got = [asdict(config) for config in workload.configs(seed)]
        want = [
            asdict(replace(config, steps=config.steps // 4, seed=seed))
            for name in cli.PRESET_NAMES
            for config in _preset_configs(name)
        ]
        assert got == want
        types = [[list(map(type, c.values())) for c in configs] for configs in (got, want)]
        assert types[0] == types[1]


SMALL = "n = 4\nh = 0.05\nalpha_up_sq = 0.4\nt_start = 0\nt_end = 40\nsteps = 6\n"


class TestRunAndEmit:
    def test_constant_h_binomial_run_holds_one_n_sized_array(self, traced):
        # The log k! table is the one N + 1 float array of a run; the couplings are one
        # value, and a point evaluates only its spans.
        n = 10**6
        config = ExperimentConfig(
            n=n, h=(0.01,), t_start=100.0, t_end=300.0, steps=2, method="binomial"
        )
        record, _, peak = traced(lambda: run_config(config))
        assert record.series.times.size == 2
        assert peak < 8 * (n + 1) + 4 * 1024 * 1024

    def test_binomial_grid_peaks_below_the_exact_grid(self, traced):
        # fig1's N = 80 config on the figures workload's 150 points, in blocks of 25 times,
        # peaks below its N = 10 exact config on the same grid, so the blocks cannot raise
        # the peak of a run of the figure configs.
        exact, binomial = (replace(c, steps=150) for c in _preset_configs("fig1")[1:])
        assert (exact.resolved_method(), binomial.resolved_method()) == ("exact", "binomial")
        peaks = []
        for config in (exact, binomial):
            run_config(config)
            peaks.append(traced(lambda: run_config(config))[2])
        assert peaks[1] < peaks[0]

    def test_run_config_record(self):
        record = run_config(parse_config(SMALL))
        assert record.series.times.size == 6
        assert record.series.method == "exact"
        total = record.series.p_up + record.series.p_down + record.series.p_q
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_csv_contract(self, tmp_path):
        record = run_config(parse_config(SMALL))
        (path,) = emit_results([record], tmp_path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 7
        row = lines[1].split(",")
        assert len(row) == len(CSV_COLUMNS.split(","))
        assert row[4] == "exact"
        assert row[7] == "4"
        # Plain decimal floats that round-trip, no repr wrappers.
        for cell in (row[0], row[1], row[2], row[3]):
            assert cell == repr(float(cell))
        probs = [float(c) for c in row[1:4]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_records_sharing_a_file_name_write_nothing(self, tmp_path):
        # Two unlabeled records both name run.csv; with distinct labels both are written.
        records = [run_config(parse_config(f"n = {n}\nh = 0.05\nsteps = 3\n")) for n in (2, 3)]
        with pytest.raises(ConfigError, match="run.csv"):
            emit_results(records, tmp_path / "out", "csv")
        assert not (tmp_path / "out").exists()
        for record in records:
            record.config = replace(record.config, label=f"N{record.config.n}")
        paths = emit_results(records, tmp_path / "out", "csv")
        assert [p.name for p in paths] == ["N2.csv", "N3.csv"]
        assert [p.read_text().splitlines()[1].split(",")[7] for p in paths] == ["2", "3"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(SMALL + "method = sampled\nsamples = 2000\nseed = 5\n")
        a = emit_results([run_config(cfg)], tmp_path / "a", "csv")[0].read_bytes()
        b = emit_results([run_config(cfg)], tmp_path / "b", "csv")[0].read_bytes()
        assert a == b

    def test_worker_count_does_not_change_output(self, tmp_path):
        base = SMALL + "method = sampled\nsamples = 3000\nseed = 9\n"
        one = run_config(parse_config(base + "workers = 1\n"))
        four = run_config(parse_config(base + "workers = 4\n"))
        assert np.array_equal(one.series.p_q, four.series.p_q)

    def test_json_mirrors_record(self, tmp_path):
        cfg = parse_config(SMALL + "hist_times = 10.0; 30.0\n")
        record = run_config(cfg)
        (path,) = emit_results([record], tmp_path, "json")
        payload = json.loads(path.read_text())
        assert payload["config"]["n"] == 4
        assert len(payload["series"]["times"]) == 6
        assert len(payload["histograms"]) == 2
        hist = payload["histograms"][0]
        total = hist["mass_zero"] + hist["mass_one"] + sum(hist["bin_mass"])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert "wall_clock" not in payload

    def test_histogram_masses_sum_to_one(self):
        cfg = parse_config(SMALL + "hist_times = 20.0\n")
        record = run_config(cfg)
        t, hist = record.histograms[0]
        assert t == 20.0
        assert hist.total() == pytest.approx(1.0, abs=1e-9)

    def test_histogram_times_reuse_the_prepared_engine(self, monkeypatch):
        calls = []
        real = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cfg = parse_config(SMALL + "method = exact-universe\nhist_times = 5.0; 20.0; 40.0\n")
        record = run_config(cfg)
        assert len(calls) == 2
        assert [t for t, _ in record.histograms] == [5.0, 20.0, 40.0]
        for _, hist in record.histograms:
            assert hist.total() == pytest.approx(1.0, abs=1e-9)


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.conf"
        path.write_text(MINIMAL)
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_text(MINIMAL + "alpha_up_sq = 2\n")
        assert main(["validate", str(path)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["run", "/nonexistent/path.conf"]) == 2

    def test_run_writes_csv(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(SMALL + "label = demo\n")
        assert main(["run", str(conf), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "demo.csv").exists()

    def test_run_seed_override_changes_sampled_output(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(SMALL + "method = sampled\nsamples = 1500\n")
        out = tmp_path / "out"
        assert main(["run", str(conf), "--out", str(out), "--seed", "1"]) == 0
        first = (out / "run.csv").read_bytes()
        assert main(["run", str(conf), "--out", str(out), "--seed", "2"]) == 0
        assert (out / "run.csv").read_bytes() != first

    def test_preset_fig1_writes_three_files(self, tmp_path):
        out = tmp_path / "fig1"
        assert main(["preset", "fig1", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["fig1_N10.csv", "fig1_N2.csv", "fig1_N80.csv"]

    def test_oracle_check_passes(self, capsys):
        assert main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "binomial weight total (N = 1e3, 1e5)" in out

    @pytest.mark.parametrize(
        "flags, key",
        [(["--samples", "0"], "samples"), (["--samples", "-3"], "samples"), (["--seed", "-1"], "seed")],
    )
    def test_oracle_check_bad_argument_exit_1(self, monkeypatch, capsys, flags, key):
        calls = []
        monkeypatch.setattr(selfcheck, "run_all", lambda **kwargs: calls.append(kwargs) or [])
        assert main(["oracle-check", *flags]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}:")
        assert calls == []

    @pytest.mark.parametrize(
        "samples, seed",
        [(0, 0), (1, -1), (0, -1), (engine.ARRAY_BYTES_CAP // 8 + 1, -1)],
        ids=["samples", "seed", "both", "over_the_budget_and_seed"],
    )
    def test_oracle_check_reports_what_validate_reports(
        self, tmp_path, monkeypatch, capsys, samples, seed
    ):
        # One copy of the draw rules, checked before the budget: a count over the budget
        # with a negative seed reports the seed from both commands.
        monkeypatch.setattr(selfcheck, "run_all", lambda **kwargs: [])
        path = tmp_path / "sampled.conf"
        path.write_text(MINIMAL + f"method = sampled\nsamples = {samples}\nseed = {seed}\n")
        assert main(["validate", str(path)]) == 1
        from_validate = capsys.readouterr().err
        assert main(["oracle-check", "--samples", str(samples), "--seed", str(seed)]) == 1
        assert capsys.readouterr().err == from_validate
        key = "samples" if samples < 1 else "seed"
        assert from_validate.startswith(f"config error: {key}: must be ")

    # oracle-check holds up to selfcheck.ORACLE_DRAW_BYTES per draw: 8,388,608 draws.
    ORACLE_LIMIT = engine.ARRAY_BYTES_CAP // selfcheck.ORACLE_DRAW_BYTES

    def test_oracle_check_samples_at_the_budget_accepted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(selfcheck, "run_all", lambda **kwargs: calls.append(kwargs) or [])
        assert self.ORACLE_LIMIT == 8_388_608
        assert main(["oracle-check", "--samples", str(self.ORACLE_LIMIT)]) == 0
        assert [c["samples"] for c in calls] == [self.ORACLE_LIMIT]

    def test_oracle_check_samples_over_the_budget_exit_1(self, monkeypatch, capsys):
        # Just over the limit, and the sampled method's own limit, which it used to accept.
        calls = []
        monkeypatch.setattr(selfcheck, "run_all", lambda **kwargs: calls.append(kwargs) or [])
        for over in (self.ORACLE_LIMIT + 1, engine.ARRAY_BYTES_CAP // 8):
            assert main(["oracle-check", "--samples", str(over)]) == 1
            assert capsys.readouterr().err == (
                f"config error: samples: {over} draws take an estimated {32 * over} bytes in "
                f"oracle-check, which is capped at 268435456 bytes (8388608 draws)\n"
            )
        assert calls == []


@pytest.mark.parametrize(
    "check",
    ["check_sampler_vs_enumeration", "check_worker_invariance", "check_beta_independence"],
)
def test_oracle_check_peak_per_draw_within_its_constant(check, traced):
    # 18.3, 26.9 and 17.5 bytes per draw measured at 10^6 draws.
    samples = 10**6
    result, _, peak = traced(lambda: getattr(selfcheck, check)(20260809, samples))
    assert result.ok
    assert peak < selfcheck.ORACLE_DRAW_BYTES * samples


class TestSamplerCheck:
    @pytest.mark.parametrize(
        "count, samples, p",
        [(1, 20_000, 1.8e-6), (0, 20_000, 1.8e-6), (8300, 20_000, 0.4), (7790, 20_000, 0.4),
         (1210, 2000, 0.6), (0, 10, 0.5), (10, 10, 0.5), (1, 1, 0.3),
         (398_000, 10**6, 0.4), (402_400, 10**6, 0.4)],
    )
    def test_two_sided_tail_matches_scipy(self, count, samples, p):
        from scipy.stats import binom

        want = min(1.0, 2.0 * min(binom.cdf(count, samples, p), binom.sf(count - 1, samples, p)))
        got = selfcheck.binomial_two_sided_p(count, p, samples)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        # Each tail's bits, pinned so that the radius's float operations cannot drift.
        "count, p, samples, bits",
        [(1, 1.8e-6, 20_000, "0x1.21aabeaa53850p-4"), (0, 1.8e-6, 20_000, "0x1.0000000000000p+0"),
         (8300, 0.4, 20_000, "0x1.0c0f61399682ap-16"), (7790, 0.4, 20_000, "0x1.42c47b5c6dca0p-9"),
         (1210, 0.6, 2000, "0x1.54b98243b9b7dp-1"), (0, 0.5, 10, "0x1.ffffffffffffap-10"),
         (10, 0.5, 10, "0x1.0000000000001p-9"), (1, 0.3, 1, "0x1.3333333333333p-1"),
         (398_000, 0.4, 10**6, "0x1.75b0a9b06439ap-15"),
         (402_400, 0.4, 10**6, "0x1.060218720122ap-20"),
         (4_001_000, 0.4, 10**7, "0x1.09a0f041a1591p-1"),
         (3_942_500, 0.4, 10**7, "0x1.1861d6e436f2dp-1001"),
         (17, 0.999, 20, "0x1.2e23bb5d1996ep-19"), (5, 0.0027, 20_000, "0x1.0234f10a5b33ap-55")],
    )
    def test_tail_bits_are_pinned(self, count, p, samples, bits):
        assert selfcheck.binomial_two_sided_p(count, p, samples).hex() == bits

    def test_certain_counts(self):
        assert selfcheck.binomial_two_sided_p(0, 0.0, 50) == 1.0
        assert selfcheck.binomial_two_sided_p(1, 0.0, 50) == 0.0
        assert selfcheck.binomial_two_sided_p(50, 1.0, 50) == 1.0
        assert selfcheck.binomial_two_sided_p(49, 1.0, 50) == 0.0

    @pytest.mark.parametrize(
        "seed, samples",
        [(20268809, 20_000), (20260809, 2000), (20260828, 20_000), (20260895, 20_000),
         (20260905, 20_000), (20260968, 20_000)],
    )
    def test_rare_class_and_few_draws_pass(self, seed, samples):
        # oracle-check --seed 20268809 drew one quantum-class sample at P_q = 1.8e-6, and
        # --samples 2000 a KS distance of 0.020: both failed the normal 3-sigma and fixed
        # 0.01 bounds on a correct sampler.  The last four seeds drew KS distances of
        # 0.0106-0.012 and class tails down to 2.7e-4: within the level 0.0027 that the
        # 12 class tails share and under the DKW-Massart bound of the 4 KS distances.
        result = selfcheck.check_sampler_vs_enumeration(seed + 4, samples)
        assert result.ok, result.detail
        ks_bound = {20_000: "0.0141", 2000: "0.0447"}[samples]
        assert f"class tails >= 2.25e-04, KS <= {ks_bound}" in result.name

    def test_tails_hold_no_array_as_long_as_the_draws(self, monkeypatch, traced):
        # A tail evaluates the O(sqrt(samples)) counts about samples * p and its count: a
        # typical count, one whose tail is near 1e-301, and one whose tail underflows.
        samples = 10**7
        for count, want in ((4_001_000, 0.52), (3_942_500, 5.1e-302), (3_000_000, 0.0)):
            got, _, peak = traced(lambda: selfcheck.binomial_two_sided_p(count, 0.4, samples))
            assert peak < samples
            assert got == 0.0 if want == 0.0 else want / 100 < got < want * 100
        # The check builds no table log k! over the draws.
        monkeypatch.setattr(engine, "log_factorials", None)
        assert selfcheck.check_sampler_vs_enumeration(20260813, 2000).ok

    def test_biased_sampler_fails(self, monkeypatch):
        draw = engine.sample_outcomes

        def biased(params, alphas, t, samples, seed, workers=1):
            shifted = SystemAmplitudes.from_up_weight(alphas.w_up + 0.02)
            return draw(params, shifted, t, samples, seed, workers)

        monkeypatch.setattr(engine, "sample_outcomes", biased)
        assert not selfcheck.check_sampler_vs_enumeration(20260813, 20_000).ok


class TestBinomialTotalCheck:
    SEED = 20260809 + 7  # the seed oracle-check gives this check by default

    def test_passes(self):
        result = selfcheck.check_binomial_total_weight(self.SEED)
        assert result.ok, result.detail

    def test_too_narrow_window_fails(self, monkeypatch):
        # A margin of -690 nats puts each span's bound near the weight of the whole
        # branch, so the spans shrink to about one standard deviation and cut weight.
        monkeypatch.setattr(engine, "WINDOW_MARGIN", -690.0)
        result = selfcheck.check_binomial_total_weight(self.SEED)
        assert not result.ok, result.detail
