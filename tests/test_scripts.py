"""The scripts under scripts/ still run against the package."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from centralspin import engine

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_born_convergence_runs():
    done = _run_script("born_convergence.py")
    assert done.returncode == 0, done.stderr
    # A header line and one line per bath size of the ladder.
    assert len(done.stdout.splitlines()) == 8


def test_reproduce_figures_writes_every_listed_file(tmp_path):
    done = _run_script("reproduce_figures.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    paths = done.stdout.splitlines()
    assert paths and all(Path(p).is_file() and Path(p).parent == tmp_path for p in paths)


def test_output_digest_prints_one_digest_per_file():
    # Four presets, four workloads at two seeds, the histogram, coupling, odd-N binomial,
    # windowed binomial, binomial block, tiled exact, multi-time exact block, frozen-spin
    # exact, one-draw-last-chunk sampled and edge-case dense-oracle runs, in csv and json,
    # and the N = 1e6 binomial run in json alone.
    done = _run_script("output_digest.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 141
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+\.(csv|json)", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(set(paths)) == len(paths) and paths == sorted(paths)


def test_output_digest_builds_its_configs(monkeypatch):
    # Importing the script puts src/ and perfbench/ on sys.path; the monkeypatch undoes it.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    configs = digest._hist_configs()
    assert [c.method for c in configs] == ["exact", "binomial", "sampled", "exact-universe"]
    coupling_configs = digest._coupling_configs()
    assert [c.resolved_method() for c in coupling_configs] == ["binomial"] * 3
    assert [c.h_spec() for c in coupling_configs] == [
        ";".join(["0.01"] * 20), "-0.0", "1e-300:1e-320"
    ]
    configs += coupling_configs
    odd_n = digest._odd_n_config()
    assert (odd_n.n % 2, odd_n.steps, odd_n.resolved_method()) == (1, 1, "binomial")
    configs.append(odd_n)
    windows = digest._window_config()
    assert windows.resolved_method() == "binomial"
    assert (windows.n, windows.steps) == (1000, 300)
    configs.append(windows)
    blocks, disjoint = digest._binomial_block_configs()
    # Two blocks of 25 times and one of a single time; histogram times on a grid time of the
    # first block and off the grid.
    step = engine.BinomialGrid(blocks.params()).step
    times = blocks.grid().tolist()
    assert (blocks.n, step, len(times), blocks.resolved_method()) == (80, 25, 51, "binomial")
    on_grid, off_grid = blocks.hist_times
    assert times.index(on_grid) < step and off_grid not in times
    assert (disjoint.n, disjoint.resolved_method()) == (10**5, "binomial")
    spin = engine.binomial_spin(disjoint.params())
    for t in disjoint.grid().tolist():
        up, down, _, _ = engine._log_branch_pair(spin, disjoint.alphas(), t)
        assert len(engine.binomial_spans(disjoint.n, disjoint.alphas(), up, down)) == 2
    configs += [blocks, disjoint]
    large = digest._large_binomial_config()
    assert (large.n, large.steps, large.resolved_method()) == (10**6, 3, "binomial")
    assert len(large.hist_times) == 1 and large.hist_times[0] not in large.grid().tolist()
    configs.append(large)
    tile_configs = digest._tile_configs()
    assert [(c.n, c.steps, c.method) for c in tile_configs] == [
        (n, 1, "exact") for n in (15, 16, 17, 20)
    ]
    configs += tile_configs
    block_configs = digest._block_configs()
    # Blocks of several times whose doublings, from the low-spin table, take 4 and 5 steps.
    doubling_steps = []
    for c in block_configs:
        assert (c.steps, c.method) == (7, "exact") and c.h_spec() == "0.01:0.02"
        block = engine.GRID_BLOCK_ATOMS >> c.n
        doubling_steps.append((block, c.n - engine._low_spins(c.n, c.steps)))
    assert doubling_steps == [(6, 4), (3, 5)]
    configs += block_configs
    frozen = digest._frozen_spin_config()
    assert (frozen.n, frozen.delta, frozen.steps, frozen.method) == (10, 0.0, 40, "exact")
    assert frozen.params().h[0] == 0.0 and frozen.h_spec() == "0.0:0.02"
    configs.append(frozen)
    chunk_configs = digest._chunk_configs()
    assert [(c.method, c.samples, c.workers) for c in chunk_configs] == [
        ("sampled", 2 * 8192 + 1, workers) for workers in (1, 2)
    ]
    configs += chunk_configs
    universe_configs = digest._universe_configs()
    assert [(c.method, c.alpha_up_sq, c.t_end, c.steps) for c in universe_configs] == [
        ("exact-universe", 0.0, 400.0, 40), ("exact-universe", 1.0, 400.0, 40),
        ("exact-universe", 0.4, 1e-6, 2),
    ]
    configs += universe_configs
    for workload in digest.WORKLOADS.values():
        for seed in digest.WORKLOAD_SEEDS:
            configs += workload.configs(seed)
    for config in configs:
        config.validate()


def test_code_lines_total_is_the_sum_of_its_files():
    done = _run_script("code_lines.py")
    assert done.returncode == 0, done.stderr
    *files, total = (line.split("  ") for line in done.stdout.splitlines())
    assert total[1] == "total" and files
    assert {name for _, name in files} == {p.name for p in (ROOT / "src" / "centralspin").glob("*.py")}
    assert int(total[0]) == sum(int(count) for count, _ in files) > 0


def test_code_lines_skips_docstrings_comments_and_blanks():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    source = '"""Module\ndoc."""\n\n# comment\nX = """not a\ndocstring"""\n\n\ndef f():\n    """Doc."""\n    return (1,\n            2)  # two lines\n'
    assert counter.code_lines(source) == 5


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPTS / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_report(spec, workload, seed, trace, correct=True):
    """A perfbench report of the shape run.py writes, with values that tell the runs apart."""
    report = {
        "workload": workload, "seed": seed, "trace": trace, "correct": correct,
        "attempted": 10, "failed": 0 if correct else 1,
        "environment": {"nproc": 2, "numpy": "x", "git_commit": "abc123", "seed": seed},
    }
    if trace:
        layers = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["per_layer"]}
        layers["universe.eigh_calls"] = {"value": None, "unit": "count", "absent": "not reached"}
        del layers["trace.overhead_s"]
        report["per_layer"] = layers
    else:
        report["end_to_end"] = {
            m["name"]: {"value": float(seed), "unit": m["unit"]} for m in spec["end_to_end"]
        }
    return report


def test_bench_record_aggregates_canned_reports(tmp_path, monkeypatch, capsys):
    record = _bench_record()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(record, "ROOT", tmp_path)
    wrong = {}
    monkeypatch.setattr(
        record, "run_report",
        lambda workload, seed, seconds, trace, tiny: _canned_report(
            spec, workload, seed, trace, (workload, seed, trace) not in wrong
        ),
    )
    assert record.main(["--label", "t", "--seeds", "4", "1", "2", "3"]) == 0
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert written["git_commit"] == "abc123" and written["seeds"] == [4, 1, 2, 3]
    assert "git_commit" not in written["environment"] and "seed" not in written["environment"]
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(written["workloads"]) == sorted(names)
    assert len(written["runs"]) == 5 * len(names) and all(r["correct"] for r in written["runs"])
    for entry in written["workloads"].values():
        assert list(entry["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        wall = entry["end_to_end"]["wall_s"]
        assert (wall["median"], wall["q1"], wall["q3"], wall["n"]) == (2.5, 1.75, 3.25, 4)
        # An absent metric stays absent, with its reason; one missing from the report too.
        assert entry["per_layer"]["universe.eigh_calls"] == {
            "value": None, "unit": "count", "absent": "not reached"
        }
        assert entry["per_layer"]["trace.overhead_s"]["value"] is None
        assert entry["per_layer"]["kernel.self_s"] == {"value": 1.0, "unit": "s"}
    # One run that is not correct: nothing is written, and the run is named.
    wrong[(names[1], 2, 0)] = True
    assert record.main(["--label", "u", "--seeds", "1", "2"]) == 1
    assert not (tmp_path / "BENCH_u.json").exists()
    assert f"{names[1]} seed 2 trace 0" in capsys.readouterr().err


def test_bench_record_quartiles_of_one_value():
    assert _bench_record().quartiles([0.5]) == {
        "median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1, "values": [0.5]
    }
