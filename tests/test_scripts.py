"""The scripts under scripts/ still run against the package."""

import importlib.util
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
    # windowed binomial, tiled exact, multi-time exact block, one-draw-last-chunk sampled and
    # edge-case dense-oracle runs, in csv and json, and the N = 1e6 binomial run in json alone.
    done = _run_script("output_digest.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 135
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
    assert windows.steps > engine.PROFILE_CHUNK_ENTRIES
    configs.append(windows)
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
    assert doubling_steps == [(4, 4), (2, 5)]
    configs += block_configs
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
