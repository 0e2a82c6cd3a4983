#!/usr/bin/env python3
"""Record the benchmark's numbers for the checkout in BENCH_<label>.json at its root.

Usage:
    python scripts/bench_record.py --label L [--seeds N ...] [--seconds S] [--tiny]

Runs perfbench/run.py, as it is, on every workload that BENCHMARK.json
names: once per seed at --trace 0, and once at --trace 1 with the first
seed.  Each run writes its report to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json; this script reads
the reports back and writes one JSON file holding:

* the git commit the reports name, and the SHA-256 of the checkout's
  src/ files, which tells a measured working tree from its commit;
* the environment of the first report;
* per workload, each end-to-end metric of BENCHMARK.json as the median,
  q1 and q3 over the seeds (inclusive quartiles), with every value;
* per workload, each per-layer metric of BENCHMARK.json from the traced
  run, an absent one kept absent with the reason its report gives;
* every run with its ``correct``, ``attempted`` and ``failed``.

It writes nothing, and exits 1, when a run exits non-zero, writes no
fresh report, or is not ``correct``.  Times are perfbench's reference
seconds.  One run takes about --seconds plus 10-20 s of set-up and
memory passes, so the defaults (3 seeds at BENCHMARK.json's run
length) take about 8 minutes on a 2-core machine.
"""

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1, 2, 3)


class NotCorrect(ValueError):
    """A benchmark run failed or reported outputs that are not correct."""


def quartiles(values: list[float]) -> dict:
    """Median, q1 and q3 of the values (inclusive method), their count and the values themselves."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def summarize(spec: dict, runs: dict, traced: dict) -> dict:
    """The BENCH file's workload section and run list, from loaded reports.

    runs maps each workload to its --trace 0 reports, one per seed, and
    traced maps it to its --trace 1 report.  Raises NotCorrect naming
    every run that is not correct.
    """
    every = [r for reports in runs.values() for r in reports] + list(traced.values())
    listed = [
        {key: r[key] for key in ("workload", "seed", "trace", "correct", "attempted", "failed")}
        for r in every
    ]
    wrong = [
        f"{r['workload']} seed {r['seed']} trace {r['trace']}" for r in listed if r["correct"] is not True
    ]
    if wrong:
        raise NotCorrect(f"not correct: {', '.join(wrong)}")
    workloads = {}
    for name, reports in runs.items():
        end_to_end = {}
        for metric in spec["end_to_end"]:
            entries = [r["end_to_end"].get(metric["name"], {}) for r in reports]
            missing = [e for e in entries if e.get("value") is None]
            if missing:
                reasons = sorted({e.get("absent", "not in the report") for e in missing})
                end_to_end[metric["name"]] = {
                    "value": None, "unit": metric["unit"], "absent": "; ".join(reasons)
                }
            else:
                values = [e["value"] for e in entries]
                end_to_end[metric["name"]] = {"unit": metric["unit"], **quartiles(values)}
        layers = traced[name]["per_layer"]
        per_layer = {}
        for metric in spec["per_layer"]:
            entry = layers.get(metric["name"], {"absent": "not in the report"})
            value = entry.get("value")
            per_layer[metric["name"]] = {"value": value, "unit": metric["unit"]}
            if value is None:
                per_layer[metric["name"]]["absent"] = entry.get("absent", "not in the report")
        workloads[name] = {"end_to_end": end_to_end, "per_layer": per_layer}
    return {"workloads": workloads, "runs": listed}


def source_digest(root: Path) -> str:
    """SHA-256 over the paths and bytes of every file under root/src, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*.py") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_report(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    """One perfbench/run.py invocation in the checkout; its report, read back from perfbench/out/."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    if done.returncode != 0:
        tail = done.stderr.strip()[-500:]
        raise NotCorrect(f"{' '.join(command)} exited {done.returncode}: {tail}")
    if not path.is_file() or path.stat().st_mtime < started:
        raise NotCorrect(f"{' '.join(command)} wrote no fresh report at {path}")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument(
        "--seconds", type=float, default=None, help="run length (BENCHMARK.json's by default)"
    )
    parser.add_argument(
        "--tiny", action="store_true", help="perfbench's few-point workloads (a quick check)"
    )
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    try:
        runs = {
            name: [run_report(name, seed, seconds, 0, args.tiny) for seed in args.seeds]
            for name in names
        }
        traced = {name: run_report(name, args.seeds[0], seconds, 1, args.tiny) for name in names}
        summary = summarize(spec, runs, traced)
    except NotCorrect as err:
        print(f"error: {err}; nothing written", file=sys.stderr)
        return 1
    first = runs[names[0]][0]["environment"]
    record = {
        "label": args.label,
        "git_commit": first.get("git_commit"),
        "source_sha256": source_digest(ROOT),
        "environment": {k: v for k, v in first.items() if k not in ("git_commit", "seed")},
        "seeds": args.seeds,
        "seconds": seconds,
        "tiny": args.tiny,
        **summary,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
