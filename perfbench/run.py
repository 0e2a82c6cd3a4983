#!/usr/bin/env python3
"""centralspin benchmark: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a separate traced run.
Times are reported in reference seconds (see calibration.py), with the
raw readings in the report.  Every output is checked for correctness.  The full report is printed
and written to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where
``metrics`` holds the metrics named in BENCHMARK.json.
Run it from the root of a checkout; see perfbench/README.md.
"""

import argparse
import json
import sys

import bench_env

SPEC = bench_env.ROOT / "BENCHMARK.json"
MAX_PRINTED_PROBLEMS = 20


def _format(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="a few points per config (smoke test)")
    args = parser.parse_args(argv)
    bench_env.prepare()

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    report = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)

    section = report["per_layer" if args.trace else "end_to_end"]
    for name, metric in sorted(section.items()):
        if name == "absent_targets":
            continue
        extra = ""
        if "q1" in metric:
            extra = f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']})"
            if "raw" in metric:
                extra += f"  raw median {metric['raw']['median']:.6g}"
        elif metric.get("absent"):
            extra = f"  ({metric['absent']})"
        print(f"{args.workload:12s} {name:32s} {_format(metric['value']):>14s} {metric['unit']}{extra}")
    for problem in report["problems"][:MAX_PRINTED_PROBLEMS]:
        print(f"FAILED  {problem}")
    if len(report["problems"]) > MAX_PRINTED_PROBLEMS:
        print(f"FAILED  ... {len(report['problems']) - MAX_PRINTED_PROBLEMS} more in the report")
    bench_env.OUT.mkdir(parents=True, exist_ok=True)
    path = bench_env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {path.relative_to(bench_env.ROOT)}")

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {
        name: {"value": section[name]["value"], "unit": section[name]["unit"]}
        for name in wanted
        if section.get(name, {}).get("value") is not None
    }
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
