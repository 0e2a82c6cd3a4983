#!/usr/bin/env python3
"""Set-up time of one workload in a fresh interpreter.

Times importing centralspin (and with it numpy and its BLAS), building
the workload's configs, and evaluating its first grid point through
``cli.run_config``; prints ``{"setup_s": ...}``.  run.py starts this
several times per measurement, each between two calibrations of its
own, and reports the median in reference seconds.

    python3 perfbench/setup_probe.py --workload figures --seed 0
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import bench_env  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    bench_env.prepare()

    from centralspin import cli

    from workloads import WORKLOADS, first_point

    configs = WORKLOADS[args.workload].configs(args.seed, args.tiny)
    cli.run_config(first_point(configs[0]))
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
