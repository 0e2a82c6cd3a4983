#!/usr/bin/env python3
"""Write the committed reference series the correctness gate compares against.

    python3 perfbench/make_reference.py

Exact workloads store their series from the code of this checkout; the
sampled workload stores a run at REFERENCE_SEED.  Regenerate only when
the expected numbers change on purpose: a change that claims a speed-up
must keep the references as they are.
"""

import json

import bench_env


REFERENCE_SEED = 1909


def main() -> int:
    bench_env.prepare()

    from centralspin import cli

    import checks
    from workloads import WORKLOADS

    bench_env.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        if workload.gate == "oracle":
            continue
        for tiny in (False, True):
            entries = []
            for config in workload.configs(REFERENCE_SEED, tiny):
                s = cli.run_config(config).series
                entries.append(checks.series_entry(config, s.times, s.p_up, s.p_down, s.p_q, s.method))
            body = ",\n".join(json.dumps(e) for e in entries)
            path = checks.reference_path(workload.name, tiny)
            path.write_text(
                f'{{"workload": "{workload.name}", "seed": {REFERENCE_SEED}, "configs": [\n{body}\n]}}\n'
            )
            print(f"wrote {path.relative_to(bench_env.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
