"""Record the reference output digests the benchmark checks every run against.

    python3 perfbench/record.py

For every workload and every seed in RECORDED_SEEDS this sets the workload
up, runs one iteration and stores the digest of the four output files and of
the query answers in perfbench/reference.json, replacing the whole file.
Re-record only when a change is meant to alter simulated outputs, and say so
in the change.
"""

from __future__ import annotations

import json

import run

RECORDED_SEEDS = (*range(0, 21), run.HELD_OUT_SEED)


def main() -> None:
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for name in run.WORKLOADS:
        for seed in RECORDED_SEEDS:
            bench = run.make_bench(name, seed)
            bench.setup()
            it = bench.iteration(run.OUT / name)
            if it.failures or it.failed_queries:
                raise SystemExit(f"{name} seed {seed} fails its checks: {it.failures}")
            reference.setdefault(name, {})[str(seed)] = {
                "files": it.files_digest,
                "answers": it.answers_digest,
            }
            print(f"{name} seed {seed}: {it.files_digest[:16]} {it.answers_digest[:16]}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
