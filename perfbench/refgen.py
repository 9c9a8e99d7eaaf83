#!/usr/bin/env python3
"""Regenerate perfbench/references.json for the default seed.

    python3 perfbench/refgen.py

Builds every workload's job list on the default seed and computes each
committed reference through ``bench_refs`` (exact oracles and closed forms),
never through the package routine a job times.  Monte Carlo digests are the
one exception: they record the package's own seeded outputs, so that a later
change that alters a single draw fails the bit-identity check.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_jobs  # noqa: E402


def main() -> int:
    refs: dict = {}
    workdir = os.path.join(HERE, "results", "work")
    os.makedirs(workdir, exist_ok=True)
    for workload in bench_jobs.JOB_LISTS:
        t0 = time.perf_counter()
        ctx = bench_jobs.Ctx(bench_jobs.DEFAULT_SEED, refs, workdir, generating=True)
        jobs = bench_jobs.build(workload, ctx)
        print(f"{workload}: {len(jobs)} jobs, references in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
