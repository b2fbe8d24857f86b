"""Regenerate bench/references.json, the expected output digest of every
workload for seeds 0 to 31 and the seed its config names.

    python3 bench/references.py

Run it from the root of a source checkout at a commit whose outputs are
trusted.  Each reference is made at one thread; threaded samples must
reproduce it.  A change that alters outputs on purpose regenerates this file
and says so.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import harness

SEEDS = range(32)
JOBS = 2  # concurrent children, each pinned to one BLAS thread


def main() -> int:
    workloads = [harness.Workload.load(name) for name in harness.WORKLOADS]
    jobs = [(w, seed) for w in workloads for seed in sorted(set(SEEDS) | {w.seed})]

    def reference(job):
        workload, seed = job
        sample = harness.run_sample(workload, seed, threads=1)
        print(f"{workload.name} seed {seed}: {sample.digest or sample.error} "
              f"({sample.run_s:.2f} s)", flush=True)
        return sample

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        samples = list(pool.map(reference, jobs))
    if not all(s.ok for s in samples):
        print("some runs failed; references.json left unchanged", file=sys.stderr)
        return 1

    refs: dict = {}
    for (workload, seed), sample in zip(jobs, samples):
        refs.setdefault(workload.name, {})[str(seed)] = sample.digest
    harness.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
