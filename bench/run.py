"""chainshell benchmark: time verified `chainshell run` calls on one workload.

    python3 bench/run.py --workload default --seed 7 --seconds 40 --trace 0

Run it from the root of a source checkout.  With ``--trace 0`` it reports
end-to-end metrics: the median wall time of one run (``run_s``), the median
time for a fresh interpreter to import the CLI and load the workload config
(``setup_s``), and the children's peak RSS.  With ``--trace 1`` it makes one
untraced and one traced run and reports per-layer metrics from the traced
one.  Every sample's outputs are checked against the stored reference digest
for that workload and seed.  For a seed without one, the first sample is the
reference: at one thread with ``--trace 0``, untraced with ``--trace 1``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness

SETUP_SAMPLES = 7


def setup_phase(workload: harness.Workload, count: int):
    """Median wall seconds of `count` fresh import + load_config children."""
    harness.OUT_ROOT.mkdir(exist_ok=True)
    walls, versions = [], None
    with tempfile.TemporaryDirectory(dir=harness.OUT_ROOT) as tmp:
        for _ in range(count):
            res = harness.run_child(["setup", str(workload.config)], Path(tmp))
            if res.payload is None:
                raise SystemExit(f"set-up failed (exit {res.rc}):\n{res.stderr[-2000:]}")
            walls.append(res.wall_s)
            versions = res.payload["versions"]
    return statistics.median(walls), versions


def measure(workload: harness.Workload, seed: int, reference, seconds: float):
    """Set-up samples, then run samples until the next would overrun `seconds`.

    Without a stored reference, the first run sample is made at one thread
    and its digest is the expected one, so at least two runs are compared:
    on `shelter` this checks thread invariance.  Returns the set-up time,
    the versions, all samples, the samples made at the workload's own thread
    count, and the expected digest.
    """
    t0 = time.perf_counter()
    setup_s, versions = setup_phase(workload, SETUP_SAMPLES)
    samples, timed = [], []
    if reference is None:
        first = harness.run_sample(workload, seed, threads=1)
        samples.append(first)
        if workload.threads == 1:
            timed.append(first)
        reference = first.digest
    while True:
        sample = harness.run_sample(workload, seed)
        samples.append(sample)
        timed.append(sample)
        next_s = statistics.mean(s.run_s for s in timed) + setup_s
        if time.perf_counter() - t0 + next_s > seconds:
            return setup_s, versions, samples, timed, reference


def judge(samples, expected):
    """Mark samples whose digest is missing or differs from the expected one."""
    bad = []
    for s in samples:
        if s.ok and s.digest != expected:
            s.ok, s.error = False, f"digest {s.digest} != expected {expected}"
        if not s.ok:
            bad.append(s)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces the workload config's seed")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="budget for set-up and run samples together")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload = harness.Workload.load(args.workload)
    seed = workload.seed if args.seed is None else args.seed
    stored = harness.load_references().get(workload.name, {}).get(str(seed))

    if args.trace:
        _, versions = setup_phase(workload, 1)
        untraced = harness.run_sample(workload, seed, "run")
        traced = harness.run_sample(workload, seed, "trace")
        samples = timed = [untraced, traced]
        expected = stored or untraced.digest
        if not traced.ok:
            raise SystemExit(f"traced run failed: {traced.error}")
        values = harness.per_layer_metrics(traced, untraced)
        units = harness.per_layer_units()
        for name, row in traced.payload["spans"].items():
            print(f"span {name:45s} calls={row['calls']:7d} s={row['s']:9.4f} "
                  f"self_s={row['self_s']:9.4f}")
    else:
        setup_s, versions, samples, timed, expected = measure(
            workload, seed, stored, args.seconds)
        values = {"run_s": statistics.median(s.run_s for s in timed),
                  "setup_s": setup_s,
                  "peak_rss_mb": max(s.peak_rss_mb for s in timed)}
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    bad = judge(samples, expected)
    for s in bad:
        print(f"sample failed: {s.error}", file=sys.stderr)
    print(json.dumps({"environment": dict(versions, **harness.PINNED_ENV,
                                          threads=workload.threads)}))
    print(json.dumps({"workload": workload.name, "seed": seed, "digest": expected,
                      "reference": "stored" if stored else "first sample",
                      "run_s": [s.run_s for s in timed]}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(samples),
        "failed": len(bad),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
