#!/usr/bin/env python3
"""Self-test of the benchmark: counters repeat and a second seed runs clean.

    python3 perfbench/selftest.py [--seed 1] [--other-seed 7] [--seconds 2]

For every workload of BENCHMARK.json:

* two traced runs of one seed must report every count metric (units
  ``bytes`` and ``count``, and the cache hit ratios) exactly equal, and
  the untraced ``shuffle_bytes`` must equal the traced ``exchange.bytes``.
  Each traced run also checks, in process, that its counters are the same
  at one engine thread as at nproc;
* a second seed, not used while the benchmark was tuned, must run traced
  and untraced with every job correct (error rate 0).

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 600)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def exact(metric):
    return metric["unit"] in ("bytes", "count") or metric["name"].endswith("_hit_ratio")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other-seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=2)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts = [m["name"] for m in spec["per_layer"] if exact(m)]

    failures = []
    for w in (w["name"] for w in spec["workloads"]):
        traced = [run(w, args.seed, args.seconds, 1) for _ in range(2)]
        plain = run(w, args.seed, args.seconds, 0)
        other = [run(w, args.other_seed, args.seconds, t) for t in (0, 1)]
        results = traced + [plain] + other
        if any(r is None for r in results):
            failures.append(f"{w}: a run exited with an error")
            continue
        for r in results:
            if not r["correct"] or r["failed"]:
                failures.append(f"{w}: {r['failed']} of {r['attempted']} jobs failed "
                                f"or a check did not hold")
        for name in counts:
            a, b = (t["metrics"][name]["value"] for t in traced)
            if a != b:
                failures.append(f"{w}: {name} is {a} in one run and {b} in the other")
        shuffle = plain["metrics"]["shuffle_bytes"]["value"]
        exchange = traced[0]["metrics"]["exchange.bytes"]["value"]
        if shuffle != exchange:
            failures.append(f"{w}: shuffle_bytes {shuffle} but exchange.bytes {exchange}")
        print(f"{w}: {len(counts)} counters compared; seed {args.other_seed} ran "
              f"{other[0]['attempted'] + other[1]['attempted']} jobs, "
              f"{other[0]['failed'] + other[1]['failed']} failed", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
