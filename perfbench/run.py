#!/usr/bin/env python3
"""Run one workload of the papar file-to-files benchmark.

    python3 perfbench/run.py --workload fig8_blast --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Builds the benchmark binary (and with it the repository's crates) from
source, generates the workload's inputs from the seed several times to
time set-up, then measures for the given seconds, and times set-up again. Every metric is printed
by name with its unit; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones. ``--workload all`` runs every workload
traced and untraced and prints one table. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewest input generations timed before and again after measuring (cheap
# ones are repeated more); the median of all of them is the set-up time.
# The host's speed changes from one few-second window to the next, so
# the samples are taken in two windows about half a minute apart.
SETUPS = 5
# Fresh processes per run that each run one job and report their peak
# resident set; their median is peak_rss_mb.
RSS_PROCESSES = 3
# Their allocator keeps its initial 128 KiB mmap threshold. By default
# glibc raises the threshold as large blocks are freed, so the peak
# depended on the order of frees across threads: 124 to 164 MiB for one
# Fig 8 input, against 133 to 141 MiB with the threshold pinned.
RSS_ENV = {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise RuntimeError("building the benchmark failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def call(binary, args, timeout, env=None):
    """Run the binary; returns the JSON value on its last stdout line."""
    done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def peak_rss(binary, common):
    """Median peak resident set of fresh one-job processes; and failures.

    A one-shot `papar run` is a process of its own, so its memory is taken
    from fresh processes, not from the long-running measuring process.
    """
    peaks = []
    for _ in range(RSS_PROCESSES):
        try:
            peaks.append(call(binary, ["job"] + common, timeout=150,
                              env=dict(os.environ, **RSS_ENV)))
        except RuntimeError as e:
            log(f"run.py: {e}")
    return (statistics.median(peaks) if peaks else 0.0), RSS_PROCESSES - len(peaks)


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Set up and measure one workload; returns the benchmark result."""
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    common = ["--workload", workload, "--work", work]
    generations = ["--seed", str(seed), "--repeat", str(SETUPS)]
    try:
        setup_times = call(binary, ["setup"] + common + generations,
                           timeout=300)["setup_times"]
        measured = call(binary, ["measure"] + common + ["--seconds", str(seconds),
                                                       "--trace", str(trace)],
                        timeout=seconds + 150)
        if not trace:
            rss, rss_failed = peak_rss(binary, common)
            measured["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
            measured["attempted"] += RSS_PROCESSES
            measured["failed"] += rss_failed
            setup_times += call(binary, ["generate"] + common + generations,
                                timeout=150)["setup_times"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's inputs are still there

    got = {name: m["value"] for name, m in measured["metrics"].items()}
    # The daemon's start and cache warm-up are set-up too.
    setup_s = statistics.median(setup_times) + got.pop("setup_daemon_s", 0.0)
    problems = list(measured["problems"])
    metrics = {}
    if trace:
        for m in spec["per_layer"]:
            # A layer the workload never calls reads 0.
            metrics[m["name"]] = {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        got["setup_s"] = setup_s
        for m in spec["end_to_end"]:
            value = got.get(m["name"])
            if value is None:
                problems.append(f"{m['name']} was not measured")
                value = 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": measured["correct"] and not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }, measured["notes"], problems


def describe(workload, seed, trace, result, notes, problems):
    print(f"workload {workload}  seed {seed}  trace {trace}  host_cores {os.cpu_count()}")
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    rate = result["failed"] / max(result["attempted"], 1)
    print(f"  error_rate {rate} (failed {result['failed']} of {result['attempted']} jobs)")
    for name, m in result["metrics"].items():
        print(f"  {name:<22} {m['value']:>20.6f} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; choose one of {names} or all")
        return 2
    binary = build()

    if args.workload != "all":
        result, notes, problems = run_workload(binary, spec, args.workload, args.seed,
                                               seconds, args.trace)
        describe(args.workload, args.seed, args.trace, result, notes, problems)
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        for trace in (0, 1):
            result, notes, problems = run_workload(binary, spec, workload, args.seed,
                                                   seconds, trace)
            describe(workload, args.seed, trace, result, notes, problems)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        sys.exit(1)
