#!/usr/bin/env python3
"""Build and run the Harmony wall-clock benchmark for one workload.

    python3 wallbench/run.py --workload shallow-tcp --seed 7 --seconds 10 --trace 0

Run from the repository root. The benchmark package next to this script
is built in release mode (into $CARGO_TARGET_DIR, default
wallbench/target), then run once. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of one untraced run of three
rounds, each on a freshly set-up engine (setup_s is the median).

--trace 1 reports the per-layer metrics. It runs the untraced binary and
then the traced one, each for half of --seconds and one round. It reports
the traced run's layer metrics, the untraced run's wall-clock figures
(wall.*, which carry no bound), and the tracing overhead of the traced
run against the untraced one.
Spans are written to <target>/wallbench-out/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0
# Prefix of the wall-clock figures, which are reported with the per-layer
# metrics and carry no bound.
WALL = "wall."


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_binary(binary, args, seconds, rounds, out_dir, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--rounds", str(rounds),
           "--out", out_dir]
    left = deadline - time.monotonic()
    if left <= 0:
        fail("no time left to run the benchmark")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(binary)} did not finish in time")
    if done.returncode != 0:
        fail(f"{os.path.basename(binary)} exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{os.path.basename(binary)} printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(HERE, "target"))
    build(target_dir)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(target_dir, "wallbench-out")
    os.makedirs(out_dir, exist_ok=True)
    release = os.path.join(target_dir, "release")

    if args.trace == 0:
        result = run_binary(os.path.join(release, "wallbench"), args,
                            args.seconds, 3, out_dir, deadline)
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if not k.startswith(WALL)}
        print(json.dumps(result))
        return

    half = args.seconds / 2
    plain = run_binary(os.path.join(release, "wallbench"), args, half, 1,
                       out_dir, deadline)
    traced = run_binary(os.path.join(release, "wallbench-traced"), args,
                        half, 1, out_dir, deadline)
    metrics = dict(traced["metrics"])
    pm, tm = plain["metrics"], traced["metrics"]
    metrics.update((k, v) for k, v in pm.items() if k.startswith(WALL))
    # Relative cost of tracing: > 0 means the traced run was slower.
    metrics["trace.p50_overhead_frac"] = {
        "value": tm["traced.search_p50_ms"]["value"]
        / pm["wall.search_p50_ms"]["value"] - 1.0,
        "unit": "ratio"}
    metrics["trace.cpu_overhead_frac"] = {
        "value": tm["traced.search_cpu_us"]["value"]
        / pm["search_cpu_us"]["value"] - 1.0,
        "unit": "ratio"}
    print(json.dumps({
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
