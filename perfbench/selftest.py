#!/usr/bin/env python3
"""Self-test of the DLHT benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

1. Runs the benchmark's unit tests (`cargo test`).
2. Runs every workload at tiny size (those of BENCHMARK.json and the
   diagnostic `churn-grow` and `cache-evict`), untraced and traced, and
   asserts that the result line names exactly the metrics BENCHMARK.json
   declares, each with its unit, and that every answer was right.
3. Runs every workload again with one answer corrupted before it is
   checked, and asserts that the run counts it as a wrong answer and fails,
   so the checks cannot pass vacuously.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Runnable but not in BENCHMARK.json (see README.md).
DIAGNOSTIC_WORKLOADS = ["churn-grow", "cache-evict"]


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env,
    )
    failures = [] if tests.returncode == 0 else ["cargo test failed"]

    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in [w["name"] for w in bench["workloads"]] + DIAGNOSTIC_WORKLOADS:
        for trace in (0, 1):
            proc, result = run(bench, w, trace)
            tag = f"{w} trace={trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                failures.append(f"{tag}: metrics {sorted(units.items())} != declared")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append(f"{tag}: failed {result['failed']} of {result['attempted']}")
            print(f"ok   {tag}: {result['attempted']} answers checked, all right")

        proc, result = run(bench, w, 0, "--inject-fault")
        tag = f"{w} with one corrupted answer"
        if proc.returncode == 0 or result is None or result["correct"] or result["failed"] < 1:
            failures.append(f"{tag}: not caught (exit {proc.returncode}, result {result})")
        else:
            print(f"ok   {tag}: counted {result['failed']} wrong, run failed as it should")

    for f in failures:
        print("FAIL " + f)
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
