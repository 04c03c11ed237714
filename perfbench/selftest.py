#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the `tiny` volume
preset and checks that each run exits 0, reports correct output, and
emits every metric BENCHMARK.json names, with its unit. Exits 1 on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = 0
    for workload in bench["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", workload["name"], "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            tag = f"{workload['name']} --trace {trace}"
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append(f"output check failed:\n{proc.stdout}")
                metrics = result.get("metrics", {})
                for m in wanted[trace]:
                    got = metrics.get(m["name"])
                    if got is None:
                        problems.append(f"missing metric {m['name']}")
                    elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                        problems.append(f"{m['name']}: {got}")
                extra = set(metrics) - {m["name"] for m in wanted[trace]}
                if extra:
                    problems.append(f"unexpected metrics {sorted(extra)}")
            print(f"{'FAIL' if problems else 'ok  '} {tag}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
