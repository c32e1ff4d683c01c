#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Builds the benchmark if needed, runs every
workload of BENCHMARK.json at reduced size with tracing off, then one
reduced traced run, and checks that:

  - the last line of standard output is the result object, with exactly
    the keys correct, attempted, failed and metrics;
  - every correctness check passed and the run exited 0;
  - the untraced runs emit exactly the end_to_end metrics, the traced run
    exactly the per_layer metrics, each with the unit BENCHMARK.json names
    and a finite value (end-to-end ones non-zero);
  - an unknown workload is refused with a non-zero exit and no result.

Exits 0 when all of that holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py")] + args,
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(label, args, expected, nonzero, errors):
    code, lines, stderr = run(args)
    if code != 0 or not lines:
        errors.append(f"{label}: exit {code}: {stderr.strip()[-500:]}")
        return
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        errors.append(f"{label}: last line is not JSON: {lines[-1][:200]}")
        return
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        errors.append(f"{label}: missing {missing} extra {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} unit {entry.get('unit')} != {unit}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
        elif nonzero and value == 0:
            errors.append(f"{label}: {name} is 0")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in spec["workloads"]:
        name = workload["name"]
        check_result(name, ["--workload", name, "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--reduced"],
                     end_to_end, True, errors)
    first = spec["workloads"][0]["name"]
    check_result("traced", ["--workload", first, "--seed", "7", "--seconds", "2",
                            "--trace", "1", "--reduced"],
                 per_layer, False, errors)
    code, lines, _ = run(["--workload", "no_such_workload", "--seed", "1"])
    if code == 0 or lines:
        errors.append("unknown workload was not refused")
    for error in errors:
        print("FAIL:", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
