#!/usr/bin/env python3
"""Tiny-scale smoke test of the end-to-end benchmark.

Runs every workload named in BENCHMARK.json at scale 10 for one second, in
both modes, and checks that each run completes, prints every metric the
file names for that mode with its unit, and has no failed job.

    python3 perfbench/smoke_test.py --binary <build dir>/e2e_bench [--work-dir <dir>]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_one(binary, work_dir, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--work-dir", work_dir, "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: last stdout line is not JSON"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    if result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']}")
    if result["failed"] != 0:
        errors.append(f"{label}: fail_rate {result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            errors.append(f"{label}: metric {name} missing")
        elif metrics[name].get("unit") != unit:
            errors.append(f"{label}: metric {name} has unit "
                          f"{metrics[name].get('unit')}, want {unit}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            errors.append(f"{label}: metric {name} has no numeric value")
        elif not any(f"  {name} = " in line and line.endswith(f" {unit}")
                     for line in lines[:-1]):
            errors.append(f"{label}: metric {name} not printed with its unit")
    extra = set(metrics) - set(expected)
    if extra:
        errors.append(f"{label}: unexpected metrics {sorted(extra)}")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--work-dir", default="perfbench-smoke-work")
    args = parser.parse_args()
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            found = run_one(args.binary, args.work_dir, workload["name"],
                            trace, expected[trace])
            status = "FAIL" if found else "ok"
            print(f"{status} {workload['name']} --trace {trace}")
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
