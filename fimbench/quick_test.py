#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json at --quick scale, untraced and
traced, and checks each result: exit 0, correct, no failed operation,
and exactly the declared metrics, each with its declared unit.

    python3 quick_test.py FIM_BENCH BENCHMARK_JSON
"""
import json
import math
import subprocess
import sys


def check(fim_bench, workload, trace, declared):
    command = [fim_bench, "--workload", workload, "--seed", "3",
               "--seconds", "0.2", "--trace", str(trace), "--quick"]
    run = subprocess.run(command, capture_output=True, text=True, timeout=120)
    errors = []
    if run.returncode != 0:
        return [f"{workload} --trace {trace}: exit {run.returncode}\n"
                f"{run.stderr}"]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        errors.append("nothing attempted")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        errors.append(f"missing {sorted(set(units) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(units))}")
    for name, metric in metrics.items():
        if metric.get("unit") != units.get(name):
            errors.append(f"{name}: unit {metric.get('unit')}")
        if not math.isfinite(metric["value"]):
            errors.append(f"{name}: value {metric['value']}")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def main():
    fim_bench, benchmark_json = sys.argv[1], sys.argv[2]
    with open(benchmark_json) as f:
        benchmark = json.load(f)
    errors = []
    for workload in benchmark["workloads"]:
        errors += check(fim_bench, workload["name"], 0, benchmark["end_to_end"])
        errors += check(fim_bench, workload["name"], 1, benchmark["per_layer"])
    for error in errors:
        print(error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
