#!/usr/bin/env python3
"""Smoke test of the repository benchmark at tiny sizes.

Runs every workload once untraced and once traced with --tiny, and asserts
that each run passes its checks with no failed operation and prints every
metric BENCHMARK.json names, with the unit it names. Untraced end-to-end
values must also be positive, and on the fuzzing workloads the layer
probe's replay must match the campaign's records exactly.

    python3 perfbench/smoke_test.py      # from the repository root
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        return [f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"checks failed: {out.stdout[-3000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"attempted = {result['attempted']}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            errors.append(f"{spec['name']}: unit {got.get('unit')} != {spec['unit']}")
        if not trace and not got.get("value", 0) > 0:
            errors.append(f"{spec['name']}: value {got.get('value')} is not positive")
    if trace and workload != "serve-mmap":
        match = metrics.get("probe.replay_match", {}).get("value")
        if match != 1:
            errors.append(f"probe.replay_match = {match}: the layer probe no longer follows fuzz_one")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main():
    errors = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = run(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
