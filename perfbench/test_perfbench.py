#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_perfbench.py

Run from the repository root. Checks that
  * run.py's metric tables match BENCHMARK.json (names and units);
  * a short run of every workload, in both modes, on a seed no other run
    uses, prints every metric of its mode with its unit and a finite value,
    and reports a correct result;
  * a run whose audit finds a non-delivery invariant violation (one Bloom
    filter corrupted mid-run) exits non-zero and prints no result.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must not write into the tree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

HELD_OUT_SEED = 424242
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == table, f"BENCHMARK.json {key} differs from run.py: "
               f"{sorted(set(listed.items()) ^ set(table.items()))}")


def check_run(workload, trace):
    done = bench("--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "1",
                 "--trace", str(trace))
    expect(done.returncode == 0,
           f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = last_json(done.stdout)
    expect(result is not None and set(result) == RESULT_KEYS,
           f"{workload} trace={trace}: last line is not a result")
    expect(result["correct"] is True, f"{workload}: result not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted must be a positive integer")
    expect(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"],
           f"{workload}: failed out of range")
    table = run.PER_LAYER if trace else run.END_TO_END
    metrics = result["metrics"]
    expect(set(metrics) == set(table), f"{workload} trace={trace}: metric names differ")
    for name, unit in table.items():
        m = metrics[name]
        expect(m["unit"] == unit, f"{name}: unit {m['unit']} != {unit}")
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{name}: value {m['value']!r} is not finite")
        expect(f"{name} " in done.stdout, f"{name} missing from the printed table")
    if not trace:
        for name in run.END_TO_END:
            expect(metrics[name]["value"] != 0, f"{name} is 0")
    return result


def check_invalid_run():
    done = bench("--workload", "fig6_static", "--seed", str(HELD_OUT_SEED), "--seconds", "1",
                 "--trace", "0", "--corrupt-audit")
    expect(done.returncode != 0, "a corrupted run must exit non-zero")
    expect(last_json(done.stdout) is None, "a corrupted run must not print a result")
    expect("st-soundness" in done.stderr, "the audit should name the broken invariant")


def main():
    check_spec()
    print("spec: BENCHMARK.json matches run.py", flush=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            r = check_run(workload, trace)
            print(f"{workload} trace={trace}: ok ({len(r['metrics'])} metrics, "
                  f"{r['failed']}/{r['attempted']} failed deliveries)", flush=True)
    check_invalid_run()
    print("negative control: corrupted run rejected", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
