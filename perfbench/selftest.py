#!/usr/bin/env python3
"""Self-test of the charfree benchmark.

Run from the root of a charfree checkout:

    python3 perfbench/selftest.py

It checks that
  * a short run of every workload prints, as its last line, a result with
    exactly the keys of the result format, and every end-to-end metric of
    BENCHMARK.json with its unit, as a positive finite number;
  * a short traced run prints every per-layer metric with its unit;
  * an injected wrong answer trips the correctness gate of every workload
    and of the traced run (non-zero exit, "correct": false);
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    out = subprocess.run(
        ["python3", RUN] + args, cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = out.stdout.strip().splitlines()
    return out.returncode, (lines[-1] if lines else ""), out.stderr


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def expect_metrics(result, wanted, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys are {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"{where}: metrics differ: missing {set(wanted) - set(got)}, extra {set(got) - set(wanted)}")
    for name, unit in wanted.items():
        entry = got[name]
        if entry.get("unit") != unit:
            fail(f"{where}: {name} has unit {entry.get('unit')!r}, not {unit!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            fail(f"{where}: {name} is not a finite number: {entry.get('value')!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    short = ["--seed", "1", "--seconds", "1"]

    for w in workloads:
        code, line, err = run(["--workload", w, "--trace", "0"] + short)
        if code != 0:
            fail(f"{w}: exit {code}\n{err}")
        result = json.loads(line)
        expect_metrics(result, end_to_end, w)
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            fail(f"{w}: not correct: {line}")
        for name, entry in result["metrics"].items():
            if entry["value"] <= 0:
                fail(f"{w}: end-to-end metric {name} is not positive")
        print(f"selftest: ok: {w} emits every end-to-end metric")

    code, line, err = run(["--workload", workloads[0], "--trace", "1"] + short)
    if code != 0:
        fail(f"traced run: exit {code}\n{err}")
    result = json.loads(line)
    expect_metrics(result, per_layer, "traced run")
    if result["metrics"]["fail_ratio"]["value"] != 0:
        fail(f"traced run: fail_ratio is not 0: {line}")
    print("selftest: ok: the traced run emits every per-layer metric")

    for w in workloads:
        for trace in (["--trace", "0"], ["--trace", "1"]) if w == workloads[0] else (["--trace", "0"],):
            code, line, _ = run(["--workload", w, "--inject-fault"] + trace + short)
            result = json.loads(line) if line.startswith("{\"correct\"") else {}
            if code == 0 or result.get("correct") is not False or result.get("failed", 0) < 1:
                fail(f"{w} {trace}: an injected wrong answer did not trip the gate (exit {code})")
            print(f"selftest: ok: an injected wrong answer trips the gate ({w}, trace {trace[1]})")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("target", "__pycache__"),
            )
        code, line, _ = run(["--workload", workloads[0], "--trace", "0"] + short, cwd=bare)
        if code == 0 or line.startswith("{\"correct\""):
            fail("without the repository's sources the benchmark still printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    print("selftest: ok: without the sources the benchmark exits non-zero, printing no result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
