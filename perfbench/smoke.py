#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload in BENCHMARK.json
briefly, untraced and traced, and checks that each run emits exactly the
declared metrics with their units, that its answer checks ran and passed,
and that nothing failed.

    python3 perfbench/smoke.py

Run from the repository root; exits non-zero on the first violation.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Measured seconds per run: enough for every workload to finish lines.
SECONDS = 1


def run(cmd, workload, trace):
    args = cmd + ["--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
                  "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def check(bench, workload, trace, lines):
    where = f"{workload} trace={trace}"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"{where}: metrics differ from BENCHMARK.json\n"
                 f"  missing {sorted(set(want) - set(got))}\n"
                 f"  extra {sorted(set(got) - set(want))}\n"
                 f"  units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            sys.exit(f"{where}: {name} = {m['value']!r}")
    checks = [l for l in lines if l.startswith("# checks: ")]
    ran = re.search(r"ran=(\d+) wrong=(\d+)", checks[-1]) if checks else None
    if not ran or int(ran.group(1)) == 0 or int(ran.group(2)) != 0:
        sys.exit(f"{where}: answer checks did not run clean: {checks}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{where}: correct={result['correct']} failed={result['failed']} "
                 f"attempted={result['attempted']}")
    if trace and not any(l.startswith("# layer table ") for l in lines):
        sys.exit(f"{where}: no layer table")
    print(f"ok {where}: {len(got)} metrics, {ran.group(1)} checks, "
          f"{result['attempted']} lines")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace in (0, 1):
            check(bench, w["name"], trace, run(bench["command"], w["name"], trace))


if __name__ == "__main__":
    main()
