#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload in BENCHMARK.json it asserts that an untraced run ends
with the result line (``correct``, ``attempted``, ``failed``, ``metrics``)
and reports every end-to-end metric, and that a traced run reports every
per-layer metric, each with its unit and a finite value.  It also asserts
that the runner exits with an error, and prints no result, in a copy that
holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(runner: str, workload: str, trace: int, cwd: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, runner, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict, label: str) -> list:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(last)}")
    if not (isinstance(last.get("attempted"), int) and last["attempted"] >= 1):
        errors.append(f"{label}: attempted = {last.get('attempted')!r}")
    if not isinstance(last.get("failed"), int):
        errors.append(f"{label}: failed = {last.get('failed')!r}")
    got = {name: m["unit"] for name, m in last.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        errors.append(f"{label}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, m in last.get("metrics", {}).items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} = {m['value']!r}")
    return errors


def check_bare_copy() -> list:
    """The runner must refuse a directory without the audkit sources."""
    bare = os.path.join(BENCH, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(os.path.join("bench", "run.py"), "closed-form", 0, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runner = os.path.join(BENCH, "run.py")
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            label = f"{workload} --trace {trace}"
            errors += check_result(run(runner, workload, trace, ROOT), expected, label)
            print(f"{label}: {'ok' if not errors else 'FAILED'}", flush=True)
    errors += check_bare_copy()
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
