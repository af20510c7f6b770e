#!/usr/bin/env python3
"""Tiny-size check of the benchmark itself (about 30 s on 2 cores).

    python3 perfbench/smoke.py

Runs the ``smoke`` workload (60 records, 3 epochs, one Nelder-Mead
iteration, every command and layer) untraced and traced, and fails unless
each run is correct and emits every metric named in BENCHMARK.json with its
unit. It then checks that the benchmark exits non-zero without printing a
result in a directory holding only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def check_metrics(trace: int) -> list[str]:
    proc = run(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"trace {trace}: not correct: {result}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"trace {trace}: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"trace {trace}: {name} = {entry}, want unit {unit}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_out" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    problems = check_metrics(0) + check_metrics(1) + check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
