"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced. Each run must pass its
correctness checks and emit exactly the metrics that BENCHMARK.json names,
with their units; a traced run's spans must form a tree of nested intervals.
Last, ``run.py`` must refuse to run, without printing a result, in a copy of
the benchmark that lacks the sdgl sources. Exit code 0 when all of it holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        errors.append(f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}")
    bad = [k for k, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        errors.append(f"non-finite values: {bad}")
    if trace:
        from tracer import check_tree
        path = ROOT / ".perfbench_out" / "traces" / f"{workload}-seed3-tiny.json"
        spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
        unit = "model.step" if workload.startswith("train") else "model.evaluate"
        if not any(s[0] == unit for s in spans):
            errors.append(f"trace has no {unit} span")
        try:
            check_tree(spans)
        except ValueError as exc:
            errors.append(f"trace: {exc}")
    return errors


def check_refusal() -> list[str]:
    """Without src/, run.py must fail fast and print no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "--workload", "forecast", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace)
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for e in errors:
                print("     " + e)
    errors = check_refusal()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without src/")
    for e in errors:
        print("     " + e)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
