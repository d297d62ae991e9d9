"""Run one sdgl benchmark workload and print its metrics.

    python3 perfbench/run.py --blas-threads 1 --workload train_small --seed 1 --seconds 20 --trace 0

Workloads: train_small, train_wide, forecast (see perfbench/NOTES.md).
Input preparation and measurement each run in a process of their own, with
``src/`` of this checkout on the import path. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones and keeps the spans in
``.perfbench_out/traces/``. ``--blas-threads N`` pins the BLAS thread pool of
both processes; without it the process default applies. The environment and
the correctness checks are printed first, then one line per metric, and the
last line is the JSON result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train_small", "train_wide", "forecast")
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str], env: dict, deadline: float) -> None:
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} exited with code {proc.returncode}")


def main() -> int:
    ap = argparse.ArgumentParser(description="run one sdgl benchmark workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=None)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sdgl" / "__init__.py").is_file():
        print("run.py: no sdgl sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if args.blas_threads is not None:
        env.update({var: str(args.blas_threads) for var in THREAD_VARS})

    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    work = OUT_DIR / f"{tag}-trace{args.trace}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    common += ["--tiny"] if args.tiny else []
    try:
        work.mkdir(parents=True)
        _child(["prep", *common], env, deadline)
        _child(["measure", *common, "--seconds", str(args.seconds),
                "--trace", str(args.trace)], env, deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            traces = OUT_DIR / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(work / "trace.json", traces / f"{tag}.json")
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(result["env"], sort_keys=True))
    print("checks " + json.dumps(result["checks"], sort_keys=True))
    print("quality " + json.dumps(result["quality"], sort_keys=True))
    print("measured " + json.dumps(result["measured"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
