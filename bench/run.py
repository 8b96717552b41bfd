"""Benchmark of arrivalgames: time to a verified equilibrium.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from its
`src/`. Each workload runs in fresh worker processes (see worker.py): a
few that only set up, for the median set-up time, and one that solves.
With `--trace 0` the last line of standard output carries the end-to-end
metrics, with `--trace 1` the per-layer ones from a traced run; the line
before it records the environment and the per-solve details. The exit
code is non-zero, and no result is printed, when the library is missing
or a worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DEADLINE_S = 170.0
SETUP_SAMPLES = 4  # set-up-only processes, besides the solving one

# One thread per process: the machine has two cores and the benchmark
# measures the single-threaded library.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(role: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        role,
        "--workload",
        args.workload,
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} worker for {args.workload} ran past the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{role} worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="checked by the worker")
    ap.add_argument("--seed", type=int, required=True, help="recorded; no workload depends on it")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "arrivalgames" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        setups = [worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    run = worker("solve", args, deadline)
    setups.append(run["setup_s"])

    attempted = len(run["solve_wall"])
    failed = len(run["failures"])
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(run["pass_wall"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(run["pass_cpu"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": run["numpy"],
            "threads_env": THREAD_ENV,
        },
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s_samples": setups,
        "pass_wall_s": run["pass_wall"],
        "solve_wall_s": run["solve_wall"],
        "failures": run["failures"],
    }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
