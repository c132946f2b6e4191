"""flipforge benchmark: one workload, one seed, every metric checked and named.

    python3 perfbench/run.py --workload audit|certify|interactive \
        --seed N --seconds T --trace 0|1 [--smoke]

Run from the root of a checkout; the program is imported from ``src`` and no
installed ``flipforge`` command is needed.  Each workload runs in a fresh
worker interpreter (``worker.py``); ``setup_s`` is the median time of several
more fresh interpreters that only import the program and finish the
workload's warm-up item.  The request latencies and throughput are scaled to
a reference host speed measured between requests (``hostspeed.py``); the
``info`` line has their unscaled wall figures too.  ``setup_s`` is plain
wall time: a set-up is one short child process, and the host's speed cannot
be sampled inside it.

stdout: an ``info`` line (machine, commit, seed, sample counts), with
--trace 1 a ``detail`` line (workload-specific spans and counts), and last
the result line ``{"correct", "attempted", "failed", "metrics"}``.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.  See perfbench/README.md for their definitions.
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

from hostspeed import REFERENCE_UNIT_MS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("audit", "certify", "interactive")
SETUPS = 9  # fresh interpreters timed for setup_s
DEADLINE = 170.0  # seconds; every child is killed and reaped before this


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))  # look no higher
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    # subprocess.run kills the child on timeout and waits for it
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0), check=False)


def fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="flipforge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes and one set-up, for the smoke test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flipforge", "cli.py")):
        return fail(f"no flipforge sources under {SRC}; run from a checkout of the repository")

    begun = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    setups = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUPS):
            t0 = time.perf_counter()
            done = run_worker(common + ["--setup-only"], 60.0)
            setups.append(time.perf_counter() - t0)
            if done.returncode != 0:
                return fail(f"set-up exited {done.returncode}: {done.stderr.strip()[-500:]}")
    done = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      DEADLINE - (time.monotonic() - begun))
    if done.returncode != 0 or not done.stdout.strip():
        return fail(f"worker exited {done.returncode}: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform(),
        "commit": git_commit(),
        "samples": {**result["samples"], "setups": len(setups)},
        "first_failures": result["first_failures"],
    }
    if "wall" in result:
        info["wall"] = result["wall"]
        info["reference_unit_ms"] = REFERENCE_UNIT_MS
    print(json.dumps({"info": info}))
    if "detail" in result:
        print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as exc:
        sys.exit(fail(f"worker ran past the deadline: {exc}"))
