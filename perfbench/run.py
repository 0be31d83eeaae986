"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Every measurement happens in a fresh child process
(``child.py``) with the BLAS/OpenMP pools pinned to one thread.

With ``--trace 0`` the run times three bare imports, each in its own
process, runs the workload for ``--seconds`` of measured time, times three
more imports, and reports the end-to-end metrics; ``setup_s`` is the median
of the six imports.  Request timings are scaled to a reference host speed
by a kernel sampled while they run (``speed.py``), because the host's own
speed drifts by up to 2x.  With ``--trace 1`` it runs a fixed amount of the
workload under the outside-in tracer and reports the per-layer metrics.
Every answer is checked; the last stdout line is the JSON result.  See
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-fast", "figure", "eval-points")
SETUP_SAMPLES = 3  # imports timed before the workload, and again after it
IMPORT_TIMEOUT_S = 30
RUN_TIMEOUT_S = 120
TOTAL_TIMEOUT_S = 170  # the run as a whole must end within 180 s
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in SINGLE_THREAD:
        env[var] = "1"
    return env


def run_child(args: list[str], timeout: float) -> dict:
    """Run child.py to completion and return the JSON object on its last line."""
    timeout = min(timeout, TOTAL_TIMEOUT_S - (time.monotonic() - STARTED))
    if timeout <= 0:
        raise ChildFailed(f"{' '.join(args)}: no time left of {TOTAL_TIMEOUT_S} s")
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{' '.join(args)}: no result within {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dsbs_envelopes").is_dir():
        print(f"no package source under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    try:
        setup = []
        if not args.trace:
            setup += [run_child(["import"], IMPORT_TIMEOUT_S)["import_s"] for _ in range(SETUP_SAMPLES)]
        result = run_child(
            ["run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            RUN_TIMEOUT_S,
        )
        if not args.trace:
            setup += [run_child(["import"], IMPORT_TIMEOUT_S)["import_s"] for _ in range(SETUP_SAMPLES)]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    info = result["info"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"steps {info['steps']}  queries {info['queries']}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    print("info " + json.dumps({"setup_samples_s": setup, **info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
