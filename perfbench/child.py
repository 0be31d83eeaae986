"""One workload (or one bare import) in a fresh single-threaded interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/child.py import
    python3 perfbench/child.py run --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import time

_start = time.perf_counter()
import dsbs_envelopes  # noqa: E402  (timed: the set-up a user pays per process)
import dsbs_envelopes.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402  (this script's directory is first on sys.path)
import workloads  # noqa: E402
from tracer import ROOT_SPAN, TARGETS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# The claim ids at the commit that defined the benchmark; per-claim runtimes
# are reported under these names so the metric set never changes.
CLAIMS = ("T1", "T2", "T3", "C", "L1", "L2", "L3", "E", "P", "U", "H", "B")
# Requests are scaled in batches of at least this many seconds of request
# time, so that every batch holds several speed samples.
BATCH_S = 2.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(batches: list[list[list[float]]]) -> dict:
    """The end-to-end metrics from scaled query latencies, batch by batch."""
    steps = [step for batch in batches for step in batch]
    queries = [q for step in steps for q in step]
    if not queries:
        raise SystemExit("no query completed, so nothing was measured")
    ms = np.array(queries) * 1000.0
    rates = [sum(map(len, b)) / sum(map(sum, b)) for b in batches if any(b)]
    return {
        "wall_s": _metric(statistics.median(sum(step) for step in steps if step), "s"),
        "query_p50_ms": _metric(float(np.percentile(ms, 50)), "ms"),
        "query_p90_ms": _metric(float(np.percentile(ms, 90)), "ms"),
        "queries_per_s": _metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, workload) -> dict:
    summary = tracer.summary()
    metrics = {}
    for name, (elems_of, pairs_of, count_errors) in TARGETS.items():
        metrics[f"{name}.calls"] = _metric(summary["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = _metric(summary["self_s"].get(name, 0.0), "s")
        for kind, wanted in (("elems", elems_of), ("pairs", pairs_of), ("errors", count_errors)):
            if wanted:
                metrics[f"{name}.{kind}"] = _metric(summary["counts"].get(f"{name}.{kind}", 0), "count")
    claim_s = getattr(workload, "claim_s", {})
    for cid in CLAIMS:
        metrics[f"verify.claim.{cid}_s"] = _metric(claim_s.get(cid, 0.0), "s")
    metrics["cli.bytes_written"] = _metric(workload.bytes_written, "bytes")
    metrics["trace.other_s"] = _metric(summary["self_s"].get(ROOT_SPAN, 0.0), "s")
    metrics["trace.wall_s"] = _metric(summary["wall_s"], "s")
    metrics["trace.ops"] = _metric(summary["calls"].get(ROOT_SPAN, 0), "count")
    metrics["trace.spans"] = _metric(summary["spans"], "count")
    return metrics


def measure(workload, seconds: float):
    """Run the closed loop for ``seconds`` of request time.

    Returns the batches of steps, each step's query latencies scaled to the
    reference host speed, then the raw duration of every step and every
    kernel time sampled.  Each batch is scaled by the mean kernel time
    sampled during it.
    """
    batches: list[list[list[float]]] = []
    raw_s: list[float] = []
    measured = 0.0
    with speed.Sampler() as sampler:
        workload.clock = sampler.clock
        while measured < seconds or not batches:
            batch: list[list[float]] = []
            start = sampler.clock()
            while not batch or (batch[-1] and sum(map(sum, batch)) < BATCH_S and measured < seconds):
                batch.append(workload.step())
                measured += sum(batch[-1])
            kernel = sampler.kernel_between(start, sampler.clock()) or [sampler.sample()]
            scale = speed.REF_S / statistics.mean(kernel)
            batches.append([[q * scale for q in step] for step in batch])
            raw_s += [sum(step) for step in batch if step]
            if not batch[-1]:  # every query of the step failed; nothing was measured
                break
    return batches, raw_s, [s for _, s in sampler.samples]


def run(args) -> dict:
    workload = workloads.make(args.workload, args.seed)
    steps: list[list[float]] = []
    if args.trace:
        tracer = Tracer()
        workload.timed = tracer.root
        tracer.install()
        try:
            for _ in range(workload.traced_steps):
                steps.append(workload.step())
        finally:
            tracer.uninstall()
        workloads.OUT.mkdir(exist_ok=True)
        tracer.save(workloads.OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(tracer, workload)
    else:
        batches, raw_s, kernel = measure(workload, args.seconds)
        steps = [step for batch in batches for step in batch]
        metrics = end_to_end(batches)
        workload.extra["raw_wall_s"] = statistics.median(raw_s)
        workload.extra["kernel_samples"] = len(kernel)
        workload.extra["kernel_median_s"] = statistics.median(kernel)
    return {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "info": {"steps": len(steps), "queries": sum(map(len, steps)), **workload.info()},
    }


def main() -> int:
    src = ROOT / "src"
    if src not in Path(dsbs_envelopes.__file__).resolve().parents:
        print(f"dsbs_envelopes imported from {dsbs_envelopes.__file__}, not from {src}", file=sys.stderr)
        return 3
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["import", "run"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.mode == "import":
        result = {"import_s": IMPORT_S}
    else:
        result = run(args)
        result["info"]["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
