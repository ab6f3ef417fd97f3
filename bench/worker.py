"""One benchmark workload, measured in a process of its own.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

run.py starts this with OpenBLAS pinned to one thread.  The process times its
own set-up (``import gentess`` plus building the workload's inputs), then runs
passes until the next one would overrun ``--seconds``.  Untraced passes give
the end-to-end metrics; with ``--trace 1``, traced passes alternate with
untraced ones and give the per-layer metrics.  The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: per-layer metric name -> unit
LAYER_UNITS = {
    "tmesh.build.calls": "count", "tmesh.build.cells": "count",
    "tmesh.build.self_s": "s", "tmesh.refine.calls": "count",
    "sectionspace.flags.calls": "count", "sectionspace.flags.numeric_calls": "count",
    "sectionspace.flags.self_s": "s",
    "bernstein.build.calls": "count", "bernstein.build.self_s": "s",
    "bernstein.build.pass_spread": "count",
    "bernstein.lookup.calls": "count", "bernstein.lookup.self_s": "s",
    "bernstein.hit_ratio": "ratio",
    "gspace.space_build.calls": "count", "gspace.space_build.self_s": "s",
    "gspace.complete.calls": "count", "gspace.complete.incl_s": "s",
    "gspace.complete.coeffs_per_s": "1/s",
    "gspace.propagate_vertex.calls": "count", "gspace.propagate_vertex.self_s": "s",
    "gspace.propagate_edge.calls": "count", "gspace.propagate_edge.self_s": "s",
    "gspace.eval_point.calls": "count", "gspace.eval_point.self_s": "s",
    "gspace.eval_point.us_per_call": "us",
    "gspace.function_bnet.calls": "count", "gspace.function_bnet.self_s": "s",
    "approx.hermite_local.calls": "count", "approx.hermite_local.self_s": "s",
    "approx.quasi_interpolant.self_s": "s", "approx.error.self_s": "s",
    "approx.support_ratio.self_s": "s", "approx.norm_equivalence.self_s": "s",
    "oracle.assemble.calls": "count", "oracle.assemble.self_s": "s",
    "oracle.svd.calls": "count", "oracle.svd.self_s": "s",
    "oracle.matrix_mib": "MiB-computed", "oracle.inconclusive": "count",
    "trace.overhead_ratio": "ratio",
}


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, weighted by a Beta((n+1)q,
    (n+1)(1-q)) distribution over their ranks.  A latency mix of a few task
    kinds has gaps between kinds; a single order statistic jumps across a gap
    when one task changes kind, while this estimate moves smoothly.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    per_rank = 200
    steps = per_rank * n
    mid = (np.arange(steps) + 0.5) / steps
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::per_rank]) / cdf[-1]
    return float(weights @ x)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = time.perf_counter
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import gentess
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = clock() - t0

    where = Path(gentess.__file__).resolve()
    if SRC.resolve() not in where.parents:
        _fail(f"imported gentess from {where}, not from this checkout's src")
    from gentess import config

    if config.rel_tol() != config.DEFAULT_REL_TOL:
        _fail(f"tolerance {config.rel_tol()} is not the default {config.DEFAULT_REL_TOL}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# gentess {where.parent} rel_tol={config.rel_tol()} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"python {platform.python_version()} numpy {workloads.np.__version__}")
    passes = run_passes(workload, args.seconds, args.trace)

    gate_failures = [msg for p in passes for msg in p["result"].gate_failures]
    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        builds = [p["layers"]["bernstein.build.calls"] for p in traced]
        if len(set(builds)) != 1:
            gate_failures.append(f"basis builds differ between passes: {builds}")
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in LAYER_UNITS if name in traced[0]["layers"]}
        metrics["bernstein.build.pass_spread"] = max(builds) - min(builds)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in plain))
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verify_p50_s": statistics.median(
                hd_quantile(p["result"].verify_latencies, 0.5) for p in plain),
            "verify_p90_s": statistics.median(
                hd_quantile(p["result"].verify_latencies, 0.9) for p in plain),
        }
        units = {"wall_s": "s", "peak_rss_mib": "MiB", "verify_p50_s": "s",
                 "verify_p90_s": "s"}
    for msg in gate_failures:
        print(f"# gate failed: {msg}")
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not gate_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_passes(workload, seconds: float, trace: int) -> list[dict]:
    """Passes until the next would overrun ``seconds``.

    Without tracing at least one pass runs.  With tracing, every third pass
    is untraced and at least three run, so that two traced passes can show
    that every pass builds the same bases.
    """
    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics, self_time_shares, summarize

        tracer = Tracer()
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 3 != 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = workload.run_pass()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall": wall, "result": result}
        if traced:
            summary = summarize(tracer.take())
            record["layers"] = layer_metrics(summary)
            shares = ", ".join(f"{name} {share:.1%}"
                               for name, share in self_time_shares(summary, wall).items()
                               if share >= 0.005)
            print(f"# self-time shares: {shares}")
        passes.append(record)
        print(f"# pass {len(passes)} traced={int(traced)} wall={wall:.3f}s "
              f"attempted={result.attempted} failed={result.failed} {result.info}",
              flush=True)
        enough = len(passes) >= (3 if trace else 1)
        if enough and time.perf_counter() - start + wall > seconds:
            return passes


if __name__ == "__main__":
    sys.exit(main())
