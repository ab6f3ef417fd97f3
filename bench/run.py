"""gentess benchmark entry point.

    python3 bench/run.py --workload convergence|space-analysis|verify-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh process
(bench/worker.py) with OpenBLAS pinned to one thread, so that its set-up time
and peak memory belong to that workload alone.  ``setup_s`` is the median of
several set-ups, each in its own process because ``import gentess`` can only
be timed once per process.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Refuses to run (exit 2, no result) when GENTESS_TOL is set or when the
checkout has no gentess sources.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("convergence", "space-analysis", "verify-mix")
#: set-ups timed per untraced run: the measuring process plus this many less one
SETUP_SAMPLES = 5
#: wall-clock limit for one run, all processes included
TIME_LIMIT_S = 170
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def _refuse(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _worker(args: list[str], env: dict, deadline: float) -> tuple[list[str], dict]:
    """Run one worker process; return its comment lines and its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gentess benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if "GENTESS_TOL" in os.environ:
        return _refuse("GENTESS_TOL is set; the benchmark runs at the default "
                       "tolerance only")
    if not (ROOT / "src" / "gentess" / "__init__.py").is_file():
        return _refuse(f"no gentess sources under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    env = {**os.environ, **PINNED_THREADS}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker([*common, "--setup-only"], env, deadline)[1]["setup_s"])
        lines, result = _worker([*common, "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], env, deadline)
    except subprocess.TimeoutExpired:
        return _refuse(f"run exceeded {TIME_LIMIT_S} s")
    except subprocess.CalledProcessError as exc:
        return _refuse(f"worker exited with status {exc.returncode}")

    setups.append(result.pop("setup_s"))
    for line in lines:
        print(line)
    print(f"# {args.workload} seed={args.seed} setup samples: "
          f"{', '.join(f'{s:.3f}' for s in setups)}")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
