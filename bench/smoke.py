"""Quick self-check of the benchmark's own code; takes a few seconds.

    python3 bench/smoke.py

Checks the self-time arithmetic, that the tracer wraps and restores every
target, that inputs depend on the seed and on nothing else, that the verify
meshes are valid, the Harrell-Davis estimator on known samples, and that
run.py refuses to run with GENTESS_TOL set.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gentess.gspace as gspace  # noqa: E402
from gentess import TMesh, TwoExponentials  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import LAYER_UNITS, hd_quantile  # noqa: E402


def check_self_time() -> None:
    # a(0..10) contains b(1..4) and b(5..6); the first b contains c(2..3)
    spans = [["a", 0.0, 10.0, -1, 0.0, None], ["b", 1.0, 4.0, 0, 0.0, None],
             ["c", 2.0, 3.0, 1, 0.0, "RankAmbiguousError"], ["b", 5.0, 6.0, 0, 0.0, None]]
    summary = tracer.summarize(spans)
    assert summary["a"]["self_s"] == 6.0 and summary["a"]["incl_s"] == 10.0
    assert summary["b"]["self_s"] == 3.0 and summary["b"]["calls"] == 2
    assert summary["c"]["errors"] == {"RankAmbiguousError": 1}


def check_tracer_round_trip() -> None:
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        gen = TwoExponentials(1, -1)
        space = gspace.GSplineSpace(TMesh(workloads.BASE_CELLS), gen, 4, gen, 4, (1, 1))
        gspace.dual_basis_net(space, 0)
    finally:
        t.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS] == originals
    layers = tracer.layer_metrics(tracer.summarize(t.take()))
    assert layers["gspace.space_build.calls"] == 1
    assert layers["tmesh.build.calls"] == 1 and layers["tmesh.build.cells"] == 3
    assert layers["gspace.complete.calls"] == 1
    assert layers["bernstein.lookup.calls"] > 0
    assert set(layers) | {"bernstein.build.pass_spread", "trace.overhead_ratio"} == \
        set(LAYER_UNITS)


def check_inputs() -> None:
    def shape(tasks):
        return [(t.cells, repr(t.gen), t.n, t.r) for t in tasks]

    first = workloads.verify_tasks(7)
    assert shape(first) == shape(workloads.verify_tasks(7))
    assert shape(first) != shape(workloads.verify_tasks(8))
    assert len(first) == workloads.VM_TASKS
    for task in first[:20]:
        mesh = TMesh(task.cells)
        assert mesh.regular and not mesh.has_cycles
    a, b = workloads.Convergence(3), workloads.Convergence(3)
    assert (a.xs == b.xs).all() and not (a.xs == workloads.Convergence(4).xs).all()


def check_quantile() -> None:
    assert abs(hd_quantile([1.0, 2.0, 3.0], 0.5) - 2.0) < 1e-9
    assert hd_quantile([5.0], 0.9) == 5.0
    values = [float(k) for k in range(1, 1002)]
    assert abs(hd_quantile(values, 0.9) - 901.0) < 1.0


def check_refuses_tolerance_override() -> None:
    env = {**os.environ, "GENTESS_TOL": "1e-6"}
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "verify-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and not proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    for check in (check_self_time, check_tracer_round_trip, check_inputs,
                  check_quantile, check_refuses_tolerance_override):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
