"""The three benchmark workloads: inputs from a seed, one pass, output gates.

Every call into gentess goes through a module attribute (``approx.refine``,
``gspace.eval_spline``...) so that the tracer's wrappers see it.  Each pass
clears the process-global basis cache first, so every pass does the same work.

A pass returns its operation count, the operations that failed (an exception
or a failed gate), the gate failures themselves, and the latencies of its
verification operations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import gentess.approx as approx
import gentess.bernstein as bernstein
import gentess.gspace as gspace
import gentess.oracle as oracle
import gentess.tmesh as tmesh
from gentess.errors import GentessError
from gentess.generators import (
    ExpTimesLinear,
    ExpTrig,
    PolynomialDegenerate,
    PowerPair,
    TwoExponentials,
)
from gentess.testfunctions import get_test_function

#: the README's T-mesh: one T-junction on [0, 2]^2
BASE_CELLS = [(0, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)]


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    gate_failures: list[str] = field(default_factory=list)
    verify_latencies: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> bool:
        if not ok:
            self.gate_failures.append(message)
        return ok


# -- convergence ------------------------------------------------------------------

CONV_LEVELS = 5
CONV_DIMS = [28, 76, 244, 868, 3268]
CONV_ORDER = (4, 4)
CONV_SMOOTHNESS = (1, 1)
CONV_POINTS = 2500  # a square number
#: last observed order must be near k + 1 = 4 (3.99 at the first measurement)
CONV_ORDER_SLACK = 0.25
#: each scattered error may exceed the grid-sampled sup error by this factor
CONV_POINT_SLACK = 1.05
#: the largest scattered error must reach this share of the sup error
CONV_POINT_FLOOR = 0.25


class Convergence:
    """``gentess convergence``: five levels of quasi-interpolation, then the
    finest one rebuilt and checked in L2 and at scattered points."""

    name = "convergence"

    def __init__(self, seed: int):
        self.base = tmesh.TMesh(BASE_CELLS)
        self.gen = TwoExponentials(1, -1)
        self.f = get_test_function("sin2s_plus_t")
        # one uniform point in each cell of a side x side grid: seeded and
        # scattered, with the share of points per mesh cell fixed, so the
        # latency quantiles of the linear cell scan hardly move with the seed
        rng = np.random.default_rng([seed, 1])
        x0, x1, y0, y1 = (float(v) for v in self.base.domain_bounds)
        side = math.isqrt(CONV_POINTS)
        gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        self.xs = x0 + (x1 - x0) * (gx.ravel() + rng.uniform(size=side * side)) / side
        self.ys = y0 + (y1 - y0) * (gy.ravel() + rng.uniform(size=side * side)) / side

    def run_pass(self) -> PassResult:
        res = PassResult()
        bernstein.clear_basis_cache()
        # the report carries no dimensions: record them at the constructor
        # name convergence_study looks up
        dims: list[int] = []
        build_space = approx.GSplineSpace

        def recording_space(*args, **kwargs):
            space = build_space(*args, **kwargs)
            dims.append(space.dim)
            return space

        n1, n2 = CONV_ORDER
        res.attempted += 1
        approx.GSplineSpace = recording_space
        try:
            report = approx.convergence_study(self.base, self.gen, n1, self.gen, n2,
                                              CONV_SMOOTHNESS, self.f,
                                              levels=CONV_LEVELS, norm="sup")
        except GentessError as exc:
            res.failed += 1
            res.gate(False, f"convergence_study raised {exc!r}")
            return res
        finally:
            approx.GSplineSpace = build_space
        order = report.orders[-1]
        sup = report.errors[-1]
        res.info.update(dims=dims, last_order=order, sup_error=sup)
        dims_ok = res.gate(dims == CONV_DIMS, f"dimensions {dims} != {CONV_DIMS}")
        if not (res.gate(abs(order - (report.k + 1)) <= CONV_ORDER_SLACK,
                         f"last order {order:.3f} not near {report.k + 1}") and dims_ok):
            res.failed += 1

        res.attempted += 2
        try:
            mesh = self.base
            for _ in range(CONV_LEVELS - 1):
                mesh = tmesh.refine(mesh)
            space = gspace.GSplineSpace(mesh, self.gen, n1, self.gen, n2,
                                        CONV_SMOOTHNESS)
            coeffs = approx.quasi_interpolant(space, self.f)
            l2 = approx.l2_error(space, coeffs, self.f)
        except GentessError as exc:
            res.failed += 2
            res.gate(False, f"finest quasi-interpolant raised {exc!r}")
            return res
        if not res.gate(space.dim == CONV_DIMS[-1], f"rebuilt dimension {space.dim}"):
            res.failed += 1
        x0, x1, y0, y1 = (float(v) for v in mesh.domain_bounds)
        area = (x1 - x0) * (y1 - y0)
        res.info["l2_error"] = l2
        if not res.gate(0 < l2 <= sup * math.sqrt(area),
                        f"l2 error {l2:.3e} inconsistent with sup error {sup:.3e}"):
            res.failed += 1

        target = self.f(self.xs, self.ys)
        clock = time.perf_counter
        worst = 0.0
        bad_points = 0
        for x, y, want in zip(self.xs.tolist(), self.ys.tolist(), target.tolist()):
            res.attempted += 1
            t0 = clock()
            try:
                err = abs(gspace.eval_spline(space, coeffs, x, y) - want)
            except GentessError:
                err = math.inf
            res.verify_latencies.append(clock() - t0)
            worst = max(worst, err)
            if not err <= CONV_POINT_SLACK * sup:
                bad_points += 1
        res.failed += bad_points
        res.info["point_error_max"] = worst
        res.gate(bad_points == 0, f"{bad_points} scattered errors exceed the sup error")
        res.gate(worst >= CONV_POINT_FLOOR * sup,
                 f"scattered error max {worst:.3e} far below sup error {sup:.3e}")
        return res


# -- space analysis ---------------------------------------------------------------

SA_DIM = 171
SA_ORDER = (6, 6)
SA_SMOOTHNESS = (2, 2)
SA_NORM_VECTORS = 50
SA_PROJECTIONS = 4
#: diam(cover)/diam(cell) of this space: 2.5 sqrt(2)
SA_K4 = 2.5 * math.sqrt(2)
#: projection deviation bound; about 5.5e-5 at n = 6 when first measured,
#: against about 1e-8 for the same space at n = 5
SA_PROJECTION_BOUND = 1e-3


class SpaceAnalysis:
    """One fixed space analysed many times: hundreds of completions of one
    propagation operator (support ratio, norm equivalence, projections)."""

    name = "space-analysis"

    def __init__(self, seed: int):
        mesh = tmesh.refine(tmesh.TMesh(BASE_CELLS))
        gen = ExpTrig(0.3, 1.2)
        n1, n2 = SA_ORDER
        self.space = gspace.GSplineSpace(mesh, gen, n1, gen, n2, SA_SMOOTHNESS)
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.vectors = rng.uniform(-1, 1, (SA_PROJECTIONS, self.space.dim))

    def run_pass(self) -> PassResult:
        res = PassResult()
        bernstein.clear_basis_cache()
        space = self.space
        res.gate(space.dim == SA_DIM, f"dimension {space.dim} != {SA_DIM}")

        res.attempted += 1
        try:
            k4 = approx.support_diameter_ratio(space)
            res.info["k4_hat"] = k4
            if not res.gate(abs(k4 - SA_K4) < 1e-9, f"k4_hat {k4} != {SA_K4}"):
                res.failed += 1
        except GentessError as exc:
            res.failed += 1
            res.gate(False, f"support_diameter_ratio raised {exc!r}")

        res.attempted += 1
        try:
            report = approx.norm_equivalence_check(space, SA_NORM_VECTORS, self.seed)
            res.info["norm_violations"] = report.violations
            clean = res.gate(report.violations == 0,
                             f"{report.violations} norm-equivalence violations")
            if not (res.gate(abs(report.k4_hat - SA_K4) < 1e-9,
                             f"norm check k4_hat {report.k4_hat}") and clean):
                res.failed += 1
        except GentessError as exc:
            res.failed += 1
            res.gate(False, f"norm_equivalence_check raised {exc!r}")

        clock = time.perf_counter
        deviations = []
        for values in self.vectors:
            res.attempted += 1
            t0 = clock()
            try:
                coeffs = gspace.complete_coefficients(space, values)
                oracle_f = approx.SplineOracle(space, coeffs)
                projected = approx.quasi_interpolant(space, oracle_f)
                dev = float(np.max(np.abs(gspace.extract_mds_values(space, projected)
                                          - values)))
            except GentessError:
                dev = math.inf
            res.verify_latencies.append(clock() - t0)
            deviations.append(dev)
            if not res.gate(dev < SA_PROJECTION_BOUND,
                            f"projection deviation {dev:.3e} over {SA_PROJECTION_BOUND}"):
                res.failed += 1
        res.info["projection_dev_max"] = max(deviations)
        return res


# -- verify mix ---------------------------------------------------------------------

VM_ORDERS = ((3, 0), (4, 1), (5, 1), (6, 2))
VM_FAMILIES = ("two_exponentials", "exp_times_linear", "exp_trig", "power_pair",
               "polynomial_degenerate")
#: target cell counts, evenly spaced in log(cells); each (family, order) pair
#: gets one task per count.  A mesh stops early when no cell can be cut.
VM_CELL_COUNTS = (5, 8, 12, 19, 30)
#: power pairs live on [1/4, 3/4]^2, away from the zeros of s^m and (1-s)^m;
#: every other family on [0, 1]^2
VM_DOMAIN = {"power_pair": (Fraction(1, 4), Fraction(3, 4))}
VM_DEFAULT_DOMAIN = (Fraction(0), Fraction(1))
#: smallest cell extent per family and order.  Shorter intervals make the
#: generators numerically dependent on the monomials at the default
#: tolerance; the rule depends on family and order only, never on a seed.
#: It also caps the cell count: at n = 6 a unit square holds at most 16.
VM_MIN_EXTENT = {"power_pair": {3: Fraction(1, 64), 4: Fraction(1, 64),
                                5: Fraction(1, 32), 6: Fraction(1, 16)}}
VM_DEFAULT_MIN_EXTENT = {3: Fraction(1, 16), 4: Fraction(1, 16), 5: Fraction(1, 8),
                         6: Fraction(1, 4)}
VM_TASKS = len(VM_FAMILIES) * len(VM_ORDERS) * len(VM_CELL_COUNTS)


def _rate(rng, lo: float, hi: float) -> float:
    """A rate of magnitude in [lo, hi] with a random sign, rounded to 3 digits."""
    return round(float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)), 3)


def draw_generator(rng, family: str, n: int):
    """A fresh generator; rates stay away from 0 and from each other."""
    if family == "two_exponentials":
        while True:
            l1, l2 = _rate(rng, 1.0, 3.0), _rate(rng, 1.0, 3.0)
            if abs(l1 - l2) >= 1.0:
                return TwoExponentials(l1, l2)
    if family == "exp_times_linear":
        return ExpTimesLinear(_rate(rng, 1.0, 3.0))
    if family == "exp_trig":
        # beta times the longest possible edge span (1) stays below pi
        return ExpTrig(_rate(rng, 0.5, 1.5), _rate(rng, 0.75, 1.5))
    if family == "power_pair":
        return PowerPair(int(rng.integers(n - 1, n + 2)), int(rng.integers(n - 1, n + 2)))
    return PolynomialDegenerate()


def guillotine_cells(rng, lo: Fraction, hi: Fraction, count: int,
                     min_extent: Fraction) -> list[tuple]:
    """Split [lo, hi]^2 by repeated binary cuts into up to ``count`` cells.

    Each cut halves a random one of the largest cells that can still be cut,
    in a random direction that keeps both halves at least ``min_extent``
    wide.  Cutting the largest cells first keeps the number of distinct
    intervals, and so the work per mesh, close to a function of ``count``.
    Recursive cuts always tile the square and give a regular, cycle-free
    T-mesh.
    """
    cells = [(lo, hi, lo, hi)]
    while len(cells) < count:
        cuts, areas = {}, {}
        for k, (x0, x1, y0, y1) in enumerate(cells):
            axes = [axis for axis, (a, b) in enumerate(((x0, x1), (y0, y1)))
                    if (b - a) / 2 >= min_extent]
            if axes:
                cuts[k] = axes
                areas[k] = (x1 - x0) * (y1 - y0)
        if not cuts:
            break
        biggest = max(areas.values())
        largest = [k for k, area in areas.items() if area == biggest]
        k = largest[int(rng.integers(len(largest)))]
        axis = cuts[k][int(rng.integers(len(cuts[k])))]
        x0, x1, y0, y1 = cells.pop(k)
        if axis == 0:
            mid = (x0 + x1) / 2
            cells += [(x0, mid, y0, y1), (mid, x1, y0, y1)]
        else:
            mid = (y0 + y1) / 2
            cells += [(x0, x1, y0, mid), (x0, x1, mid, y1)]
    return cells


@dataclass
class VerifyTask:
    cells: list[tuple]
    gen: object
    n: int
    r: int


def verify_tasks(seed: int) -> list[VerifyTask]:
    """One task per (family, order, cell count), in a seeded order."""
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for family in VM_FAMILIES:
        lo, hi = VM_DOMAIN.get(family, VM_DEFAULT_DOMAIN)
        min_extent = VM_MIN_EXTENT.get(family, VM_DEFAULT_MIN_EXTENT)
        for n, r in VM_ORDERS:
            for count in VM_CELL_COUNTS:
                cells = guillotine_cells(rng, lo, hi, count, min_extent[n])
                tasks.append(VerifyTask(cells, draw_generator(rng, family, n), n, r))
    order = rng.permutation(len(tasks))
    return [tasks[k] for k in order]


class VerifyMix:
    """``gentess verify`` on a stream of random meshes and generators, each
    certified with cold bases: formula = |MDS| = oracle nullity."""

    name = "verify-mix"

    def __init__(self, seed: int):
        self.tasks = verify_tasks(seed)

    def run_pass(self) -> PassResult:
        res = PassResult()
        clock = time.perf_counter
        errors: dict[str, int] = {}
        for task in self.tasks:
            res.attempted += 1
            t0 = clock()
            try:
                bernstein.clear_basis_cache()
                mesh = tmesh.TMesh(task.cells)
                tmesh.mesh_stats(mesh)
                space = gspace.GSplineSpace(mesh, task.gen, task.n, task.gen, task.n,
                                            (task.r, task.r))
                formula = gspace.dimension_formula(space)
                nullity = oracle.brute_force_dimension(space)
            except GentessError as exc:
                res.failed += 1
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                continue
            res.verify_latencies.append(clock() - t0)
            if not res.gate(formula == space.dim == nullity,
                            f"{task.gen!r} n={task.n}: formula {formula}, "
                            f"MDS {space.dim}, oracle {nullity}"):
                res.failed += 1
        res.info["errors"] = errors
        return res


WORKLOADS = {cls.name: cls for cls in (Convergence, SpaceAnalysis, VerifyMix)}
