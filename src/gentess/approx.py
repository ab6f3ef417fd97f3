"""Local Hermite interpolation, quasi-interpolation, and convergence studies.

The local interpolant on a cell matches all mixed derivatives of the target
function up to bi-order (n1-1, n2-1) at an interior anchor.  Writing a tensor
section-space element in the shifted monomial-plus-generator form, a suitable
unknown ordering makes the matching system block upper triangular with an
identity block, two block-diagonal stacks of 2x2 systems, and one 4x4 block
for the pure generator products; it is solved by block back-substitution,
with a dense pivoted solver kept as a cross-check path.

The quasi-interpolant assigns each minimal-determining-set coefficient from
the local interpolant anchored in a cell containing that domain point, then
completes the net by smoothness propagation.  It is linear and reproduces
every member of the spline space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .gspace import (
    BCoefficientMap,
    GSplineSpace,
    _spline_derivative_table,
    complete_coefficients,
    function_bnet,
)
from .sectionspace import SectionSpace
from .tmesh import TMesh, refine

_DET_FLOOR = 1e-12
_SUP_GRID = 64
_GAUSS_GRID = 8


class HermiteSystem:
    """The derivative-matching system of one local interpolant.

    Unknowns are ordered [polynomial block, (s-poly x t-generator) pairs,
    (s-generator x t-poly) pairs, generator products]; rows follow the same
    grouping, which makes the matrix block upper triangular.
    """

    def __init__(self, space_s: SectionSpace, space_t: SectionSpace,
                 s0: float, t0: float, rhs: np.ndarray):
        self.space_s = space_s
        self.space_t = space_t
        self.n1 = space_s.n
        self.n2 = space_t.n
        self.s0 = float(s0)
        self.t0 = float(t0)
        if rhs.shape != (self.n1, self.n2):
            raise ValidationError(
                f"derivative table must have shape ({self.n1}, {self.n2})")
        self.rhs = np.asarray(rhs, dtype=float)
        self.su = np.array([float(space_s.u_deriv(i, s0)) for i in range(self.n1)])
        self.sv = np.array([float(space_s.v_deriv(i, s0)) for i in range(self.n1)])
        self.tu = np.array([float(space_t.u_deriv(j, t0)) for j in range(self.n2)])
        self.tv = np.array([float(space_t.v_deriv(j, t0)) for j in range(self.n2)])

    # -- blocks ----------------------------------------------------------------

    def gen_pair_s(self) -> np.ndarray:
        """2x2 matrix pairing the top two s-derivatives of (u1, v1) at the anchor."""
        n1 = self.n1
        return np.array([[self.su[n1 - 2], self.sv[n1 - 2]],
                         [self.su[n1 - 1], self.sv[n1 - 1]]])

    def gen_pair_t(self) -> np.ndarray:
        n2 = self.n2
        return np.array([[self.tu[n2 - 2], self.tv[n2 - 2]],
                         [self.tu[n2 - 1], self.tv[n2 - 1]]])

    def poly_gen_block(self) -> np.ndarray:
        """Block coupling the (s-polynomial x t-generator) coefficient pairs."""
        n1, n2 = self.n1, self.n2
        m = np.zeros((2 * (n1 - 2), 2 * (n1 - 2)))
        for i in range(n1 - 2):
            m[2 * i, i] = self.tu[n2 - 2]
            m[2 * i, (n1 - 2) + i] = self.tv[n2 - 2]
            m[2 * i + 1, i] = self.tu[n2 - 1]
            m[2 * i + 1, (n1 - 2) + i] = self.tv[n2 - 1]
        return m

    def gen_poly_block(self) -> np.ndarray:
        """Block coupling the (s-generator x t-polynomial) coefficient pairs."""
        n1, n2 = self.n1, self.n2
        m = np.zeros((2 * (n2 - 2), 2 * (n2 - 2)))
        for j in range(n2 - 2):
            m[2 * j, j] = self.su[n1 - 2]
            m[2 * j, (n2 - 2) + j] = self.sv[n1 - 2]
            m[2 * j + 1, j] = self.su[n1 - 1]
            m[2 * j + 1, (n2 - 2) + j] = self.sv[n1 - 1]
        return m

    def gen_gen_block(self) -> np.ndarray:
        """4x4 block on the generator-product coefficients."""
        n1, n2 = self.n1, self.n2
        rows = [(n1 - 2, n2 - 2), (n1 - 1, n2 - 2), (n1 - 2, n2 - 1), (n1 - 1, n2 - 1)]
        return np.array([[self.su[i] * self.tu[j], self.su[i] * self.tv[j],
                          self.sv[i] * self.tu[j], self.sv[i] * self.tv[j]]
                         for i, j in rows])

    def _row(self, i: int, j: int) -> np.ndarray:
        n1, n2 = self.n1, self.n2
        np1, np2 = n1 - 2, n2 - 2
        row = np.zeros(n1 * n2)
        off_b = np1 * np2
        off_c = off_b + np1
        off_d = off_c + np1
        off_e = off_d + np2
        off_nu = off_e + np2
        if i < np1 and j < np2:
            row[i * np2 + j] = 1.0
        if i < np1:
            row[off_b + i] = self.tu[j]
            row[off_c + i] = self.tv[j]
        if j < np2:
            row[off_d + j] = self.su[i]
            row[off_e + j] = self.sv[i]
        row[off_nu:off_nu + 4] = [self.su[i] * self.tu[j], self.su[i] * self.tv[j],
                                  self.sv[i] * self.tu[j], self.sv[i] * self.tv[j]]
        return row

    def row_order(self) -> list[tuple[int, int]]:
        n1, n2 = self.n1, self.n2
        order = [(i, j) for i in range(n1 - 2) for j in range(n2 - 2)]
        order += [(i, j) for i in range(n1 - 2) for j in (n2 - 2, n2 - 1)]
        order += [(i, j) for j in range(n2 - 2) for i in (n1 - 2, n1 - 1)]
        order += [(n1 - 2, n2 - 2), (n1 - 1, n2 - 2), (n1 - 2, n2 - 1), (n1 - 1, n2 - 1)]
        return order

    def full_matrix(self) -> np.ndarray:
        return np.array([self._row(i, j) for i, j in self.row_order()])

    def full_rhs(self) -> np.ndarray:
        return np.array([self.rhs[i, j] for i, j in self.row_order()])

    # -- solving ------------------------------------------------------------------

    def _check_pair(self, m: np.ndarray, label: str) -> None:
        scale = np.max(np.abs(m))
        if scale == 0 or abs(np.linalg.det(m)) < _DET_FLOOR * scale * scale:
            raise NumericalError(
                f"local interpolation block {label} is numerically singular "
                "at this anchor")

    def solve_blockwise(self) -> "HermiteInterpolant":
        n1, n2 = self.n1, self.n2
        f = self.rhs
        a3 = self.gen_gen_block()
        scale = np.max(np.abs(a3))
        if scale == 0 or abs(np.linalg.det(a3)) < _DET_FLOOR * scale ** 4:
            raise NumericalError(
                "generator-product block is numerically singular at this anchor")
        nu = np.linalg.solve(a3, np.array([f[n1 - 2, n2 - 2], f[n1 - 1, n2 - 2],
                                           f[n1 - 2, n2 - 1], f[n1 - 1, n2 - 1]]))

        d2 = self.gen_pair_t()
        self._check_pair(d2, "for the t-direction generator pair")
        b = np.zeros(n1 - 2)
        c = np.zeros(n1 - 2)
        for i in range(n1 - 2):
            rhs = np.array([f[i, n2 - 2] - self._nu_term(nu, i, n2 - 2),
                            f[i, n2 - 1] - self._nu_term(nu, i, n2 - 1)])
            b[i], c[i] = np.linalg.solve(d2, rhs)

        d1 = self.gen_pair_s()
        self._check_pair(d1, "for the s-direction generator pair")
        d = np.zeros(n2 - 2)
        e = np.zeros(n2 - 2)
        for j in range(n2 - 2):
            rhs = np.array([f[n1 - 2, j] - self._nu_term(nu, n1 - 2, j),
                            f[n1 - 1, j] - self._nu_term(nu, n1 - 1, j)])
            d[j], e[j] = np.linalg.solve(d1, rhs)

        a = np.zeros((n1 - 2, n2 - 2))
        for i in range(n1 - 2):
            for j in range(n2 - 2):
                a[i, j] = (f[i, j] - b[i] * self.tu[j] - c[i] * self.tv[j]
                           - d[j] * self.su[i] - e[j] * self.sv[i]
                           - self._nu_term(nu, i, j))
        return HermiteInterpolant(self.space_s, self.space_t, self.s0, self.t0,
                                  a, b, c, d, e, nu)

    def _nu_term(self, nu, i, j):
        return (nu[0] * self.su[i] * self.tu[j] + nu[1] * self.su[i] * self.tv[j]
                + nu[2] * self.sv[i] * self.tu[j] + nu[3] * self.sv[i] * self.tv[j])

    def solve_dense(self) -> "HermiteInterpolant":
        """Pivoted dense solve of the full system; cross-check path."""
        n1, n2 = self.n1, self.n2
        np1, np2 = n1 - 2, n2 - 2
        x = np.linalg.solve(self.full_matrix(), self.full_rhs())
        a = x[: np1 * np2].reshape(np1, np2)
        off = np1 * np2
        b = x[off: off + np1]
        c = x[off + np1: off + 2 * np1]
        off += 2 * np1
        d = x[off: off + np2]
        e = x[off + np2: off + 2 * np2]
        nu = x[off + 2 * np2:]
        return HermiteInterpolant(self.space_s, self.space_t, self.s0, self.t0,
                                  a, b, c, d, e, nu)


class HermiteInterpolant:
    """A tensor section-space element in shifted monomial-plus-generator form."""

    def __init__(self, space_s, space_t, s0, t0, a, b, c, d, e, nu):
        self.space_s = space_s
        self.space_t = space_t
        self.s0 = s0
        self.t0 = t0
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.e = np.asarray(e, dtype=float)
        self.nu = np.asarray(nu, dtype=float)

    def _pow(self, x, x0, power, order):
        if order > power:
            return np.zeros_like(x)
        # derivative of (x - x0)^power / power!
        return (x - x0) ** (power - order) / math.factorial(power - order)

    def deriv(self, order_s: int, order_t: int, s, t):
        """Mixed derivative at (s, t); s and t broadcast elementwise."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        n1, n2 = self.space_s.n, self.space_t.n
        ps = [self._pow(s, self.s0, i, order_s) for i in range(n1 - 2)]
        pt = [self._pow(t, self.t0, j, order_t) for j in range(n2 - 2)]
        u1 = np.asarray(self.space_s.u_deriv(order_s, s), dtype=float)
        v1 = np.asarray(self.space_s.v_deriv(order_s, s), dtype=float)
        u2 = np.asarray(self.space_t.u_deriv(order_t, t), dtype=float)
        v2 = np.asarray(self.space_t.v_deriv(order_t, t), dtype=float)
        total = (self.nu[0] * u1 * u2 + self.nu[1] * u1 * v2
                 + self.nu[2] * v1 * u2 + self.nu[3] * v1 * v2)
        for i in range(n1 - 2):
            inner = self.b[i] * u2 + self.c[i] * v2
            for j in range(n2 - 2):
                inner = inner + self.a[i, j] * pt[j]
            total = total + ps[i] * inner
        for j in range(n2 - 2):
            total = total + (self.d[j] * u1 + self.e[j] * v1) * pt[j]
        return total

    def __call__(self, s, t):
        return self.deriv(0, 0, s, t)


def derivative_table(f, n1: int, n2: int, s0: float, t0: float) -> np.ndarray:
    """All mixed derivatives of f at the anchor up to bi-order (n1-1, n2-1)."""
    table = np.empty((n1, n2))
    for i in range(n1):
        for j in range(n2):
            table[i, j] = float(f.deriv(i, j, s0, t0))
    return table


def hermite_local(space_s: SectionSpace, space_t: SectionSpace, f,
                  s0: float, t0: float) -> HermiteInterpolant:
    """Local interpolant matching all mixed derivatives of f at (s0, t0).

    The anchor must lie strictly inside the cell; both section spaces must
    pass their validity checks (independence plus both zero-pattern
    conditions), which guarantee the diagonal blocks are nonsingular.
    """
    for sp, x, label in ((space_s, s0, "s"), (space_t, t0, "t")):
        if not (sp.dim_ok and sp.haar_ok and sp.wronskian_ok):
            raise ValidationError(
                f"section space in direction {label} fails its validity checks")
        if not sp.a < x < sp.b:
            raise ValidationError(
                f"anchor coordinate {x} not strictly inside [{sp.a}, {sp.b}]")
    rhs = derivative_table(f, space_s.n, space_t.n, s0, t0)
    return HermiteSystem(space_s, space_t, s0, t0, rhs).solve_blockwise()


class UnivariateHermite:
    """One-dimensional analogue of the local interpolant, for smoke testing.

    Matches the first n derivatives of f at an interior anchor with an element
    of the section space written as shifted monomials plus the generators.
    """

    def __init__(self, space: SectionSpace, poly: np.ndarray, bu: float, bv: float,
                 s0: float):
        self.space = space
        self.poly = poly
        self.bu = bu
        self.bv = bv
        self.s0 = s0

    def deriv(self, order: int, s):
        s = np.asarray(s, dtype=float)
        total = (self.bu * np.asarray(self.space.u_deriv(order, s), dtype=float)
                 + self.bv * np.asarray(self.space.v_deriv(order, s), dtype=float))
        for i, a in enumerate(self.poly):
            if order <= i:
                total = total + a * (s - self.s0) ** (i - order) \
                    / math.factorial(i - order)
        return total

    def __call__(self, s):
        return self.deriv(0, s)


def hermite_local_univariate(space: SectionSpace, f_deriv, s0: float) -> UnivariateHermite:
    """Univariate interpolant matching derivatives 0..n-1 of f at s0.

    ``f_deriv(order, s)`` supplies exact derivatives.  The two top orders pin
    the generator coefficients through the same 2x2 pairing that appears in
    the tensor construction; the rest fall out directly.
    """
    if not (space.dim_ok and space.haar_ok and space.wronskian_ok):
        raise ValidationError("section space fails its validity checks")
    if not space.a < s0 < space.b:
        raise ValidationError(f"anchor {s0} not strictly inside the interval")
    n = space.n
    pair = np.array([[float(space.u_deriv(n - 2, s0)), float(space.v_deriv(n - 2, s0))],
                     [float(space.u_deriv(n - 1, s0)), float(space.v_deriv(n - 1, s0))]])
    scale = np.max(np.abs(pair))
    if scale == 0 or abs(np.linalg.det(pair)) < _DET_FLOOR * scale * scale:
        raise NumericalError("top-derivative pairing is singular at this anchor")
    rhs = np.array([float(f_deriv(n - 2, s0)), float(f_deriv(n - 1, s0))])
    bu, bv = np.linalg.solve(pair, rhs)
    poly = np.array([float(f_deriv(i, s0))
                     - bu * float(space.u_deriv(i, s0))
                     - bv * float(space.v_deriv(i, s0)) for i in range(n - 2)])
    return UnivariateHermite(space, poly, bu, bv, s0)


class SplineOracle:
    """Derivative oracle exposing a completed spline as a target function.

    The first ``deriv`` at an anchor locates its cell once and builds the
    whole table of mixed derivatives there, up to bi-order (n1-1, n2-1) or
    the order asked for if higher; later calls at that anchor read the table.
    Only the table of the latest anchor is kept.
    """

    def __init__(self, space: GSplineSpace, coeffs: BCoefficientMap):
        self.space = space
        self.coeffs = coeffs
        self._anchor = None
        self._table = np.empty((0, 0))

    def deriv(self, i, j, s, t):
        if i < 0 or j < 0:
            raise ValidationError("derivative order must be nonnegative")
        anchor = (float(s), float(t))
        rows, cols = self._table.shape
        if anchor != self._anchor or i >= rows or j >= cols:
            self._table = _spline_derivative_table(
                self.space, self.coeffs, max(i, self.space.n1 - 1),
                max(j, self.space.n2 - 1), *anchor)
            self._anchor = anchor
        return float(self._table[i, j])


def quasi_interpolant(space: GSplineSpace, f) -> BCoefficientMap:
    """Spline approximation of f: local interpolants feed the determining set.

    Each determining-set member is a lattice point of a specific cell; the
    member's coefficient is read off the local interpolant anchored at that
    cell's center, expressed in that cell's tensor basis.  Anchoring in the
    member's own cell keeps the extraction free of cross-cell extrapolation,
    so reproduction of space members is exact up to solver roundoff.
    """
    nets = {}
    for cell_idx in sorted({e.point.cell for e in space.mds}):
        c = space.mesh.cells[cell_idx]
        s0 = float((c.x0 + c.x1) / 2)
        t0 = float((c.y0 + c.y1) / 2)
        ql = hermite_local(space.basis_s(cell_idx).space,
                           space.basis_t(cell_idx).space, f, s0, t0)
        nets[cell_idx] = function_bnet(space, cell_idx, ql)
    values = np.array([nets[e.point.cell][e.point.i, e.point.j]
                       for e in space.mds])
    return complete_coefficients(space, values)


# -- error measurement ------------------------------------------------------------


def sup_error(space: GSplineSpace, coeffs: BCoefficientMap, f,
              per_cell: int = _SUP_GRID) -> float:
    """Max |f - spline| over a dense per-cell grid."""
    worst = 0.0
    for c in space.mesh.cells:
        x0, x1, y0, y1 = c.as_floats()
        xs = np.linspace(x0, x1, per_cell)
        ys = np.linspace(y0, y1, per_cell)
        bs = space.basis_s(c.index).eval_all(xs)
        bt = space.basis_t(c.index).eval_all(ys)
        vals = bs.T @ coeffs.cell_array(c.index) @ bt
        target = np.asarray(f.deriv(0, 0, xs[:, None], ys[None, :]), dtype=float)
        worst = max(worst, float(np.max(np.abs(vals - target))))
    return worst


def l2_error(space: GSplineSpace, coeffs: BCoefficientMap, f,
             per_cell: int = _GAUSS_GRID) -> float:
    """Discrete L2 error via tensor Gauss quadrature per cell."""
    nodes, weights = np.polynomial.legendre.leggauss(per_cell)
    total = 0.0
    for c in space.mesh.cells:
        x0, x1, y0, y1 = c.as_floats()
        xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * nodes
        ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * nodes
        wx = 0.5 * (x1 - x0) * weights
        wy = 0.5 * (y1 - y0) * weights
        bs = space.basis_s(c.index).eval_all(xs)
        bt = space.basis_t(c.index).eval_all(ys)
        vals = bs.T @ coeffs.cell_array(c.index) @ bt
        target = np.asarray(f.deriv(0, 0, xs[:, None], ys[None, :]), dtype=float)
        total += float(np.sum((vals - target) ** 2 * wx[:, None] * wy[None, :]))
    return math.sqrt(total)


@dataclass
class ConvergenceReport:
    """Errors and estimated orders across nested refinement levels."""

    k: int
    norm: str
    mesh_sizes: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)

    @property
    def orders(self) -> list[float]:
        out = []
        for (h0, e0), (h1, e1) in zip(zip(self.mesh_sizes, self.errors),
                                      zip(self.mesh_sizes[1:], self.errors[1:])):
            if e0 <= 0 or e1 <= 0:
                out.append(float("nan"))
            else:
                out.append(math.log(e0 / e1) / math.log(h0 / h1))
        return out

    def rows(self) -> list[dict]:
        orders = [float("nan")] + self.orders
        return [{"level": lvl, "H": h, "error": e, "order": o}
                for lvl, (h, e, o) in enumerate(zip(self.mesh_sizes, self.errors,
                                                    orders))]

    def to_json(self) -> dict:
        return {"k": self.k, "norm": self.norm, "expected_order": self.k + 1,
                "levels": self.rows()}


def convergence_study(base_mesh: TMesh, gen_s, n1: int, gen_t, n2: int,
                      smoothness, f, levels: int = 4,
                      norm: str = "sup") -> ConvergenceReport:
    """Quasi-interpolation errors over dyadic refinements of a base mesh."""
    if levels < 3:
        raise ValidationError("need at least three refinement levels")
    if norm not in ("sup", "l2"):
        raise ValidationError("norm must be 'sup' or 'l2'")
    report = ConvergenceReport(k=min(n1 - 1, n2 - 1), norm=norm)
    mesh = base_mesh
    for level in range(levels):
        if level:
            mesh = refine(mesh)
        space = GSplineSpace(mesh, gen_s, n1, gen_t, n2, smoothness)
        coeffs = quasi_interpolant(space, f)
        err = sup_error(space, coeffs, f) if norm == "sup" else l2_error(space, coeffs, f)
        report.mesh_sizes.append(space.mesh.max_diameter())
        report.errors.append(err)
    return report


# -- norm equivalence and support geometry ---------------------------------------


@dataclass
class NormEquivalenceReport:
    """Empirical constants relating coefficient and function norms."""

    #: max over cells of the collocation-inverse infinity norm
    k1: float
    #: violations of ||p|| <= ||c|| or ||c|| <= k1 ||p|| over random nets
    violations: int
    vectors_checked: int
    #: max ratio of any coefficient to the largest determining-set coefficient
    k3_hat: float
    k3_resample_max: float
    #: max over cells of diam(union of supports meeting the cell) / diam(cell)
    k4_hat: float


def _collocation_inverse_norm(space: GSplineSpace, cell: int) -> float:
    c = space.mesh.cells[cell]
    x0, x1, y0, y1 = c.as_floats()
    sx = np.linspace(x0, x1, space.n1)
    sy = np.linspace(y0, y1, space.n2)
    ms = space.basis_s(cell).eval_all(sx).T
    mt = space.basis_t(cell).eval_all(sy).T
    inv_s = np.linalg.inv(ms)
    inv_t = np.linalg.inv(mt)
    # infinity norm of a Kronecker product is the product of the norms
    return float(np.linalg.norm(inv_s, np.inf) * np.linalg.norm(inv_t, np.inf))


def norm_equivalence_check(space: GSplineSpace, vectors: int = 100,
                           seed: int = 0) -> NormEquivalenceReport:
    rng = np.random.default_rng(seed)
    k1 = max(_collocation_inverse_norm(space, c.index) for c in space.mesh.cells)

    cell0 = space.mesh.cells[0]
    x0, x1, y0, y1 = cell0.as_floats()
    sx = np.linspace(x0, x1, space.n1)
    sy = np.linspace(y0, y1, space.n2)
    grid_x = np.linspace(x0, x1, 40)
    grid_y = np.linspace(y0, y1, 40)
    bs_lat = space.basis_s(0).eval_all(sx)
    bt_lat = space.basis_t(0).eval_all(sy)
    bs = space.basis_s(0).eval_all(grid_x)
    bt = space.basis_t(0).eval_all(grid_y)
    violations = 0
    for _ in range(vectors):
        cmat = rng.uniform(-1, 1, (space.n1, space.n2))
        cnorm = np.max(np.abs(cmat))
        vals = bs.T @ cmat @ bt
        lattice = bs_lat.T @ cmat @ bt_lat
        pnorm = max(np.max(np.abs(vals)), np.max(np.abs(lattice)))
        if pnorm > cnorm * (1 + 1e-12):
            violations += 1
        if cnorm > k1 * np.max(np.abs(lattice)) * (1 + 1e-9):
            violations += 1

    def coeff_ratio(batch: int) -> float:
        # row k holds the determining-set values of spline k
        vals = rng.uniform(-1, 1, (batch, space.dim))
        nets = complete_coefficients(space, vals.T).values
        ratios = np.max(np.abs(nets), axis=(0, 1, 2)) / np.max(np.abs(vals), axis=1)
        return float(np.max(ratios))

    k3 = coeff_ratio(min(vectors, 50))
    k3_re = coeff_ratio(min(vectors, 50))

    k4 = support_diameter_ratio(space)
    return NormEquivalenceReport(k1=k1, violations=violations,
                                 vectors_checked=vectors, k3_hat=k3,
                                 k3_resample_max=k3_re, k4_hat=k4)


def support_diameter_ratio(space: GSplineSpace) -> float:
    """Max over cells of diam(union of overlapping basis supports) / diam(cell).

    All dim basis splines are completed in one batch, which holds
    cells * n1 * n2 * dim doubles at once.
    """
    nets = complete_coefficients(space, np.eye(space.dim)).values
    # support[c, k]: some B-coefficient of basis spline k on cell c exceeds 1e-12
    support = np.max(np.abs(nets), axis=(1, 2)) > 1e-12
    worst = 0.0
    for c in space.mesh.cells:
        in_cover = support[:, support[c.index]].any(axis=1)
        in_cover[c.index] = True
        cover = [space.mesh.cells[i] for i in np.flatnonzero(in_cover)]
        dx = max(d.x1 for d in cover) - min(d.x0 for d in cover)
        dy = max(d.y1 for d in cover) - min(d.y0 for d in cover)
        worst = max(worst, float(dx ** 2 + dy ** 2) ** 0.5 / c.diameter)
    return worst
