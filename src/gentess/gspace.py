"""Generalized spline spaces over a T-mesh.

A space is a T-mesh plus one section-space family per coordinate direction and
a smoothness pair (r1, r2).  Elements are stored as B-coefficient nets: one
coefficient per lattice domain point of every cell, with the tensor
Bernstein-like basis of that cell.

The public surface follows the construction used throughout this package:

* a minimal determining set of domain points whose coefficients are free;
* vertex propagation (corner disks transfer between cells sharing a vertex by
  matching mixed derivatives; the system is triangular in the derivative
  orders with nonzero endpoint derivatives on the diagonal);
* edge propagation (near-edge slabs of every cell touching a composite edge
  follow from the endpoint disks and the free strip via two-point Hermite
  systems on the span of the edge);
* completion: starting from values on the minimal determining set, alternating
  vertex/edge passes determine every remaining coefficient.  Termination is
  guaranteed on cycle-free meshes and guarded by an iteration cap.  A (dim, K)
  assignment completes K splines in one pass: completion is linear and the
  slots a step fills never depend on the values, so every block read, write
  and solve acts on all K columns of the net (one array) at once.

Evaluation takes a point to its owning cell, the smallest-id closed cell that
contains it once each cell side is widened by 1e-12 * max(1, |lo|, |hi|) of
that cell, and evaluates the tensor basis of that cell there.  The owner is
looked up in a table over the mesh's float breakpoint grid, not found by a
scan over the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernstein import BernsteinBasis, basis_for
from .errors import GentessError, NumericalError, ValidationError
from .generators import GeneratorPair
from .tmesh import T_JUNCTION, CompositeEdge, Point, TMesh

_DIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class DomainPoint:
    """Lattice point (i, j) of one cell, with its exact location."""

    cell: int
    i: int
    j: int
    location: Point

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.cell, self.i, self.j)


@dataclass(frozen=True)
class MDSEntry:
    """A minimal-determining-set member with its provenance."""

    point: DomainPoint
    tag: str                       # "vertex" | "edge" | "cell"
    anchor: tuple                  # ("vertex", point) | ("edge", index) | ("cell", id)


class BCoefficientMap:
    """Mutable B-coefficient net over all cells, with known/unknown tracking.

    ``values`` has shape (cells, n1, n2), or (cells, n1, n2, K) for K splines
    completed together; ``known`` (cells, n1, n2) serves the whole batch.
    """

    def __init__(self, space: "GSplineSpace"):
        self.space = space
        shape = (len(space.mesh.cells), space.n1, space.n2)
        self.values = np.zeros(shape)
        self.known = np.zeros(shape, dtype=bool)

    def set(self, cell: int, i: int, j: int, value: float) -> None:
        self.values[cell, i, j] = value
        self.known[cell, i, j] = True

    def get(self, cell: int, i: int, j: int) -> float:
        if not self.known[cell, i, j]:
            raise GentessError(f"coefficient ({cell},{i},{j}) is not determined yet")
        return float(self.values[cell, i, j])

    def cell_array(self, cell: int) -> np.ndarray:
        """Coefficients of one cell, (n1, n2) or (n1, n2, K); it must be complete."""
        if not self.known[cell].all():
            raise GentessError(f"cell {cell} has undetermined coefficients")
        return self.values[cell]

    def block(self, cell: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Coefficients at rows x cols of one cell; all must be determined."""
        if not self.known[cell][rows[:, None], cols].all():
            raise GentessError(f"cell {cell}: coefficients at rows {rows.tolist()}, "
                               f"columns {cols.tolist()} are not determined yet")
        return self.values[cell][rows[:, None], cols]

    def fill_block(self, cell: int, rows: np.ndarray, cols: np.ndarray,
                   block: np.ndarray) -> None:
        """Write a solved block (len(rows) x len(cols) entries per spline, in
        any shape), skipping slots that are already determined."""
        a, b = np.nonzero(~self.known[cell][rows[:, None], cols])
        block = block.reshape((len(rows), len(cols)) + self.values.shape[3:])
        self.values[cell, rows[a], cols[b]] = block[a, b]
        self.known[cell, rows[a], cols[b]] = True


class GSplineSpace:
    """A T-mesh carrying tensor section spaces and a smoothness requirement."""

    def __init__(self, mesh: TMesh, gen_s: GeneratorPair, n1: int,
                 gen_t: GeneratorPair, n2: int, smoothness=(0, 0)):
        r1, r2 = smoothness
        for n, r, label in ((n1, r1, "s"), (n2, r2, "t")):
            if int(n) != n or n < 3:
                raise ValidationError(f"order n_{label} must be an integer >= 3")
            if int(r) != r or not 0 <= r < n - 1:
                raise ValidationError(
                    f"smoothness r_{label} must satisfy 0 <= r < n-1")
            if n - 1 < 2 * r + 1:
                raise ValidationError(
                    f"orders must satisfy n-1 >= 2r+1 in direction {label}")
        if not mesh.regular:
            raise ValidationError("spline spaces require a regular mesh")
        if mesh.has_cycles:
            raise ValidationError(
                f"spline spaces require a cycle-free mesh; found cycle "
                f"{mesh.cycle_witness}")
        self.mesh = mesh
        self.gen_s = gen_s
        self.gen_t = gen_t
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.r1 = int(r1)
        self.r2 = int(r2)

        # one basis per distinct interval; also pre-validates the section spaces
        self._validate_intervals()
        self.mds: list[MDSEntry] = _build_mds(self)
        self.dim = len(self.mds)
        formula = dimension_formula(self)
        if formula != self.dim:
            raise GentessError(
                f"internal inconsistency: determining set size {self.dim} "
                f"differs from dimension formula {formula}")

    # -- bases ---------------------------------------------------------------

    def basis_s(self, cell: int) -> BernsteinBasis:
        c = self.mesh.cells[cell]
        return basis_for(self.gen_s, self.n1, c.x0, c.x1)

    def basis_t(self, cell: int) -> BernsteinBasis:
        c = self.mesh.cells[cell]
        return basis_for(self.gen_t, self.n2, c.y0, c.y1)

    def basis_on(self, axis: int, lo: Fraction, hi: Fraction) -> BernsteinBasis:
        if axis == 0:
            return basis_for(self.gen_s, self.n1, lo, hi)
        return basis_for(self.gen_t, self.n2, lo, hi)

    def _validate_intervals(self) -> None:
        """Build (and thereby validate) bases for every cell interval and
        every composite-edge span before any propagation runs."""
        for cell in self.mesh.cells:
            for axis, (lo, hi) in ((0, (cell.x0, cell.x1)), (1, (cell.y0, cell.y1))):
                try:
                    basis = self.basis_on(axis, lo, hi)
                except GentessError as exc:
                    raise ValidationError(
                        f"cell {cell.index}, direction {'st'[axis]}: {exc}") from exc
                if not basis.space.wronskian_ok:
                    raise ValidationError(
                        f"cell {cell.index}, direction {'st'[axis]}: the section "
                        "space fails the interior nonsingularity requirement")
        for edge in self.mesh.composite_edges:
            try:
                self.basis_on(edge.axis, edge.lo, edge.hi)
            except GentessError as exc:
                raise ValidationError(
                    f"composite edge {edge.index} (span [{edge.lo}, {edge.hi}]): "
                    f"{exc}") from exc

    # -- lattice --------------------------------------------------------------

    def location(self, cell: int, i: int, j: int) -> Point:
        c = self.mesh.cells[cell]
        x = ((self.n1 - 1 - i) * c.x0 + i * c.x1) / (self.n1 - 1)
        y = ((self.n2 - 1 - j) * c.y0 + j * c.y1) / (self.n2 - 1)
        return (x, y)

    def domain_point(self, cell: int, i: int, j: int) -> DomainPoint:
        return DomainPoint(cell, i, j, self.location(cell, i, j))

    def empty_map(self) -> BCoefficientMap:
        return BCoefficientMap(self)

    # -- corner index helpers ----------------------------------------------------

    def corner_maps(self, cell: int, w: Point):
        """Index maps and endpoint-derivative tables of a cell corner.

        Returns (rows_s, Gs, rows_t, Gt): ``rows_s[l]`` is the actual i index at
        local disk offset l from the corner, and ``Gs[h, l]`` the h-th
        derivative of basis function rows_s[l] at the corner abscissa (lower
        triangular with nonzero diagonal).  Same for the t direction.
        """
        c = self.mesh.cells[cell]
        if w not in c.corners:
            raise ValidationError(f"{w} is not a corner of cell {cell}")
        at_left = w[0] == c.x0
        at_bottom = w[1] == c.y0
        rows_s, gs = _corner_table(self.basis_s(cell), at_left, self.r1)
        rows_t, gt = _corner_table(self.basis_t(cell), at_bottom, self.r2)
        return rows_s, gs, rows_t, gt


def _corner_table(basis: BernsteinBasis, at_low: bool, max_order: int):
    n = basis.n
    table = basis.endpoint_table("a" if at_low else "b")
    if at_low:
        rows = np.arange(max_order + 1)
    else:
        rows = n - 1 - np.arange(max_order + 1)
    g = table[: max_order + 1][:, rows]
    return rows, g


def _check_diag(g: np.ndarray, context: str) -> None:
    d = np.abs(np.diag(g))
    scale = max(np.max(np.abs(g)), 1e-300)
    if np.min(d) <= _DIAG_FLOOR * scale:
        raise NumericalError(
            f"triangular system diagonal is numerically zero ({context}); "
            "an endpoint-derivative property of the section space fails here")


# -- operations ------------------------------------------------------------------


def domain_points(space: GSplineSpace) -> list[DomainPoint]:
    """All lattice points of all cells; shared locations appear once per cell."""
    return [space.domain_point(c.index, i, j)
            for c in space.mesh.cells
            for i in range(space.n1) for j in range(space.n2)]


def dimension_terms(space: GSplineSpace) -> dict[str, int]:
    """The vertex, horizontal-edge, vertical-edge and cell terms of the
    dimension formula."""
    mesh = space.mesh
    n1, n2, r1, r2 = space.n1, space.n2, space.r1, space.r2
    jnt = len(mesh.vertices) - len(mesh.t_junctions)
    ehor = sum(1 for e in mesh.composite_edges if e.axis == 0)
    ever = len(mesh.composite_edges) - ehor
    return {
        "vertex_term": (r1 + 1) * (r2 + 1) * jnt,
        "hor_edge_term": (r2 + 1) * (n1 - 2 * r1 - 2) * ehor,
        "ver_edge_term": (r1 + 1) * (n2 - 2 * r2 - 2) * ever,
        "cell_term": (n1 - 2 * r1 - 2) * (n2 - 2 * r2 - 2) * len(mesh.cells),
    }


def dimension_formula(space: GSplineSpace) -> int:
    """Dimension by the vertex/edge/cell counting formula."""
    return sum(dimension_terms(space).values())


def _anchor_cell_for_vertex(space: GSplineSpace, w: Point) -> int:
    """Cell owning a longest cell side ending at w; ties broken by cell id."""
    best = None
    for cell_idx in space.mesh.cells_at_vertex[w]:
        c = space.mesh.cells[cell_idx]
        longest = max(c.x1 - c.x0, c.y1 - c.y0)
        if best is None or longest > best[0] or (longest == best[0]
                                                 and cell_idx < best[1]):
            best = (longest, cell_idx)
    if best is None:
        raise ValidationError(f"vertex {w} has no incident cell")
    return best[1]


def _edge_end_cells(space: GSplineSpace, edge: CompositeEdge) -> tuple[int, int]:
    """Adjacent cells whose side starts at the low end / ends at the high end."""
    axis = edge.axis
    lo_cell = hi_cell = None
    for cell_idx in space.mesh.cells_adjacent_to_edge(edge):
        c = space.mesh.cells[cell_idx]
        lo, hi = c.interval(axis)
        if lo == edge.lo and lo_cell is None:
            lo_cell = cell_idx
        if hi == edge.hi and hi_cell is None:
            hi_cell = cell_idx
    if lo_cell is None or hi_cell is None:
        raise GentessError(f"composite edge {edge.index} has no anchoring cells")
    return lo_cell, hi_cell


def _edge_strip_indices(space: GSplineSpace, edge: CompositeEdge, cell_idx: int):
    """(along_rows, across_cols) of the free strip of the anchor cell on edge.

    Along the edge the indices skip the endpoint disks; across they stay
    within the smoothness distance of the side lying on the edge.
    """
    c = space.mesh.cells[cell_idx]
    if edge.axis == 0:
        n_along, r_along = space.n1, space.r1
        n_across, r_across = space.n2, space.r2
        side_low = edge.coord == c.y0
    else:
        n_along, r_along = space.n2, space.r2
        n_across, r_across = space.n1, space.r1
        side_low = edge.coord == c.x0
    along = np.arange(r_along + 1, n_along - r_along - 1)
    if side_low:
        across = np.arange(r_across + 1)
    else:
        across = n_across - 1 - np.arange(r_across + 1)
    return along, across


def _build_mds(space: GSplineSpace) -> list[MDSEntry]:
    entries: list[MDSEntry] = []
    mesh = space.mesh
    n1, n2, r1, r2 = space.n1, space.n2, space.r1, space.r2

    space.vertex_anchor = {}
    for w in mesh.vertices:
        if mesh.vertex_tags[w] == T_JUNCTION:
            continue
        cell_idx = _anchor_cell_for_vertex(space, w)
        space.vertex_anchor[w] = cell_idx
        rows_s, _, rows_t, _ = space.corner_maps(cell_idx, w)
        for i in rows_s:
            for j in rows_t:
                entries.append(MDSEntry(space.domain_point(cell_idx, int(i), int(j)),
                                        "vertex", ("vertex", w)))

    space.edge_anchors = {}
    for edge in mesh.composite_edges:
        lo_cell, hi_cell = _edge_end_cells(space, edge)
        space.edge_anchors[edge.index] = (lo_cell, hi_cell)
        along, across = _edge_strip_indices(space, edge, lo_cell)
        for t in along:
            for u in across:
                i, j = (int(t), int(u)) if edge.axis == 0 else (int(u), int(t))
                entries.append(MDSEntry(space.domain_point(lo_cell, i, j),
                                        "edge", ("edge", edge.index)))

    for c in mesh.cells:
        for i in range(r1 + 1, n1 - r1 - 1):
            for j in range(r2 + 1, n2 - r2 - 1):
                entries.append(MDSEntry(space.domain_point(c.index, i, j),
                                        "cell", ("cell", c.index)))

    keys = [e.point.key for e in entries]
    if len(set(keys)) != len(keys):
        raise GentessError("determining-set pieces overlap; mesh assumptions violated")
    return entries


# -- propagation ---------------------------------------------------------------
# Batch axes fold into matrix columns, so each step is one product or solve.


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: maps X, flattened row-major, to a @ X @ b.T."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _vertex_derivatives(space: GSplineSpace, w: Point, cell: int,
                        coeffs: BCoefficientMap) -> np.ndarray:
    """Mixed derivatives D_s^h D_t^k at w, orders up to (r1, r2), from one cell.

    Rows are the orders (h, k) flattened row-major, one column per spline.
    Only the corner disk of the cell contributes at these orders, so the disk
    must be determined.
    """
    rows_s, gs, rows_t, gt = space.corner_maps(cell, w)
    block = coeffs.block(cell, rows_s, rows_t)
    return _kron(gs, gt) @ block.reshape(len(rows_s) * len(rows_t), -1)


def propagate_vertex(space: GSplineSpace, w: Point, source_cell: int,
                     coeffs: BCoefficientMap) -> None:
    """Determine the corner disks at w in every cell sharing w from one disk.

    Solves, per target cell, the triangular system matching all mixed
    derivatives up to (r1, r2) at w.
    """
    cells = space.mesh.cells_at_vertex.get(w)
    if not cells:
        raise ValidationError(f"{w} is not a vertex of the mesh")
    if source_cell not in cells:
        raise ValidationError(f"cell {source_cell} does not touch vertex {w}")
    target = _vertex_derivatives(space, w, source_cell, coeffs)
    for cell in cells:
        if cell == source_cell:
            continue
        rows_s, gs, rows_t, gt = space.corner_maps(cell, w)
        if coeffs.known[cell][rows_s[:, None], rows_t].all():
            continue
        _check_diag(gs, f"vertex {w}, cell {cell}, s direction")
        _check_diag(gt, f"vertex {w}, cell {cell}, t direction")
        coeffs.fill_block(cell, rows_s, rows_t,
                          np.linalg.solve(_kron(gs, gt), target))


def _solve_two_point(table_lo: np.ndarray, table_hi: np.ndarray,
                     rhs_lo: np.ndarray, rhs_hi: np.ndarray,
                     context: str) -> np.ndarray:
    """Univariate two-point Hermite solve in a Bernstein-like basis.

    table_lo[h, i] holds the h-th endpoint derivative of basis function i at
    the low end (zero for i > h), table_hi at the high end (zero for
    i < n-1-h).  Forward substitution from both ends meets in the middle.
    Row h of rhs_lo/rhs_hi holds the order-h data; trailing columns are
    solved together.
    """
    n = table_lo.shape[1]
    p = len(rhs_lo) - 1
    q = len(rhs_hi) - 1
    if p + q + 2 != n:
        raise GentessError(f"two-point system is not square ({context})")
    scale_lo = np.maximum(np.max(np.abs(table_lo), axis=1), 1e-300)
    scale_hi = np.maximum(np.max(np.abs(table_hi), axis=1), 1e-300)
    u = np.zeros((n,) + rhs_lo.shape[1:])
    for h in range(p + 1):
        diag = table_lo[h, h]
        if abs(diag) <= _DIAG_FLOOR * scale_lo[h]:
            raise NumericalError(f"two-point solve: zero diagonal at the low end, "
                                 f"order {h} ({context})")
        u[h] = (rhs_lo[h] - table_lo[h, :h] @ u[:h]) / diag
    for h in range(q + 1):
        idx = n - 1 - h
        diag = table_hi[h, idx]
        if abs(diag) <= _DIAG_FLOOR * scale_hi[h]:
            raise NumericalError(f"two-point solve: zero diagonal at the high end, "
                                 f"order {h} ({context})")
        u[idx] = (rhs_hi[h] - table_hi[h, idx + 1:] @ u[idx + 1:]) / diag
    return u


def _derivative_rows(basis: BernsteinBasis, x: float, orders: int) -> np.ndarray:
    """E[h, i] = h-th derivative of basis function i at x, h = 0..orders."""
    pt = np.array([x])
    return np.array([basis.eval_all_derivative(h, pt)[:, 0]
                     for h in range(orders + 1)])


def propagate_edge(space: GSplineSpace, edge: CompositeEdge,
                   coeffs: BCoefficientMap) -> None:
    """Determine every coefficient within smoothness distance of a composite edge.

    Needs the endpoint disks (in the anchoring cells) and the free strip of
    the edge.  Works on the span of the whole edge: a virtual rectangle per
    adjacent cell interpolates the endpoint derivative data, mid derivatives
    transfer to the cell ends, and a second Hermite solve fills the cell slab.
    """
    mesh = space.mesh
    axis = edge.axis
    lo_cell, hi_cell = space.edge_anchors[edge.index]
    if axis == 0:
        n_along, r_along = space.n1, space.r1
    else:
        n_along, r_along = space.n2, space.r2
    p = n_along - r_along - 2
    q = r_along

    w_lo, w_hi = edge.endpoints
    rhs_lo = _edge_point_derivatives(space, edge, lo_cell, w_lo, p, coeffs)
    rhs_hi = _edge_point_derivatives(space, edge, hi_cell, w_hi, q, coeffs)

    span_basis = space.basis_on(axis, edge.lo, edge.hi)
    span_lo = span_basis.endpoint_table("a")[: p + 1]
    span_hi = span_basis.endpoint_table("b")[: q + 1]

    for cell_idx in mesh.cells_adjacent_to_edge(edge):
        cell = mesh.cells[cell_idx]
        along_basis = space.basis_on(axis, *cell.interval(axis))
        gt, across_cols = _edge_across_table(space, edge, cell_idx)
        context = f"edge {edge.index}, cell {cell_idx}"

        # two-point Hermite along the span, then one triangular system across
        # per along index (gt broadcasts over the first axis)
        y = _solve_two_point(span_lo, span_hi, rhs_lo, rhs_hi, context + " (virtual)")
        _check_diag(gt, context + ", across direction")
        slab = np.linalg.solve(gt, y.reshape(n_along, len(gt), -1)).reshape(n_along, -1)
        c_lo, c_hi = cell.interval(axis)
        if (c_lo, c_hi) != (edge.lo, edge.hi):
            # each virtual column is an s-profile (one per across basis
            # function and spline); re-express the profiles in the cell's
            # along basis by matching endpoint derivatives at the cell ends
            e_lo = _derivative_rows(span_basis, float(c_lo), p)
            e_hi = _derivative_rows(span_basis, float(c_hi), q)
            slab = _solve_two_point(along_basis.endpoint_table("a")[: p + 1],
                                    along_basis.endpoint_table("b")[: q + 1],
                                    e_lo @ slab, e_hi @ slab, context)
        slab = slab.reshape(n_along, len(gt), -1)
        if axis == 0:
            coeffs.fill_block(cell_idx, np.arange(n_along), across_cols, slab)
        else:
            # vertical edge: slab rows are t indices, columns map to s indices
            coeffs.fill_block(cell_idx, across_cols, np.arange(n_along),
                              slab.swapaxes(0, 1))


def _edge_across_table(space: GSplineSpace, edge: CompositeEdge, cell_idx: int):
    """Across-direction corner table and actual indices for a cell on the edge."""
    cell = space.mesh.cells[cell_idx]
    if edge.axis == 0:
        basis = space.basis_t(cell_idx)
        at_low = edge.coord == cell.y0
        r = space.r2
    else:
        basis = space.basis_s(cell_idx)
        at_low = edge.coord == cell.x0
        r = space.r1
    cols, g = _corner_table(basis, at_low, r)
    return g, cols


def _edge_point_derivatives(space: GSplineSpace, edge: CompositeEdge,
                            cell_idx: int, w: Point, max_along: int,
                            coeffs: BCoefficientMap) -> np.ndarray:
    """D_along^i D_across^j at an edge endpoint, i <= max_along, j <= r_across.

    Rows are the along orders; the across orders and the splines of a batch
    fold into columns.  Computed from the anchoring cell; the triangular
    endpoint structure means only determined coefficients (endpoint disk
    plus free strip) enter.
    """
    cell = space.mesh.cells[cell_idx]
    if w not in cell.corners:
        raise GentessError(f"edge endpoint {w} is not a corner of cell {cell_idx}")
    if edge.axis == 0:
        along_basis = space.basis_s(cell_idx)
        at_low_along = w[0] == cell.x0
    else:
        along_basis = space.basis_t(cell_idx)
        at_low_along = w[1] == cell.y0
    rows_along, g_along = _corner_table(along_basis, at_low_along, max_along)
    gt, across_cols = _edge_across_table(space, edge, cell_idx)

    if edge.axis == 0:
        block = coeffs.block(cell_idx, rows_along, across_cols)
    else:
        block = coeffs.block(cell_idx, across_cols, rows_along).swapaxes(0, 1)
    derivs = _kron(g_along, gt) @ block.reshape(len(rows_along) * len(across_cols), -1)
    return derivs.reshape(len(rows_along), -1)


def complete_coefficients(space: GSplineSpace, assignment) -> BCoefficientMap:
    """Extend values on the minimal determining set to a full coefficient net.

    ``assignment`` is a mapping from (cell, i, j) keys to values, a (dim,)
    vector aligned with the determining-set order, or a (dim, K) array whose K
    columns are completed together in one pass (``values`` then gains a
    trailing axis of length K).  Vertex passes and edge passes alternate over
    a FIFO agenda until everything is determined; the iteration count is
    capped so a missed cycle surfaces as an error instead of a hang.
    """
    coeffs = space.empty_map()
    keys = [e.point.key for e in space.mds]
    if isinstance(assignment, dict):
        extra = set(assignment) - set(keys)
        missing = set(keys) - set(assignment)
        if extra or missing:
            raise ValidationError(
                f"assignment must cover exactly the determining set; "
                f"{len(missing)} missing, {len(extra)} extra")
        values = np.array([float(assignment[key]) for key in keys])
    else:
        values = np.asarray(assignment, dtype=float)
        if values.ndim not in (1, 2) or len(values) != len(keys) or values.size == 0:
            raise ValidationError(
                f"assignment must have shape ({len(keys)},) or ({len(keys)}, K) "
                f"with K >= 1, got {values.shape}")
    coeffs.values = np.zeros(coeffs.known.shape + values.shape[1:])
    index = tuple(np.array(keys).T)
    coeffs.values[index] = values
    coeffs.known[index] = True

    mesh = space.mesh
    determined_v: set[Point] = set()
    determined_e: set[int] = set()

    for w in mesh.vertices:
        if mesh.vertex_tags[w] != T_JUNCTION:
            propagate_vertex(space, w, space.vertex_anchor[w], coeffs)
            determined_v.add(w)

    limit = len(mesh.vertices) + len(mesh.composite_edges) + 2
    for _ in range(limit):
        progressed = False
        for edge in mesh.composite_edges:
            if edge.index in determined_e:
                continue
            w_lo, w_hi = edge.endpoints
            if w_lo in determined_v and w_hi in determined_v:
                propagate_edge(space, edge, coeffs)
                determined_e.add(edge.index)
                progressed = True
        for w in mesh.t_junctions:
            if w in determined_v:
                continue
            if space.mesh.host_edge[w] in determined_e:
                determined_v.add(w)
                progressed = True
        if len(determined_e) == len(mesh.composite_edges):
            break
        if not progressed:
            raise GentessError(
                "coefficient completion stalled; the mesh ordering assumptions "
                "do not hold (possible undetected cycle)")

    if not coeffs.known.all():
        raise GentessError("completion finished with undetermined coefficients")
    return coeffs


# -- evaluation -------------------------------------------------------------------


def _owning_cells(space: GSplineSpace, xs, ys) -> np.ndarray:
    """Owning cell of each point (xs[k], ys[k]): the smallest-id closed cell
    containing it, each cell widened by 1e-12 * max(1, |lo|, |hi|) per side.

    Raises ValidationError when a point lies outside the mesh domain.
    """
    cells = space.mesh._locator.locate(xs, ys)
    if np.any(cells < 0):
        k = int(np.argmax(cells < 0))
        x, y = np.ravel(xs)[k], np.ravel(ys)[k]
        raise ValidationError(f"point ({x}, {y}) lies outside the mesh domain")
    return cells


def _owning_cell(space: GSplineSpace, x: float, y: float) -> int:
    return int(_owning_cells(space, [x], [y])[0])


def _clip_to_cell(space: GSplineSpace, cell: int, x, y):
    c = space.mesh.cells[cell]
    return (np.clip(x, float(c.x0), float(c.x1)), np.clip(y, float(c.y0), float(c.y1)))


def eval_spline(space: GSplineSpace, coeffs: BCoefficientMap, x: float, y: float,
                cell: int | None = None) -> float:
    return eval_spline_derivative(space, coeffs, 0, 0, x, y, cell)


def eval_spline_derivative(space: GSplineSpace, coeffs: BCoefficientMap,
                           order_s: int, order_t: int, x: float, y: float,
                           cell: int | None = None) -> float:
    if cell is None:
        cell = _owning_cell(space, x, y)
    bx, by = _clip_to_cell(space, cell, x, y)
    vs = space.basis_s(cell).eval_all_derivative(order_s, np.array([bx]))[:, 0]
    vt = space.basis_t(cell).eval_all_derivative(order_t, np.array([by]))[:, 0]
    return float(vs @ coeffs.cell_array(cell) @ vt)


def _spline_derivative_table(space: GSplineSpace, coeffs: BCoefficientMap,
                             orders_s: int, orders_t: int,
                             x: float, y: float) -> np.ndarray:
    """T[h, k] = D_s^h D_t^k of the spline at (x, y), h <= orders_s,
    k <= orders_t: one cell location and one basis evaluation per order."""
    cell = _owning_cell(space, x, y)
    bx, by = _clip_to_cell(space, cell, x, y)
    ds = _derivative_rows(space.basis_s(cell), bx, orders_s)
    dt = _derivative_rows(space.basis_t(cell), by, orders_t)
    return ds @ coeffs.cell_array(cell) @ dt.T


def eval_spline_grid(space: GSplineSpace, coeffs: BCoefficientMap,
                     xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values on the tensor grid xs x ys, each node evaluated in its owning
    cell (see ``_owning_cells``).  Returns shape (len(xs), len(ys))."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    gx, gy = np.meshgrid(np.arange(xs.size), np.arange(ys.size), indexing="ij")
    owner = _owning_cells(space, xs[gx], ys[gy]).reshape(gx.shape)
    out = np.empty(owner.shape)
    for cell in np.unique(owner).tolist():
        # the nodes a cell owns lie in the tensor grid of their rows and columns
        mine = owner == cell
        ix = np.flatnonzero(mine.any(axis=1))
        iy = np.flatnonzero(mine.any(axis=0))
        bx, by = _clip_to_cell(space, cell, xs[ix], ys[iy])
        vals = (space.basis_s(cell).eval_all(bx).T @ coeffs.cell_array(cell)
                @ space.basis_t(cell).eval_all(by))
        out[mine] = vals[mine[np.ix_(ix, iy)]]
    return out


def function_bnet(space: GSplineSpace, cell: int, func) -> np.ndarray:
    """B-coefficients of a smooth function on one cell by collocation.

    func(x, y) must accept meshgrid arrays.  Used to express local
    interpolants in the cell's tensor basis.
    """
    from .util import cheb_points

    c = space.mesh.cells[cell]
    x0, x1, y0, y1 = c.as_floats()
    sx = cheb_points(space.n1, x0, x1)
    sy = cheb_points(space.n2, y0, y1)
    ms = space.basis_s(cell).eval_all(sx).T     # (n1 pts, n1 funcs)
    mt = space.basis_t(cell).eval_all(sy).T
    vals = np.asarray(func(sx[:, None], sy[None, :]), dtype=float)
    tmp = np.linalg.solve(ms, vals)
    return np.linalg.solve(mt, tmp.T).T


def dual_basis_net(space: GSplineSpace, index: int) -> BCoefficientMap:
    """Completion of the indicator assignment of one determining-set member."""
    if not 0 <= index < space.dim:
        raise ValidationError(f"basis index {index} outside 0..{space.dim - 1}")
    return complete_coefficients(space, np.arange(space.dim) == index)


def extract_mds_values(space: GSplineSpace, coeffs: BCoefficientMap) -> np.ndarray:
    """Read the determining-set values, (dim,) or (dim, K), out of a net."""
    index = tuple(np.array([e.point.key for e in space.mds]).T)
    if not coeffs.known[index].all():
        raise GentessError("determining-set coefficients are not all determined")
    return coeffs.values[index]
