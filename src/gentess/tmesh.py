"""T-meshes: axis-aligned rectangle collections with hanging vertices.

All combinatorial predicates run on exact rational coordinates, so vertex
incidence never depends on floating-point coincidence; conversion to floats
happens only when analysis modules need it.  The mesh document lists cells
only; vertices, edge segments, composite edges, vertex classification,
regularity and cycle status are all derived here eagerly at load time, after
which the mesh is immutable and safe for concurrent reads.

Vocabulary: a vertex is any cell corner.  A cell corner lying strictly inside
another cell's side is a T-junction.  An edge segment joins two vertices that
are consecutive on a covered grid line; a composite edge is a maximal run of
collinear segments whose interior vertices are all T-junctions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ValidationError
from .generators import GeneratorPair, generator_from_json

Point = tuple[Fraction, Fraction]

T_JUNCTION = "t_junction"
CROSSING = "crossing"
BOUNDARY = "boundary"


def to_fraction(value) -> Fraction:
    """Exact coordinate parsing: ints and decimal/ratio strings stay exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"coordinate {value!r} is not a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse coordinate {value!r}") from exc
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))
    raise ValidationError(f"cannot parse coordinate {value!r}")


@dataclass(frozen=True)
class Cell:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    index: int
    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    @property
    def corners(self) -> tuple[Point, ...]:
        return ((self.x0, self.y0), (self.x1, self.y0),
                (self.x1, self.y1), (self.x0, self.y1))

    def contains(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        return (self.x0, self.x1) if axis == 0 else (self.y0, self.y1)

    @property
    def diameter(self) -> float:
        return float((self.x1 - self.x0) ** 2 + (self.y1 - self.y0) ** 2) ** 0.5

    def as_floats(self) -> tuple[float, float, float, float]:
        return (float(self.x0), float(self.x1), float(self.y0), float(self.y1))


@dataclass(frozen=True)
class EdgeSegment:
    """A vertex-free piece of a covered grid line.

    axis 0 means the segment varies in x (horizontal, fixed y = coord);
    axis 1 varies in y (vertical, fixed x = coord).  ``neg_cell``/``pos_cell``
    are the adjacent cells on the smaller/larger side of the fixed coordinate.
    """

    axis: int
    coord: Fraction
    lo: Fraction
    hi: Fraction
    neg_cell: int | None
    pos_cell: int | None

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_interior(self) -> bool:
        return self.neg_cell is not None and self.pos_cell is not None


@dataclass(frozen=True)
class CompositeEdge:
    """Maximal run of collinear edge segments with only T-junctions inside."""

    index: int
    axis: int
    coord: Fraction
    lo: Fraction
    hi: Fraction
    segments: tuple[int, ...]
    interior_vertices: tuple[Point, ...]

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def endpoints(self) -> tuple[Point, Point]:
        if self.axis == 0:
            return ((self.lo, self.coord), (self.hi, self.coord))
        return ((self.coord, self.lo), (self.coord, self.hi))


@dataclass(frozen=True)
class MeshStats:
    """Counts and shape statistics of a regular, cycle-free mesh."""

    cells: int
    non_t_vertices: int
    t_junctions: int
    hor_edges: int
    ver_edges: int
    #: largest ratio of a composite edge to its first or last segment
    max_edge_segment_ratio: float
    #: length of the longest chain of composite edges hanging into another
    max_chain_length: int
    #: largest cell aspect ratio
    max_aspect_ratio: float


class TMesh:
    """Immutable T-mesh with eagerly derived combinatorial structure."""

    def __init__(self, cells):
        parsed = []
        for idx, spec in enumerate(cells):
            if len(spec) != 4:
                raise ValidationError(f"cell {idx}: expected [x0, x1, y0, y1]")
            x0, x1, y0, y1 = (to_fraction(v) for v in spec)
            if not (x0 < x1 and y0 < y1):
                raise ValidationError(f"cell {idx} has empty or inverted extent")
            parsed.append(Cell(idx, x0, x1, y0, y1))
        if not parsed:
            raise ValidationError("mesh has no cells")
        self.cells: list[Cell] = parsed
        self._validate_disjoint()

        self.vertices: list[Point] = sorted({c for cell in self.cells
                                             for c in cell.corners})
        self.cells_at_vertex: dict[Point, list[int]] = {v: [] for v in self.vertices}
        for cell in self.cells:
            for c in cell.corners:
                self.cells_at_vertex[c].append(cell.index)

        self._collect_lines()
        self._classify_vertices()
        self._build_edges()
        self._validate_connected()
        self._detect_cycles()

    # -- validation ----------------------------------------------------------

    def _validate_disjoint(self):
        # sweep over cells ordered by left edge; only x-overlapping pairs are
        # compared, which keeps grid-like meshes near linear
        order = sorted(self.cells, key=lambda c: (c.x0, c.y0))
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                if b.x0 >= a.x1:
                    break
                if max(a.y0, b.y0) < min(a.y1, b.y1):
                    lo, hi = sorted((a.index, b.index))
                    raise ValidationError(
                        f"cells {lo} and {hi} have overlapping interiors")

    def _validate_connected(self):
        # cells touch either along an edge segment or at a shared corner
        n = len(self.cells)
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for seg in self.edge_segments:
            if seg.is_interior:
                adjacency[seg.neg_cell].add(seg.pos_cell)
                adjacency[seg.pos_cell].add(seg.neg_cell)
        for cells in self.cells_at_vertex.values():
            for a in cells:
                for b in cells:
                    if a != b:
                        adjacency[a].add(b)
        seen = {0}
        stack = [0]
        while stack:
            for b in adjacency[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise ValidationError(f"mesh domain is disconnected; cells {missing} "
                                  "are separated from cell 0")

    # -- vertex classification -------------------------------------------------

    def _collect_lines(self):
        """Cell sides grouped by their carrying line.

        Keyed by (axis, fixed coordinate) where axis 0 varies in x; each entry
        is (lo, hi, cell index, cell on the positive side of the line).
        """
        lines: dict[tuple[int, Fraction], list] = {}
        for cell in self.cells:
            lines.setdefault((1, cell.x0), []).append((cell.y0, cell.y1, cell.index, True))
            lines.setdefault((1, cell.x1), []).append((cell.y0, cell.y1, cell.index, False))
            lines.setdefault((0, cell.y0), []).append((cell.x0, cell.x1, cell.index, True))
            lines.setdefault((0, cell.y1), []).append((cell.x0, cell.x1, cell.index, False))
        self._lines = lines

    def _classify_vertices(self):
        from bisect import bisect_left, bisect_right

        on_line: dict[tuple[int, Fraction], list[Fraction]] = {}
        for x, y in self.vertices:
            on_line.setdefault((1, x), []).append(y)
            on_line.setdefault((0, y), []).append(x)
        for marks in on_line.values():
            marks.sort()
        self._marks_on_line = on_line

        # vertices strictly inside a cell side are T-junctions; remember the
        # hosting cells, they cover quadrants without owning the corner
        side_hosts: dict[Point, list[int]] = {}
        for (axis, coord), sides in self._lines.items():
            marks = on_line.get((axis, coord), [])
            for lo, hi, cell_idx, _ in sides:
                for k in range(bisect_right(marks, lo), bisect_left(marks, hi)):
                    t = marks[k]
                    v = (t, coord) if axis == 0 else (coord, t)
                    side_hosts.setdefault(v, []).append(cell_idx)

        self.vertex_tags: dict[Point, str] = {}
        self._regular_at: dict[Point, bool] = {}
        for v in self.vertices:
            touching = set(self.cells_at_vertex[v]) | set(side_hosts.get(v, ()))
            quads = self._covered_quadrants(v, touching)
            self._regular_at[v] = _contiguous(quads)
            if v in side_hosts:
                self.vertex_tags[v] = T_JUNCTION
            elif len(quads) == 4:
                self.vertex_tags[v] = CROSSING
            else:
                self.vertex_tags[v] = BOUNDARY
        self.t_junctions: list[Point] = [v for v in self.vertices
                                         if self.vertex_tags[v] == T_JUNCTION]
        self.regular = all(self._regular_at.values())

    def _covered_quadrants(self, v: Point, touching) -> set[int]:
        """Quadrants around v (0=NE, 1=NW, 2=SW, 3=SE) covered by the cells
        touching v (corner owners plus side hosts; interior containment would
        mean overlapping cells and is rejected earlier)."""
        x, y = v
        quads: set[int] = set()
        for cell_idx in touching:
            cell = self.cells[cell_idx]
            east = cell.x0 <= x < cell.x1
            west = cell.x0 < x <= cell.x1
            north = cell.y0 <= y < cell.y1
            south = cell.y0 < y <= cell.y1
            if east and north:
                quads.add(0)
            if west and north:
                quads.add(1)
            if west and south:
                quads.add(2)
            if east and south:
                quads.add(3)
        return quads

    # -- edge structure ---------------------------------------------------------

    def _build_edges(self):
        self.edge_segments: list[EdgeSegment] = []
        self.composite_edges: list[CompositeEdge] = []
        self.host_edge: dict[Point, int] = {}

        for (axis, coord) in sorted(self._lines):
            sides = self._lines[(axis, coord)]
            covered = _merge_intervals([(lo, hi) for lo, hi, _, _ in sides])
            verts_on_line = self._marks_on_line.get((axis, coord), [])
            for lo, hi in covered:
                marks = [t for t in verts_on_line if lo <= t <= hi]
                for t0, t1 in zip(marks[:-1], marks[1:]):
                    neg = pos = None
                    for slo, shi, cell_idx, positive in sides:
                        if slo <= t0 and t1 <= shi:
                            if positive:
                                pos = cell_idx if pos is None else min(pos, cell_idx)
                            else:
                                neg = cell_idx if neg is None else min(neg, cell_idx)
                    self.edge_segments.append(
                        EdgeSegment(axis, coord, t0, t1, neg, pos))
                self._split_composite(axis, coord, marks,
                                      len(self.edge_segments) - (len(marks) - 1))

    def _split_composite(self, axis, coord, marks, first_segment):
        """Cut the vertex chain of one covered interval at non-T-junction vertices."""
        def pt(t):
            return (t, coord) if axis == 0 else (coord, t)

        start = 0
        for pos in range(1, len(marks)):
            t = marks[pos]
            last = pos == len(marks) - 1
            if last or self.vertex_tags[pt(t)] != T_JUNCTION:
                interior = tuple(pt(marks[m]) for m in range(start + 1, pos))
                edge = CompositeEdge(
                    index=len(self.composite_edges),
                    axis=axis, coord=coord,
                    lo=marks[start], hi=marks[pos],
                    segments=tuple(range(first_segment + start, first_segment + pos)),
                    interior_vertices=interior)
                self.composite_edges.append(edge)
                for w in interior:
                    self.host_edge[w] = edge.index
                start = pos

    # -- cycles -------------------------------------------------------------------

    def _detect_cycles(self):
        succ: dict[Point, list[Point]] = {}
        for w in self.t_junctions:
            edge = self.composite_edges[self.host_edge[w]]
            succ[w] = [p for p in edge.endpoints
                       if self.vertex_tags.get(p) == T_JUNCTION]

        color: dict[Point, int] = {}
        stack_trace: list[Point] = []
        witness: list[Point] | None = None

        def visit(w: Point) -> bool:
            nonlocal witness
            color[w] = 1
            stack_trace.append(w)
            for nxt in succ.get(w, ()):
                state = color.get(nxt, 0)
                if state == 1:
                    witness = stack_trace[stack_trace.index(nxt):].copy()
                    return True
                if state == 0 and visit(nxt):
                    return True
            stack_trace.pop()
            color[w] = 2
            return False

        for w in self.t_junctions:
            if color.get(w, 0) == 0 and visit(w):
                break
        self.has_cycles = witness is not None
        self.cycle_witness: list[Point] | None = witness

    # -- queries --------------------------------------------------------------------

    def cells_containing(self, p: Point) -> list[int]:
        return [c.index for c in self.cells if c.contains(p)]

    def cells_adjacent_to_edge(self, edge: CompositeEdge) -> list[int]:
        """Cells with a full side lying on the composite edge, in id order."""
        found: set[int] = set()
        for seg_idx in edge.segments:
            seg = self.edge_segments[seg_idx]
            for c in (seg.neg_cell, seg.pos_cell):
                if c is not None:
                    found.add(c)
        return sorted(found)

    @property
    def domain_bounds(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (min(c.x0 for c in self.cells), max(c.x1 for c in self.cells),
                min(c.y0 for c in self.cells), max(c.y1 for c in self.cells))

    def max_diameter(self) -> float:
        return max(c.diameter for c in self.cells)

    def to_cells_json(self) -> list[list[str]]:
        return [[str(c.x0), str(c.x1), str(c.y0), str(c.y1)] for c in self.cells]


def _merge_intervals(intervals):
    """Union of closed intervals as maximal components (touching ones merge)."""
    merged: list[list[Fraction]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _contiguous(quads: set[int]) -> bool:
    if len(quads) != 2:
        return True
    a, b = sorted(quads)
    return (b - a) % 4 in (1, 3)


def mesh_stats(mesh: TMesh) -> MeshStats:
    """Counts and shape statistics; requires a regular, cycle-free mesh."""
    if not mesh.regular:
        raise ValidationError("mesh statistics require a regular mesh")
    if mesh.has_cycles:
        raise ValidationError("mesh statistics require a cycle-free mesh")

    alpha = 1.0
    for edge in mesh.composite_edges:
        first = mesh.edge_segments[edge.segments[0]].length
        last = mesh.edge_segments[edge.segments[-1]].length
        alpha = max(alpha, float(edge.length / first), float(edge.length / last))

    chain_len: dict[int, int] = {}

    def chain(edge_idx: int) -> int:
        if edge_idx in chain_len:
            return chain_len[edge_idx]
        best = 0
        edge = mesh.composite_edges[edge_idx]
        for w in edge.interior_vertices:
            # composite edges with an endpoint hanging at w chain into this one
            for other in mesh.composite_edges:
                if other.index != edge_idx and w in other.endpoints:
                    best = max(best, 1 + chain(other.index))
        chain_len[edge_idx] = best
        return best

    beta = max((chain(e.index) for e in mesh.composite_edges), default=0)
    kappa = max(float(max(c.x1 - c.x0, c.y1 - c.y0)
                      / min(c.x1 - c.x0, c.y1 - c.y0)) for c in mesh.cells)
    hor = sum(1 for e in mesh.composite_edges if e.axis == 0)
    ver = len(mesh.composite_edges) - hor
    return MeshStats(cells=len(mesh.cells),
                     non_t_vertices=len(mesh.vertices) - len(mesh.t_junctions),
                     t_junctions=len(mesh.t_junctions),
                     hor_edges=hor, ver_edges=ver,
                     max_edge_segment_ratio=alpha,
                     max_chain_length=beta,
                     max_aspect_ratio=kappa)


def refine(mesh: TMesh) -> TMesh:
    """Split every cell into four at its exact midpoint; stays a valid T-mesh."""
    cells = []
    for c in mesh.cells:
        mx = (c.x0 + c.x1) / 2
        my = (c.y0 + c.y1) / 2
        cells.extend([(c.x0, mx, c.y0, my), (mx, c.x1, c.y0, my),
                      (c.x0, mx, my, c.y1), (mx, c.x1, my, c.y1)])
    return TMesh(cells)


def tensor_mesh(xs, ys) -> TMesh:
    """Tensor-product mesh from strictly increasing breakpoint sequences."""
    xs = [to_fraction(x) for x in xs]
    ys = [to_fraction(y) for y in ys]
    if len(xs) < 2 or len(ys) < 2:
        raise ValidationError("need at least two breakpoints per direction")
    cells = [(x0, x1, y0, y1)
             for y0, y1 in zip(ys[:-1], ys[1:])
             for x0, x1 in zip(xs[:-1], xs[1:])]
    return TMesh(cells)


# -- documents -----------------------------------------------------------------


@dataclass
class MeshDocument:
    """Parsed mesh file: cells plus optional section-space configuration."""

    mesh: TMesh
    section_s: tuple[GeneratorPair, int] | None = None
    section_t: tuple[GeneratorPair, int] | None = None
    smoothness: tuple[int, int] | None = None


def _is_integer(value) -> bool:
    """Integral JSON number; rejects booleans, strings and null."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _parse_section(obj) -> tuple[GeneratorPair, int]:
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValidationError("section entry must carry 'kind', 'params' and 'n'")
    n = obj["n"]
    if not _is_integer(n) or n < 3:
        raise ValidationError(f"section order must be an integer >= 3, got {n}")
    return generator_from_json(obj), int(n)


def load_document(source) -> MeshDocument:
    """Load a mesh document from a path, JSON string, or parsed dict."""
    if isinstance(source, (str, Path)):
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            path = Path(source)
            if not path.exists():
                raise ValidationError(f"mesh file not found: {path}")
            text = path.read_text()
        else:
            text = source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed mesh document: {exc}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise ValidationError("mesh document must be a path, JSON text, or dict")
    if not isinstance(data, dict) or "cells" not in data:
        raise ValidationError("mesh document must be an object with a 'cells' list")

    doc = MeshDocument(mesh=TMesh(data["cells"]))
    sections = data.get("sections")
    if sections is not None:
        if not isinstance(sections, dict) or set(sections) != {"s", "t"}:
            raise ValidationError("'sections' must carry exactly 's' and 't' entries")
        doc.section_s = _parse_section(sections["s"])
        doc.section_t = _parse_section(sections["t"])
    smooth = data.get("smoothness")
    if smooth is not None:
        if (not isinstance(smooth, (list, tuple)) or len(smooth) != 2
                or any(not _is_integer(r) or r < 0 for r in smooth)):
            raise ValidationError("'smoothness' must be a pair of nonnegative integers")
        doc.smoothness = (int(smooth[0]), int(smooth[1]))
    return doc


def load_mesh(source) -> TMesh:
    return load_document(source).mesh


def document_to_json(doc: MeshDocument) -> dict:
    data: dict = {"cells": doc.mesh.to_cells_json()}
    if doc.section_s and doc.section_t:
        data["sections"] = {
            "s": {**doc.section_s[0].to_json(), "n": doc.section_s[1]},
            "t": {**doc.section_t[0].to_json(), "n": doc.section_t[1]},
        }
    if doc.smoothness:
        data["smoothness"] = list(doc.smoothness)
    return data
