"""Property tests on randomly generated T-meshes.

Meshes come from recursive binary splits of a rectangle at rational
fractions, which always yields a valid tiling; regularity and cycle freedom
are checked and asserted rather than assumed.  Sizes stay at desk scale so
the brute-force rank oracle applies.
"""

from fractions import Fraction

import numpy as np
import pytest

from gentess import (
    GSplineSpace,
    TMesh,
    TwoExponentials,
    ValidationError,
    brute_force_dimension,
    complete_coefficients,
    dimension_formula,
    dual_basis_net,
    eval_spline,
    eval_spline_derivative,
    eval_spline_grid,
    extract_mds_values,
    refine,
)
from gentess.gspace import _owning_cell

from corpus import MESHES

HYPER = TwoExponentials(1, -1)
FRACTIONS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5)]


MIN_EXTENT = Fraction(1, 16)


def random_bsp_cells(rng, splits=8):
    """Recursively bisect the unit square at random rational fractions.

    Cells never shrink below MIN_EXTENT per direction: on intervals that are
    too small, fixed unit-rate generators become numerically dependent on the
    monomials and the section space is (correctly) rejected as degenerate.
    """
    cells = [(Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    for _ in range(splits):
        idx = int(rng.integers(len(cells)))
        x0, x1, y0, y1 = cells.pop(idx)
        frac = FRACTIONS[int(rng.integers(len(FRACTIONS)))]
        vertical = bool(rng.integers(2))
        for direction in (vertical, not vertical):
            lo, hi = (x0, x1) if direction else (y0, y1)
            width = hi - lo
            if min(frac, 1 - frac) * width >= MIN_EXTENT:
                mid = lo + frac * width
                if direction:
                    cells.extend([(x0, mid, y0, y1), (mid, x1, y0, y1)])
                else:
                    cells.extend([(x0, x1, y0, mid), (x0, x1, mid, y1)])
                break
        else:
            cells.append((x0, x1, y0, y1))  # too small to split either way
    return cells


@pytest.mark.parametrize("seed", range(12))
def test_dimension_triangle_on_random_meshes(seed):
    rng = np.random.default_rng(1000 + seed)
    mesh = TMesh(random_bsp_cells(rng, splits=int(rng.integers(4, 10))))
    assert mesh.regular and not mesh.has_cycles
    for n1, n2, r1, r2 in ((4, 4, 1, 1), (5, 4, 1, 1), (3, 3, 0, 0)):
        space = GSplineSpace(mesh, HYPER, n1, HYPER, n2, (r1, r2))
        assert dimension_formula(space) == space.dim == brute_force_dimension(space)


@pytest.mark.parametrize("seed", range(6))
def test_completion_smooth_on_random_meshes(seed):
    rng = np.random.default_rng(2000 + seed)
    mesh = TMesh(random_bsp_cells(rng, splits=int(rng.integers(5, 9))))
    space = GSplineSpace(mesh, HYPER, 4, HYPER, 4, (1, 1))
    vals = rng.uniform(-1, 1, space.dim)
    coeffs = complete_coefficients(space, vals)
    np.testing.assert_allclose(extract_mds_values(space, coeffs), vals, atol=0.0)
    for seg in mesh.edge_segments:
        if not seg.is_interior:
            continue
        mid = float(seg.lo + seg.hi) / 2
        for h in range(2):
            for k in range(2):
                if seg.axis == 1:
                    x, y = float(seg.coord), mid
                else:
                    x, y = mid, float(seg.coord)
                va = eval_spline_derivative(space, coeffs, h, k, x, y,
                                            cell=seg.neg_cell)
                vb = eval_spline_derivative(space, coeffs, h, k, x, y,
                                            cell=seg.pos_cell)
                assert abs(va - vb) < 1e-7 * max(1.0, abs(va), abs(vb))


@pytest.mark.parametrize("seed", range(4))
def test_dual_property_on_random_meshes(seed):
    rng = np.random.default_rng(3000 + seed)
    mesh = TMesh(random_bsp_cells(rng, splits=6))
    space = GSplineSpace(mesh, HYPER, 4, HYPER, 4, (1, 1))
    for index in rng.choice(space.dim, size=4, replace=False):
        net = dual_basis_net(space, int(index))
        extracted = extract_mds_values(space, net)
        expected = np.zeros(space.dim)
        expected[index] = 1.0
        np.testing.assert_allclose(extracted, expected, atol=1e-10)


# -- cell location -----------------------------------------------------------------

README_CELLS = [(0, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)]


def scan_owner(mesh, x, y):
    """The linear scan the lookup table replaced: the smallest-id cell whose
    closure, widened by 1e-12 * max(1, |lo|, |hi|) per side, holds the point."""
    for c in mesh.cells:
        x0, x1, y0, y1 = c.as_floats()
        sx = 1e-12 * max(1.0, abs(x0), abs(x1))
        sy = 1e-12 * max(1.0, abs(y0), abs(y1))
        if x0 - sx <= x <= x1 + sx and y0 - sy <= y <= y1 + sy:
            return c.index
    return None


def probe_points(mesh, rng):
    """Generic points, breakpoints (exact rationals as floats), their cross
    product (every corner), points just inside and beyond the slack at each
    breakpoint, and points well outside the bounding box."""
    x0, x1, y0, y1 = (float(v) for v in mesh.domain_bounds)
    bx = sorted({float(v) for c in mesh.cells for v in (c.x0, c.x1)})
    by = sorted({float(v) for c in mesh.cells for v in (c.y0, c.y1)})
    pts = list(zip(rng.uniform(x0, x1, 200), rng.uniform(y0, y1, 200)))
    pts += [(x, y) for x in bx for y in by]
    pts += [(x, float(y)) for x in bx for y in rng.uniform(y0, y1, 3)]
    pts += [(float(x), y) for y in by for x in rng.uniform(x0, x1, 3)]
    for d in (5e-13, -5e-13, 3e-12, -3e-12):
        pts += [(x + d, y) for x in bx for y in by[::2]]
        pts += [(x, y + d) for x in bx[::2] for y in by]
    pts += [(x0 - 0.5, y0), (x1 + 0.5, y1), (x0, y1 + 1.0), (float("nan"), y0)]
    return pts


def location_meshes():
    readme = TMesh(README_CELLS)
    meshes = {"readme": readme, "readme_refined": refine(refine(readme)),
              "hole": MESHES["hole"](), "l_domain": MESHES["l_domain"]()}
    for seed in range(6):
        rng = np.random.default_rng(4000 + seed)
        meshes[f"random_{seed}"] = TMesh(random_bsp_cells(rng, splits=9))
    return meshes


@pytest.mark.parametrize("name, mesh", location_meshes().items(), ids=str)
def test_cell_lookup_matches_linear_scan(name, mesh):
    rng = np.random.default_rng(5000)
    pts = probe_points(mesh, rng)
    want = [scan_owner(mesh, x, y) for x, y in pts]
    assert any(w is None for w in want) and any(w is not None for w in want)
    xs, ys = np.array(pts).T
    got = mesh._locator.locate(xs, ys)
    assert got.tolist() == [-1 if w is None else w for w in want]


def test_owning_cell_on_the_readme_mesh():
    space = GSplineSpace(refine(TMesh(README_CELLS)), HYPER, 4, HYPER, 4, (1, 1))
    coeffs = complete_coefficients(space, np.ones(space.dim))
    for x, y in probe_points(space.mesh, np.random.default_rng(5001)):
        want = scan_owner(space.mesh, x, y)
        if want is None:
            with pytest.raises(ValidationError):
                _owning_cell(space, x, y)
            with pytest.raises(ValidationError):
                eval_spline(space, coeffs, x, y)
        else:
            assert _owning_cell(space, x, y) == want


def test_grid_nodes_are_evaluated_in_their_owning_cells():
    space = GSplineSpace(refine(TMesh(README_CELLS)), HYPER, 4, HYPER, 4, (1, 1))
    coeffs = complete_coefficients(space, np.random.default_rng(5002).uniform(-1, 1, space.dim))
    xs = np.linspace(0, 2, 17)   # through every breakpoint
    ys = np.linspace(0, 2, 13)
    grid = eval_spline_grid(space, coeffs, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want = eval_spline(space, coeffs, x, y)
            assert abs(grid[i, j] - want) <= 1e-14 * max(1.0, abs(want))
