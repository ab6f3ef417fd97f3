from fractions import Fraction

import numpy as np
import pytest

from classical import bnet_to_poly2d, poly2d_eval, poly_bnet, random_poly2d
from gentess import (
    GSplineSpace,
    GentessError,
    PolynomialDegenerate,
    TMesh,
    TwoExponentials,
    ValidationError,
    complete_coefficients,
    dimension_formula,
    domain_points,
    dual_basis_net,
    eval_spline,
    eval_spline_derivative,
    eval_spline_grid,
    extract_mds_values,
    propagate_edge,
    propagate_vertex,
    tensor_mesh,
)

HYper = TwoExponentials(1, -1)


def poly_space(mesh, n=4, r=1):
    return GSplineSpace(mesh, PolynomialDegenerate(), n, PolynomialDegenerate(), n,
                        (r, r))


# -- domain points -------------------------------------------------------------


def test_domain_points_single_cell(meshes):
    space = poly_space(meshes["single_cell"], n=4, r=1)
    pts = domain_points(space)
    assert len(pts) == 16
    assert pts[0].location == (Fraction(0), Fraction(0))
    xs = sorted({p.location[0] for p in pts})
    assert xs == [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]


def test_domain_points_shared_locations(meshes):
    space = GSplineSpace(meshes["tensor_2x2"], HYper, 3, HYper, 3, (0, 0))
    pts = domain_points(space)
    assert len(pts) == 4 * 9
    locations = [p.location for p in pts]
    # lattice points on shared edges appear once per incident cell
    assert locations.count((Fraction(1), Fraction(1))) == 4


def test_lattice_corner_is_cell_corner(meshes):
    space = poly_space(meshes["single_t"])
    for c in space.mesh.cells:
        assert space.location(c.index, 0, 0) == (c.x0, c.y0)


# -- space validation -----------------------------------------------------------


def test_space_requires_valid_parameters(meshes):
    mesh = meshes["single_cell"]
    with pytest.raises(ValidationError):
        GSplineSpace(mesh, HYper, 4, HYper, 4, (2, 2))  # n-1 < 2r+1
    with pytest.raises(ValidationError):
        GSplineSpace(mesh, HYper, 4, HYper, 4, (3, 0))  # r >= n-1
    with pytest.raises(ValidationError):
        GSplineSpace(mesh, HYper, 2, HYper, 4, (0, 0))  # n < 3


def test_space_rejects_cycles_and_irregularity():
    from corpus import CYCLE_CELLS, NON_REGULAR_CELLS

    with pytest.raises(ValidationError):
        GSplineSpace(TMesh(CYCLE_CELLS), HYper, 4, HYper, 4, (1, 1))
    with pytest.raises(ValidationError):
        GSplineSpace(TMesh(NON_REGULAR_CELLS), HYper, 4, HYper, 4, (1, 1))


def test_space_rejects_invalid_section_interval(meshes):
    from gentess import ExpTrig

    # every cell is at most 2 wide (inside the half-period bound for unit
    # rate) but the fused middle edge of the brick mesh spans 4, which is not
    mesh = meshes["brick"]
    with pytest.raises(ValidationError, match="composite edge"):
        GSplineSpace(mesh, ExpTrig(0, 1), 4, ExpTrig(0, 1), 4, (1, 1))
    GSplineSpace(mesh, ExpTrig(0, 0.5), 4, ExpTrig(0, 0.5), 4, (1, 1))


# -- determining set -------------------------------------------------------------


def test_mds_single_cell_is_full_lattice(meshes):
    space = poly_space(meshes["single_cell"], n=4, r=1)
    assert space.dim == 16
    assert {e.point.key for e in space.mds} == {
        (0, i, j) for i in range(4) for j in range(4)}


def test_mds_tensor_grid_matches_tensor_spline_dimension(meshes):
    space = poly_space(meshes["tensor_2x2"], n=4, r=1)
    # C^1 bicubics on a 2x2 grid have tensor dimension (3 + 3)^2
    assert space.dim == 36
    assert dimension_formula(space) == 36


def test_mds_tags_partition(meshes):
    space = GSplineSpace(meshes["single_t"], HYper, 5, HYper, 5, (1, 1))
    tags = [e.tag for e in space.mds]
    assert tags.count("vertex") == 4 * 7
    assert tags.count("edge") == 2 * 9
    assert tags.count("cell") == 3
    assert len(space.mds) == dimension_formula(space)


# -- propagation ----------------------------------------------------------------


def test_vertex_propagation_r0_matches_corner_value(meshes):
    space = GSplineSpace(meshes["tensor_2x2"], HYper, 3, HYper, 3, (0, 0))
    coeffs = space.empty_map()
    w = (Fraction(1), Fraction(1))
    coeffs.set(0, 2, 2, 0.7)  # corner coefficient equals the function value
    propagate_vertex(space, w, 0, coeffs)
    for cell, i, j in [(1, 0, 2), (2, 2, 0), (3, 0, 0)]:
        assert coeffs.get(cell, i, j) == pytest.approx(0.7, abs=1e-12)


def test_vertex_propagation_zero_disk(meshes):
    space = poly_space(meshes["tensor_2x2"])
    coeffs = space.empty_map()
    w = (Fraction(1), Fraction(1))
    for i in (2, 3):
        for j in (2, 3):
            coeffs.set(0, i, j, 0.0)
    propagate_vertex(space, w, 0, coeffs)
    for cell in (1, 2, 3):
        rows_s, _, rows_t, _ = space.corner_maps(cell, w)
        block = [coeffs.get(cell, int(i), int(j))
                 for i in rows_s for j in rows_t]
        np.testing.assert_allclose(block, 0.0, atol=1e-15)


def test_vertex_propagation_classical_c1_relation(rng):
    # two cells of different widths sharing a vertical edge; propagated disk
    # coefficients must satisfy the classical continuity relations slice-wise
    mesh = TMesh([(0, 1, 0, 1), (1, 3, 0, 1)])
    space = poly_space(mesh, n=4, r=1)
    coeffs = space.empty_map()
    disk = rng.uniform(-1, 1, (2, 2))
    for a, i in enumerate((3, 2)):
        for b, j in enumerate((0, 1)):
            coeffs.set(0, i, j, disk[a, b])
    propagate_vertex(space, (Fraction(1), Fraction(0)), 0, coeffs)
    h_left, h_right = 1.0, 2.0
    for j in (0, 1):
        c0 = coeffs.get(1, 0, j)
        c1 = coeffs.get(1, 1, j)
        assert c0 == pytest.approx(coeffs.get(0, 3, j), abs=1e-12)
        expected = c0 + (h_right / h_left) * (coeffs.get(0, 3, j)
                                              - coeffs.get(0, 2, j))
        assert c1 == pytest.approx(expected, abs=1e-12)


def test_edge_propagation_spanning_cell_is_direct_hermite(rng):
    # when one cell spans the whole composite edge the virtual rectangle
    # coincides with the cell, so its slab must interpolate the endpoint data
    mesh = TMesh([(0, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)])
    space = poly_space(mesh, n=4, r=1)
    vals = rng.uniform(-1, 1, space.dim)
    coeffs = complete_coefficients(space, vals)
    edge = next(e for e in space.mesh.composite_edges
                if e.axis == 0 and e.coord == 1)
    fresh = space.empty_map()
    for i in range(4):
        for j in range(4):
            if i < 2 or i > 1:  # seed the full bottom cell net
                fresh.set(0, i, j, coeffs.values[0][i, j])
    for cell in (1, 2):
        for i in (0, 1, 2, 3):
            for j in (2, 3):
                fresh.set(cell, i, j, coeffs.values[cell][i, j])
    propagate_edge(space, edge, fresh)
    for cell in (1, 2):
        np.testing.assert_allclose(fresh.values[cell][:, :2],
                                   coeffs.values[cell][:, :2], atol=1e-10)


def test_edge_propagation_zero_inputs_zero_outputs(meshes):
    space = poly_space(meshes["single_t"])
    coeffs = space.empty_map()
    for e in space.mds:
        coeffs.set(*e.point.key, 0.0)
    result = complete_coefficients(space, np.zeros(space.dim))
    for c in space.mesh.cells:
        np.testing.assert_allclose(result.values[c.index], 0.0, atol=1e-14)


# -- completion -----------------------------------------------------------------


def test_completion_identity_on_single_cell(meshes, rng):
    space = poly_space(meshes["single_cell"])
    vals = rng.uniform(-1, 1, space.dim)
    coeffs = complete_coefficients(space, vals)
    np.testing.assert_allclose(extract_mds_values(space, coeffs), vals)


def test_completion_rejects_bad_assignment(meshes):
    space = poly_space(meshes["single_cell"])
    with pytest.raises(ValidationError):
        complete_coefficients(space, np.zeros(space.dim - 1))
    with pytest.raises(ValidationError):
        complete_coefficients(space, {(0, 0, 0): 1.0})


def test_completion_reproduces_global_polynomial(meshes, rng):
    # a random polynomial of the full tensor bi-degree lies in every cell
    # space and is globally smooth, so completing its determining-set
    # coefficients must reproduce its classical Bezier net on every cell
    for name in ("tensor_2x2", "single_t", "double_t", "hole"):
        mesh = meshes[name]
        space = poly_space(mesh, n=4, r=1)
        coef = random_poly2d(rng, 3, 3)
        nets = {c.index: poly_bnet(coef, c.as_floats(), 4, 4)
                for c in mesh.cells}
        assignment = {e.point.key: nets[e.point.cell][e.point.i, e.point.j]
                      for e in space.mds}
        completed = complete_coefficients(space, assignment)
        for c in mesh.cells:
            np.testing.assert_allclose(completed.values[c.index], nets[c.index],
                                       atol=1e-9, err_msg=name)


def test_completed_spline_is_classically_smooth(meshes, rng):
    # independent check through power-basis polynomial algebra: convert each
    # completed cell net to a bivariate polynomial and compare derivative
    # traces across every interior segment
    for name in ("single_t", "chained_t", "quadrant_mix"):
        mesh = meshes[name]
        space = poly_space(mesh, n=4, r=1)
        coeffs = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
        polys = {c.index: bnet_to_poly2d(coeffs.values[c.index], c.as_floats())
                 for c in mesh.cells}
        for seg in mesh.edge_segments:
            if not seg.is_interior:
                continue
            mids = np.linspace(float(seg.lo), float(seg.hi), 7)
            for order in ((0, 0), (1, 0), (0, 1), (1, 1)):
                if seg.axis == 1:
                    va = poly2d_eval(polys[seg.neg_cell], float(seg.coord), mids,
                                     *order)
                    vb = poly2d_eval(polys[seg.pos_cell], float(seg.coord), mids,
                                     *order)
                else:
                    va = poly2d_eval(polys[seg.neg_cell], mids, float(seg.coord),
                                     *order)
                    vb = poly2d_eval(polys[seg.pos_cell], mids, float(seg.coord),
                                     *order)
                np.testing.assert_allclose(va, vb, atol=1e-9, err_msg=name)


def test_dual_basis_property(meshes, rng):
    space = GSplineSpace(meshes["single_t"], HYper, 4, HYper, 4, (1, 1))
    for index in rng.choice(space.dim, size=6, replace=False):
        net = dual_basis_net(space, int(index))
        extracted = extract_mds_values(space, net)
        expected = np.zeros(space.dim)
        expected[index] = 1.0
        np.testing.assert_allclose(extracted, expected, atol=1e-10)


def test_completion_linear(meshes, rng):
    space = GSplineSpace(meshes["double_t"], HYper, 4, HYper, 4, (1, 1))
    v1 = rng.uniform(-1, 1, space.dim)
    v2 = rng.uniform(-1, 1, space.dim)
    c1 = complete_coefficients(space, v1)
    c2 = complete_coefficients(space, v2)
    c3 = complete_coefficients(space, 2.0 * v1 - 0.5 * v2)
    for c in space.mesh.cells:
        np.testing.assert_allclose(
            c3.values[c.index],
            2.0 * c1.values[c.index] - 0.5 * c2.values[c.index], atol=1e-11)


# -- evaluation -------------------------------------------------------------------


def test_constant_spline(meshes):
    space = GSplineSpace(meshes["quadrant_mix"], HYper, 4, HYper, 4, (1, 1))
    coeffs = complete_coefficients(space, np.ones(space.dim))
    grid = eval_spline_grid(space, coeffs, np.linspace(0, 4, 17),
                            np.linspace(0, 4, 17))
    np.testing.assert_allclose(grid, 1.0, atol=1e-12)
    assert eval_spline(space, coeffs, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_eval_agrees_across_containing_cells(meshes, rng):
    space = GSplineSpace(meshes["tensor_2x2"], HYper, 4, HYper, 4, (1, 1))
    coeffs = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
    for y in np.linspace(0, 2, 9):
        a = eval_spline_derivative(space, coeffs, 0, 0, 1.0, float(y), cell=None)
        cells = space.mesh.cells_containing((Fraction(1), Fraction(y).limit_denominator()))
        vals = [eval_spline_derivative(space, coeffs, 0, 0, 1.0, float(y), cell=c)
                for c in cells]
        np.testing.assert_allclose(vals, a, atol=1e-9)


def test_eval_outside_domain_rejected(meshes):
    space = poly_space(meshes["single_cell"])
    coeffs = complete_coefficients(space, np.zeros(space.dim))
    with pytest.raises(ValidationError):
        eval_spline(space, coeffs, 2.0, 0.5)
    with pytest.raises(ValidationError):
        eval_spline_grid(space, coeffs, np.array([0.5, 1.5]), np.array([0.5]))


def test_derivative_jumps_below_tolerance(meshes, rng):
    # sampled smoothness: one-sided mixed derivatives agree across interior
    # segments up to the smoothness orders
    for name, gen, n, r in [("single_t", HYper, 4, 1),
                            ("chained_t", HYper, 4, 1),
                            ("hole", HYper, 5, 1)]:
        mesh = meshes[name]
        space = GSplineSpace(mesh, gen, n, gen, n, (r, r))
        coeffs = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
        samples = 0
        for seg in mesh.edge_segments:
            if not seg.is_interior:
                continue
            for frac in rng.uniform(0.05, 0.95, 5):
                coord = float(seg.lo) + frac * float(seg.hi - seg.lo)
                for h in range(r + 1):
                    for k in range(r + 1):
                        if seg.axis == 1:
                            x, y = float(seg.coord), coord
                        else:
                            x, y = coord, float(seg.coord)
                        va = eval_spline_derivative(space, coeffs, h, k, x, y,
                                                    cell=seg.neg_cell)
                        vb = eval_spline_derivative(space, coeffs, h, k, x, y,
                                                    cell=seg.pos_cell)
                        scale = max(1.0, abs(va), abs(vb))
                        assert abs(va - vb) < 1e-7 * scale, (name, h, k)
                        samples += 1
        assert samples >= 60, name


@pytest.mark.parametrize("n1,n2,r1,r2", [(4, 3, 1, 0), (5, 4, 1, 1),
                                         (6, 6, 2, 2)])
def test_completion_asymmetric_orders(meshes, rng, n1, n2, r1, r2):
    space = GSplineSpace(meshes["single_t"], HYper, n1, HYper, n2, (r1, r2))
    vals = rng.uniform(-1, 1, space.dim)
    coeffs = complete_coefficients(space, vals)
    np.testing.assert_allclose(extract_mds_values(space, coeffs), vals, atol=0.0)
    for seg in space.mesh.edge_segments:
        if not seg.is_interior:
            continue
        mid = float(seg.lo + seg.hi) / 2
        xy = (float(seg.coord), mid) if seg.axis == 1 else (mid, float(seg.coord))
        for h in range(r1 + 1):
            for k in range(r2 + 1):
                va = eval_spline_derivative(space, coeffs, h, k, *xy,
                                            cell=seg.neg_cell)
                vb = eval_spline_derivative(space, coeffs, h, k, *xy,
                                            cell=seg.pos_cell)
                assert abs(va - vb) < 1e-7 * max(1.0, abs(va), abs(vb))
    net = dual_basis_net(space, space.dim // 2)
    expected = np.zeros(space.dim)
    expected[space.dim // 2] = 1.0
    np.testing.assert_allclose(extract_mds_values(space, net), expected,
                               atol=1e-10)


def test_power_pair_full_pipeline(rng):
    # the numeric-validity family drives the whole stack on a unit-domain mesh
    from gentess import PowerPair, brute_force_dimension

    gen = PowerPair(6, 6)
    mesh = TMesh([("0", "1", "0", "1/2"), ("0", "1/2", "1/2", "1"),
                  ("1/2", "1", "1/2", "1")])
    space = GSplineSpace(mesh, gen, 4, gen, 4, (1, 1))
    assert brute_force_dimension(space) == space.dim == dimension_formula(space)
    coeffs = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
    for h in range(2):
        for k in range(2):
            a = eval_spline_derivative(space, coeffs, h, k, 0.3, 0.5, cell=0)
            b = eval_spline_derivative(space, coeffs, h, k, 0.3, 0.5, cell=1)
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_concurrent_completions_match_sequential(meshes, rng):
    from concurrent.futures import ThreadPoolExecutor

    space = GSplineSpace(meshes["double_t"], HYper, 4, HYper, 4, (1, 1))
    inputs = [rng.uniform(-1, 1, space.dim) for _ in range(8)]
    sequential = [complete_coefficients(space, v) for v in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda v: complete_coefficients(space, v),
                                   inputs))
    for seq, con in zip(sequential, concurrent):
        for c in space.mesh.cells:
            np.testing.assert_allclose(con.values[c.index], seq.values[c.index],
                                       atol=0.0)


def test_incomplete_map_guards(meshes):
    space = poly_space(meshes["single_cell"])
    coeffs = space.empty_map()
    with pytest.raises(GentessError):
        coeffs.get(0, 0, 0)
    with pytest.raises(GentessError):
        coeffs.cell_array(0)
