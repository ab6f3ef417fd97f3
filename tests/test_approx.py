import numpy as np
import pytest

from gentess import (
    ExpTrig,
    GSplineSpace,
    HermiteSystem,
    NumericalError,
    PolynomialDegenerate,
    SplineOracle,
    TMesh,
    TwoExponentials,
    ValidationError,
    complete_coefficients,
    convergence_study,
    get_test_function,
    hermite_local,
    l2_error,
    make_section_space,
    norm_equivalence_check,
    quasi_interpolant,
    sup_error,
    tensor_mesh,
)
from gentess.approx import derivative_table

HYPER = TwoExponentials(1, -1)


def hermite_system(gen, n1, n2, rect, anchor, fname="sin2s_plus_t"):
    f = get_test_function(fname)
    ss = make_section_space(gen, n1, rect[0], rect[1])
    st = make_section_space(gen, n2, rect[2], rect[3])
    rhs = derivative_table(f, n1, n2, *anchor)
    return HermiteSystem(ss, st, anchor[0], anchor[1], rhs)


# -- local interpolant -------------------------------------------------------------


@pytest.mark.parametrize("gen,n1,n2", [(HYPER, 4, 4), (HYPER, 3, 5),
                                       (ExpTrig(0, 1), 4, 4),
                                       (PolynomialDegenerate(), 5, 4)])
def test_hermite_matches_all_derivatives(gen, n1, n2):
    f = get_test_function("sin2s_plus_t")
    ss = make_section_space(gen, n1, 0.0, 1.0)
    st = make_section_space(gen, n2, 0.0, 1.0)
    ql = hermite_local(ss, st, f, 0.37, 0.61)
    for i in range(n1):
        for j in range(n2):
            got = float(ql.deriv(i, j, 0.37, 0.61))
            want = float(f.deriv(i, j, 0.37, 0.61))
            assert abs(got - want) < 1e-7 * max(1.0, abs(want)), (i, j)


def test_hermite_reproduces_members():
    # sin(s) sin(t) lies in the tensor space of unit-rate trigonometric cells
    f = get_test_function("sin_s_sin_t")
    ss = make_section_space(ExpTrig(0, 1), 4, 0.0, 1.2)
    st = make_section_space(ExpTrig(0, 1), 4, 0.0, 1.2)
    ql = hermite_local(ss, st, f, 0.5, 0.7)
    xs = np.linspace(0, 1.2, 21)
    vals = ql(xs[:, None], xs[None, :])
    target = f.deriv(0, 0, xs[:, None], xs[None, :])
    np.testing.assert_allclose(vals, target, atol=1e-9)


def test_hermite_matches_derivatives_through_bnet_route():
    # express the interpolant in the tensor basis by collocation, then take
    # the anchor derivatives through the basis recursion instead of the
    # closed-form coefficients; both routes must agree with the target
    from gentess import basis_for
    from gentess.util import cheb_points

    f = get_test_function("sin2s_plus_t")
    n1, n2 = 4, 5
    ss = make_section_space(HYPER, n1, 0.0, 1.0)
    st = make_section_space(HYPER, n2, 0.0, 1.0)
    s0, t0 = 0.41, 0.58
    ql = hermite_local(ss, st, f, s0, t0)

    bs = basis_for(HYPER, n1, 0.0, 1.0)
    bt = basis_for(HYPER, n2, 0.0, 1.0)
    sx = cheb_points(n1, 0.0, 1.0)
    sy = cheb_points(n2, 0.0, 1.0)
    vals = np.asarray(ql(sx[:, None], sy[None, :]), dtype=float)
    net = np.linalg.solve(bs.eval_all(sx).T, vals)
    net = np.linalg.solve(bt.eval_all(sy).T, net.T).T
    for i in range(n1):
        for j in range(n2):
            ds = bs.eval_all_derivative(i, np.array([s0]))[:, 0]
            dt = bt.eval_all_derivative(j, np.array([t0]))[:, 0]
            got = float(ds @ net @ dt)
            want = float(f.deriv(i, j, s0, t0))
            assert abs(got - want) < 1e-7 * max(1.0, abs(want)), (i, j)


def test_hermite_error_shrinks_at_expected_rate():
    # halving the cell around the anchor divides the error by about 2^(k+1)
    f = get_test_function("sin2s_plus_t")
    errs = []
    for half in (0.4, 0.2, 0.1):
        ss = make_section_space(HYPER, 4, 0.5 - half, 0.5 + half)
        st = make_section_space(HYPER, 4, 0.5 - half, 0.5 + half)
        ql = hermite_local(ss, st, f, 0.5, 0.5)
        xs = np.linspace(0.5 - half, 0.5 + half, 33)
        err = np.max(np.abs(ql(xs[:, None], xs[None, :])
                            - f.deriv(0, 0, xs[:, None], xs[None, :])))
        errs.append(err)
    rate1 = errs[0] / errs[1]
    rate2 = errs[1] / errs[2]
    assert 10 < rate1 < 26   # about 2^4 = 16
    assert 10 < rate2 < 26


def test_hermite_guards():
    f = get_test_function("sin2s_plus_t")
    good = make_section_space(HYPER, 4, 0.0, 1.0)
    with pytest.raises(ValidationError):
        hermite_local(good, good, f, 0.0, 0.5)  # anchor on the boundary
    bad = make_section_space(ExpTrig(0, 1), 4, 0.0, 3.5)
    with pytest.raises(ValidationError):
        hermite_local(bad, good, f, 1.0, 0.5)


# -- block structure ---------------------------------------------------------------


def test_block_determinant_identities(rng):
    gens = [HYPER, TwoExponentials(0.6, 1.7), ExpTrig(0, 1), ExpTrig(0.5, 1.2),
            PolynomialDegenerate()]
    checked = 0
    while checked < 100:
        gen = gens[checked % len(gens)]
        n1 = int(rng.integers(3, 6))
        n2 = int(rng.integers(3, 6))
        a = float(rng.uniform(-1, 1))
        w = float(rng.uniform(0.3, 1.2))
        anchor = (a + w * rng.uniform(0.2, 0.8), a + w * rng.uniform(0.2, 0.8))
        system = hermite_system(gen, n1, n2, (a, a + w, a, a + w), anchor)
        a1 = system.poly_gen_block()
        a2 = system.gen_poly_block()
        a3 = system.gen_gen_block()
        d1 = np.linalg.det(system.gen_pair_s())
        d2 = np.linalg.det(system.gen_pair_t())

        def close(x, y):
            return abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-30)

        assert close(abs(np.linalg.det(a1)), abs(d2) ** (n1 - 2))
        assert close(abs(np.linalg.det(a2)), abs(d1) ** (n2 - 2))
        assert close(np.linalg.det(a3), -(d1 ** 2) * (d2 ** 2))
        checked += 1


def test_full_matrix_block_triangular():
    system = hermite_system(HYPER, 5, 4, (0, 1, 0, 1), (0.4, 0.6))
    full = system.full_matrix()
    n1, n2 = 5, 4
    sizes = [(n1 - 2) * (n2 - 2), 2 * (n1 - 2), 2 * (n2 - 2), 4]
    starts = np.cumsum([0] + sizes)
    for bi in range(4):
        for bj in range(bi):
            block = full[starts[bi]:starts[bi + 1], starts[bj]:starts[bj + 1]]
            np.testing.assert_allclose(block, 0.0, atol=0.0)
    # identity block on the polynomial coefficients
    np.testing.assert_allclose(full[:sizes[0], :sizes[0]], np.eye(sizes[0]))


def test_blockwise_equals_dense_solve(rng):
    for trial in range(20):
        n1 = int(rng.integers(3, 6))
        n2 = int(rng.integers(3, 6))
        system = hermite_system(HYPER, n1, n2, (0, 1, 0, 1),
                                (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)))
        qb = system.solve_blockwise()
        qd = system.solve_dense()
        xs = np.linspace(0, 1, 9)
        np.testing.assert_allclose(qb(xs[:, None], xs[None, :]),
                                   qd(xs[:, None], xs[None, :]), atol=1e-10)


def test_determinant_floor_reported():
    # power pairs near the left endpoint have vanishing top derivatives of u
    f = get_test_function("sin2s_plus_t")
    from gentess import PowerPair

    ss = make_section_space(PowerPair(8, 8), 4, 0.0, 1.0)
    st = make_section_space(PowerPair(8, 8), 4, 0.0, 1.0)
    if ss.haar_ok and ss.wronskian_ok:
        with pytest.raises(NumericalError):
            rhs = derivative_table(f, 4, 4, 1e-9, 1e-9)
            HermiteSystem(ss, st, 1e-9, 1e-9, rhs).solve_blockwise()


def test_univariate_hermite_smoke():
    from gentess.approx import hermite_local_univariate

    space = make_section_space(HYPER, 4, 0.0, 1.0)
    # member reproduction
    member = hermite_local_univariate(
        space, lambda k, s: np.cosh(s) if k % 2 == 0 else np.sinh(s), 0.5)
    xs = np.linspace(0, 1, 33)
    np.testing.assert_allclose(member(xs), np.cosh(xs), atol=1e-12)
    # order-n error decay for a non-member
    errs = []
    for half in (0.4, 0.2):
        sp = make_section_space(HYPER, 4, 0.5 - half, 0.5 + half)
        ql = hermite_local_univariate(
            sp, lambda k, s: 2.0 ** k * np.sin(2 * s + k * np.pi / 2), 0.5)
        x = np.linspace(sp.a, sp.b, 65)
        errs.append(np.max(np.abs(ql(x) - np.sin(2 * x))))
    assert errs[0] / errs[1] > 10  # about 2^4


# -- quasi-interpolant ---------------------------------------------------------------


def test_projection_on_random_members(meshes, rng):
    space = GSplineSpace(meshes["single_t"], HYPER, 4, HYPER, 4, (1, 1))
    for _ in range(3):
        member = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
        q = quasi_interpolant(space, SplineOracle(space, member))
        for c in space.mesh.cells:
            np.testing.assert_allclose(q.values[c.index],
                                       member.values[c.index], atol=1e-8)


def test_constant_reproduced(meshes):
    space = GSplineSpace(meshes["double_t"], HYPER, 4, HYPER, 4, (1, 1))

    class One:
        @staticmethod
        def deriv(i, j, s, t):
            s = np.asarray(s, dtype=float)
            t = np.asarray(t, dtype=float)
            out = np.ones(np.broadcast(s, t).shape)
            return out if (i, j) == (0, 0) else np.zeros_like(out)

    q = quasi_interpolant(space, One())
    assert sup_error(space, q, One()) < 1e-12


def test_member_function_reproduced_hyperbolic(meshes):
    f = get_test_function("cosh_s_sinh_t")
    space = GSplineSpace(meshes["quadrant_mix"], HYPER, 4, HYPER, 4, (1, 1))
    q = quasi_interpolant(space, f)
    assert sup_error(space, q, f) < 1e-8


def test_member_function_reproduced_trig():
    f = get_test_function("sin_s_sin_t")
    mesh = TMesh([(0, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)])
    space = GSplineSpace(mesh, ExpTrig(0, 1), 4, ExpTrig(0, 1), 4, (1, 1))
    q = quasi_interpolant(space, f)
    assert sup_error(space, q, f) < 1e-8


def test_mixed_direction_families(meshes, rng):
    # trig along s, hyperbolic along t, different orders per direction
    f = get_test_function("sin_s_cosh_t")
    space = GSplineSpace(meshes["single_t"], ExpTrig(0, 1), 4, HYPER, 5, (1, 1))
    q = quasi_interpolant(space, f)
    assert sup_error(space, q, f) < 1e-8
    member = complete_coefficients(space, rng.uniform(-1, 1, space.dim))
    qm = quasi_interpolant(space, SplineOracle(space, member))
    for c in space.mesh.cells:
        np.testing.assert_allclose(qm.values[c.index], member.values[c.index],
                                   atol=1e-8)


def test_quasi_interpolant_linear(meshes):
    space = GSplineSpace(meshes["single_t"], HYPER, 4, HYPER, 4, (1, 1))
    f = get_test_function("sin2s_plus_t")
    g = get_test_function("exp_s_plus_2t")

    class Combo:
        @staticmethod
        def deriv(i, j, s, t):
            return 2.0 * f.deriv(i, j, s, t) - 0.25 * g.deriv(i, j, s, t)

    qf = quasi_interpolant(space, f)
    qg = quasi_interpolant(space, g)
    qc = quasi_interpolant(space, Combo())
    for c in space.mesh.cells:
        np.testing.assert_allclose(
            qc.values[c.index],
            2.0 * qf.values[c.index] - 0.25 * qg.values[c.index], atol=1e-12)


# -- convergence ----------------------------------------------------------------------


def test_convergence_order_hyperbolic_bicubic():
    f = get_test_function("sin2s_plus_t")
    base = tensor_mesh([0, "1/2", 1], [0, "1/2", 1])
    report = convergence_study(base, HYPER, 4, HYPER, 4, (1, 1), f, levels=3)
    assert report.k == 3
    assert report.orders[-1] > 3.7
    assert report.errors[-1] < report.errors[0] / 50


def test_convergence_member_is_exact_at_all_levels():
    f = get_test_function("cosh_s_sinh_t")
    base = tensor_mesh([0, "1/2", 1], [0, "1/2", 1])
    report = convergence_study(base, HYPER, 4, HYPER, 4, (1, 1), f, levels=3)
    assert all(err < 1e-10 for err in report.errors)


def test_convergence_on_t_mesh_base(meshes):
    f = get_test_function("sin2s_plus_t")
    report = convergence_study(meshes["single_t"], HYPER, 4, HYPER, 4, (1, 1), f,
                               levels=3)
    assert report.orders[-1] > 3.5


def test_l2_error_below_sup_times_area(meshes):
    f = get_test_function("sin2s_plus_t")
    space = GSplineSpace(meshes["tensor_2x2"], HYPER, 4, HYPER, 4, (1, 1))
    q = quasi_interpolant(space, f)
    sup = sup_error(space, q, f)
    l2 = l2_error(space, q, f)
    assert l2 <= sup * 2.0 + 1e-14  # area of the domain is 4


def test_convergence_report_serialization():
    f = get_test_function("sin2s_plus_t")
    base = tensor_mesh([0, 1], [0, 1])
    report = convergence_study(base, HYPER, 3, HYPER, 3, (0, 0), f, levels=3)
    data = report.to_json()
    assert data["expected_order"] == 3
    assert len(data["levels"]) == 3
    assert report.rows()[1]["order"] == pytest.approx(report.orders[0])
    with pytest.raises(ValidationError):
        convergence_study(base, HYPER, 3, HYPER, 3, (0, 0), f, levels=2)


# -- norm equivalence -------------------------------------------------------------------


def test_norm_equivalence(meshes):
    space = GSplineSpace(meshes["single_t"], HYPER, 4, HYPER, 4, (1, 1))
    report = norm_equivalence_check(space, vectors=100, seed=7)
    assert report.violations == 0
    assert report.k1 >= 1.0
    assert report.k3_hat >= 1.0 - 1e-12
    assert report.k3_resample_max <= 2.0 * report.k3_hat
    assert report.k4_hat >= 1.0


def test_k1_matches_independent_computation_single_cell():
    # classical collocation-inverse norm on one polynomial cell
    from classical import bernstein_value

    mesh = TMesh([(0, 1, 0, 1)])
    gen = PolynomialDegenerate()
    space = GSplineSpace(mesh, gen, 3, gen, 3, (0, 0))
    report = norm_equivalence_check(space, vectors=10, seed=1)
    xs = np.linspace(0, 1, 3)
    m = np.array([[bernstein_value(2, i, 0, 1, x) for i in range(3)] for x in xs])
    expected = np.linalg.norm(np.linalg.inv(m), np.inf) ** 2
    assert report.k1 == pytest.approx(expected, rel=1e-9)
