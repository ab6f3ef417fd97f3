import numpy as np
import pytest

from classical import bernstein_derivative, bernstein_value
from gentess import (
    ExpTrig,
    NumericalError,
    PolynomialDegenerate,
    PowerPair,
    TwoExponentials,
    ValidationError,
    base_pair,
    basis_for,
    build_basis,
    make_section_space,
)
from gentess.util import cheb_points

FAMILIES = {
    "hyperbolic": TwoExponentials(1, -1),
    "exponential": TwoExponentials(0.5, 2.0),
    "trig": ExpTrig(0, 1),
    "power": PowerPair(6, 6),
    "polynomial": PolynomialDegenerate(),
}


def interval_for(name):
    return (0.0, 1.4) if name == "trig" else (0.0, 1.0)


def test_base_pair_hyperbolic_closed_form():
    sp = make_section_space(TwoExponentials(1, -1), 3, 0, 1)
    f0, f1 = base_pair(sp)
    s = np.linspace(0, 1, 41)
    np.testing.assert_allclose(f0(s), np.sinh(1 - s) / np.sinh(1), atol=1e-14)
    np.testing.assert_allclose(f1(s), np.sinh(s) / np.sinh(1), atol=1e-14)


def test_base_pair_trig_closed_form():
    sp = make_section_space(ExpTrig(0, 1), 3, 0, np.pi / 2)
    _, f1 = base_pair(sp)
    s = np.linspace(0, np.pi / 2, 41)
    np.testing.assert_allclose(f1(s), np.sin(s), atol=1e-14)


@pytest.mark.parametrize("name", FAMILIES, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_base_pair_boundary_values(name, n):
    a, b = interval_for(name)
    sp = make_section_space(FAMILIES[name], n, a, b)
    f0, f1 = base_pair(sp)
    assert f0(np.array([a]))[0] == pytest.approx(1.0, abs=1e-12)
    assert f0(np.array([b]))[0] == pytest.approx(0.0, abs=1e-12)
    assert f1(np.array([a]))[0] == pytest.approx(0.0, abs=1e-12)
    assert f1(np.array([b]))[0] == pytest.approx(1.0, abs=1e-12)


def test_base_pair_requires_valid_space():
    bad = make_section_space(ExpTrig(0, 1), 3, 0, 3.5)
    with pytest.raises((ValidationError, NumericalError)):
        base_pair(bad)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_polynomial_degenerate_reproduces_classical_bernstein(n):
    sp = make_section_space(PolynomialDegenerate(), n, 0.0, 1.0)
    basis = build_basis(sp)
    x = np.linspace(0, 1, 101)
    for i in range(n):
        expected = bernstein_value(n - 1, i, 0.0, 1.0, x)
        np.testing.assert_allclose(basis.eval(i, x), expected, atol=1e-10)
    # derivatives through the exact recursion match the classical recursion
    for order in (1, 2):
        for i in range(n):
            expected = bernstein_derivative(n - 1, i, 0.0, 1.0, x, order)
            np.testing.assert_allclose(basis.eval_derivative(i, order, x),
                                       expected, atol=1e-9)


def test_classical_bernstein_on_shifted_interval():
    sp = make_section_space(PolynomialDegenerate(), 4, 2.0, 5.0)
    basis = build_basis(sp)
    x = np.linspace(2, 5, 31)
    for i in range(4):
        np.testing.assert_allclose(basis.eval(i, x),
                                   bernstein_value(3, i, 2.0, 5.0, x), atol=1e-10)


@pytest.mark.parametrize("name", FAMILIES, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_partition_of_unity_and_positivity(name, n):
    a, b = interval_for(name)
    basis = build_basis(make_section_space(FAMILIES[name], n, a, b))
    pts = cheb_points(257, a, b)
    vals = basis.eval_all(pts)
    assert np.max(np.abs(vals.sum(axis=0) - 1.0)) < 1e-9
    assert np.min(vals) > -1e-12


@pytest.mark.parametrize("name", FAMILIES, ids=str)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_endpoint_derivative_patterns(name, n):
    a, b = interval_for(name)
    basis = build_basis(make_section_space(FAMILIES[name], n, a, b))
    ta = basis.endpoint_table("a")
    tb = basis.endpoint_table("b")
    for j in range(n):
        scale_a = max(np.max(np.abs(ta[j])), 1e-30)
        scale_b = max(np.max(np.abs(tb[j])), 1e-30)
        for i in range(n):
            if j < i:
                assert abs(ta[j, i]) < 1e-9 * scale_a
            if j < n - 1 - i:
                assert abs(tb[j, i]) < 1e-9 * scale_b
    for i in range(n - 1):
        assert abs(ta[i, i]) > 1e-6 * np.max(np.abs(ta[i]))
    for i in range(1, n):
        assert abs(tb[n - 1 - i, i]) > 1e-6 * np.max(np.abs(tb[n - 1 - i]))


def test_endpoint_values_pattern():
    basis = build_basis(make_section_space(TwoExponentials(1, -1), 3, 0.0, 1.0))
    left = basis.eval_all(np.array([0.0]))[:, 0]
    right = basis.eval_all(np.array([1.0]))[:, 0]
    np.testing.assert_allclose(left, [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(right, [0, 0, 1], atol=1e-12)


def test_cubic_midpoint_value():
    basis = build_basis(make_section_space(PolynomialDegenerate(), 4, 0.0, 1.0))
    assert basis.eval(1, np.array([0.5]))[0] == pytest.approx(0.375, abs=1e-12)


@pytest.mark.parametrize("name", ["hyperbolic", "trig", "power"], ids=str)
def test_derivative_consistent_with_finite_differences(name, rng):
    a, b = interval_for(name)
    basis = build_basis(make_section_space(FAMILIES[name], 5, a, b))
    pts = rng.uniform(a + 0.05 * (b - a), b - 0.05 * (b - a), 20)
    h = 1e-6 * (b - a)
    for i in range(5):
        exact = basis.eval_derivative(i, 1, pts)
        approx = (basis.eval(i, pts + h) - basis.eval(i, pts - h)) / (2 * h)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - approx) / scale) < 1e-6


@pytest.mark.parametrize("name", FAMILIES, ids=str)
def test_reproduction_of_constants_and_generators(name):
    # the basis spans the section space: 1, u and v project with tiny residual
    a, b = interval_for(name)
    n = 4
    sp = make_section_space(FAMILIES[name], n, a, b)
    basis = build_basis(sp)
    pts = cheb_points(64, a, b)
    m = basis.eval_all(pts).T
    for target in (np.ones_like(pts),
                   np.asarray(sp.u_deriv(0, pts), dtype=float),
                   np.asarray(sp.v_deriv(0, pts), dtype=float)):
        sol, *_ = np.linalg.lstsq(m, target, rcond=None)
        residual = np.max(np.abs(m @ sol - target))
        assert residual < 1e-8 * max(1.0, np.max(np.abs(target)))


def test_intermediate_levels_span_expected_derivative_spaces():
    # level k reproduces the order (n-k-1) derivatives of both generators
    n = 5
    sp = make_section_space(TwoExponentials(1, -1), n, 0.0, 1.0)
    basis = build_basis(sp)
    pts = cheb_points(48, 0.0, 1.0)
    for k in range(2, n):
        m = np.stack([f(pts) for f in basis.levels[k].series]).T
        for which in ("u", "v"):
            target = np.asarray(sp.gen.deriv(which, n - k - 1, pts, n))
            sol, *_ = np.linalg.lstsq(m, target, rcond=None)
            assert np.max(np.abs(m @ sol - target)) < 1e-8 * np.max(np.abs(target))


def test_integral_weights_positive():
    basis = build_basis(make_section_space(ExpTrig(0, 1), 5, 0.0, 1.4))
    for k in range(1, 4):
        assert np.all(basis.levels[k].weights > 0)


def test_eval_guards():
    basis = build_basis(make_section_space(TwoExponentials(1, -1), 3, 0.0, 1.0))
    with pytest.raises(ValidationError):
        basis.eval(3, np.array([0.5]))
    with pytest.raises(ValidationError):
        basis.eval(0, np.array([1.5]))


def test_cache_reuses_exact_keys():
    b1 = basis_for(TwoExponentials(1, -1), 4, 0.0, 1.0)
    b2 = basis_for(TwoExponentials(1, -1), 4, 0.0, 1.0)
    assert b1 is b2
    b3 = basis_for(TwoExponentials(1, -1), 4, 0.0, 2.0)
    assert b3 is not b1


def test_cache_key_includes_tolerance():
    from gentess import config

    gen = TwoExponentials(1, 1.001)  # nearly dependent: valid at 1e-9 only
    before = config.rel_tol()
    try:
        config.set_rel_tol(1e-9)
        assert basis_for(gen, 4, 0.0, 1.0).space.dim_ok
        config.set_rel_tol(1e-2)
        with pytest.raises(ValidationError):
            basis_for(gen, 4, 0.0, 1.0)
    finally:
        config.set_rel_tol(before)
