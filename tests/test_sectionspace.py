import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentess import (
    ExpTimesLinear,
    ExpTrig,
    PolynomialDegenerate,
    PowerPair,
    TwoExponentials,
    ValidationError,
    check_haar_condition,
    check_wronskian_condition,
    closure_residuals,
    eval_generator,
    make_section_space,
    top_pair_determinant,
)
from gentess.util import count_zero_sites

ODE_FAMILIES = [TwoExponentials(1, -1), TwoExponentials(2, 3),
                ExpTimesLinear(1.0), ExpTrig(1, 1)]


def test_basic_construction_and_flags():
    sp = make_section_space(TwoExponentials(1, -1), 3, 0, 1)
    assert sp.dim_ok and sp.haar_ok and sp.wronskian_ok
    assert sp.check_method == "analytic"

    sp = make_section_space(ExpTrig(0, 1), 3, 0, 3.2)
    assert not sp.haar_ok  # 3.2 exceeds the half-period bound

    sp = make_section_space(PolynomialDegenerate(), 4, 0, 1)
    assert sp.dim_ok


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        make_section_space(TwoExponentials(1, -1), 2, 0, 1)
    with pytest.raises(ValidationError):
        make_section_space(TwoExponentials(1, -1), 3, 1, 1)
    with pytest.raises(ValidationError):
        make_section_space(TwoExponentials(1, -1), 3, 2, 1)


def test_degenerate_pair_flagged_not_raised():
    # a zero rate duplicates the constant already in the polynomial part
    sp = make_section_space(TwoExponentials(0.0, 1.0), 3, 0, 1)
    assert not sp.dim_ok


def test_eval_generator_values_and_guards():
    sp = make_section_space(TwoExponentials(1, -1), 3, 0, 1)
    assert eval_generator(sp, "u", 2, 0.0) == pytest.approx(1.0)
    trig = make_section_space(ExpTrig(0, 1), 3, 0, 1.5)
    assert eval_generator(trig, "u", 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    power = make_section_space(PowerPair(4, 4), 3, 0, 1)
    assert eval_generator(power, "u", 3, 1.0) == pytest.approx(24.0)
    with pytest.raises(ValidationError):
        eval_generator(sp, "u", sp.max_order + 1, 0.5)
    with pytest.raises(ValidationError):
        eval_generator(sp, "u", 1, 2.5)


@pytest.mark.parametrize("gen", ODE_FAMILIES, ids=lambda g: repr(g))
def test_haar_condition_true_for_ode_families(gen):
    interval = (0, 2.0) if not isinstance(gen, ExpTrig) else (0, 1.0)
    sp = make_section_space(gen, 4, *interval)
    assert check_haar_condition(sp)
    assert check_wronskian_condition(sp)


def test_trig_haar_threshold():
    assert check_haar_condition(make_section_space(ExpTrig(0, 1), 3, 0, np.pi / 2))
    assert not check_haar_condition(make_section_space(ExpTrig(0, 2), 3, 0, 2.0))


def test_numeric_haar_agrees_with_analytic_away_from_threshold():
    wide = make_section_space(ExpTrig(0, 2), 3, 0, 0.8 * np.pi)
    assert check_haar_condition(wide, method="numeric") is False
    narrow = make_section_space(ExpTrig(0, 2), 3, 0, 0.4 * np.pi)
    assert check_haar_condition(narrow, method="numeric") is True


def test_power_pair_flags_numeric():
    sp = make_section_space(PowerPair(6, 6), 4, 0.05, 0.95)
    assert sp.check_method == "numeric"
    assert sp.dim_ok and sp.haar_ok and sp.wronskian_ok


@pytest.mark.parametrize("gen", ODE_FAMILIES + [PowerPair(6, 6)],
                         ids=lambda g: repr(g))
def test_top_pair_determinant_nonzero_on_grid(gen):
    # nonsingularity of the order (n-2, n-1) pairing, sampled densely
    interval = (0.05, 0.95)
    sp = make_section_space(gen, 4, *interval)
    if not (sp.haar_ok and sp.wronskian_ok):
        pytest.skip("pair not valid on this interval")
    s = np.linspace(interval[0] + 1e-3, interval[1] - 1e-3, 1000)
    det = np.asarray(top_pair_determinant(sp, s))
    assert np.all(np.abs(det) > 0)


@pytest.mark.parametrize("gen", ODE_FAMILIES, ids=lambda g: repr(g))
def test_derivative_closure_for_ode_families(gen):
    sp = make_section_space(gen, 4, 0.0, 1.0)
    res = closure_residuals(sp)
    assert res["derivative"] < 1e-10
    assert res["antiderivative"] < 1e-8


def test_power_pair_not_derivative_closed():
    sp = make_section_space(PowerPair(6, 6), 4, 0.1, 0.9)
    assert closure_residuals(sp)["derivative"] > 1e-6


def test_dimension_flag_well_conditioned_on_shifted_intervals():
    # monomial conditioning must not produce false negatives away from zero
    sp = make_section_space(TwoExponentials(1, -1), 5, 100.0, 101.0)
    assert sp.dim_ok


# -- zero-site counting ---------------------------------------------------------------


def count_zero_sites_loop(values, tol):
    """The sample-by-sample count that the array version replaced."""
    near = np.abs(values) <= tol
    sites = 0
    in_run = False
    prev_sign = 0
    for v, nz in zip(values, near):
        if nz:
            if not in_run:
                sites += 1
                in_run = True
            continue
        sign = 1 if v > 0 else -1
        if not in_run and prev_sign != 0 and sign != prev_sign:
            sites += 1
        in_run = False
        prev_sign = sign
    return sites


@pytest.mark.parametrize("values, tol, sites", [
    ([0.0, 0.0, 1.0, 2.0], 0.0, 1),        # run at the start
    ([1.0, -1.0, 0.0, 0.0], 0.0, 2),       # flip, then a run at the end
    ([1.0, 1e-12, -1.0], 1e-9, 1),         # a run between opposite signs
    ([1.0, 1e-12, 1.0, -0.0, 2.0], 1e-9, 2),
    ([-1.0, 2.0, -3.0, 4.0], 0.5, 3),
    ([], 1e-9, 0),
])
def test_count_zero_sites_cases(values, tol, sites):
    values = np.array(values)
    assert count_zero_sites(values, tol) == sites == count_zero_sites_loop(values, tol)


_SAMPLES = st.one_of(st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 1e-9, 1.0, -1.0, 2.5]),
                     st.floats(-3, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_SAMPLES, max_size=40), tol=st.sampled_from([0.0, 1e-9, 0.5]))
def test_count_zero_sites_matches_loop(values, tol):
    values = np.array(values, dtype=float)
    assert count_zero_sites(values, tol) == count_zero_sites_loop(values, tol)
