"""Average-case estimate and optimization checks.

Expected values here are exact arithmetic on the displayed estimate
formulas (log2 M_side = n x - n alpha x^k and log2 M_joint = n - n alpha),
so most assertions are exact or near machine precision.
"""

import math

import numpy as np
import pytest

from nestedsearch import (
    AccuracyTarget,
    PartitionModel,
    approx_model_time,
    estimate,
    fit_scaling,
    model_time,
    optimize_x,
    scaling_exponent,
)


def test_estimate_single_solution_point():
    est = estimate(PartitionModel(32, 2, 1.0, 0.5))
    assert est.log2_m_a == 8.0
    assert est.log2_m_b == 8.0
    assert est.log2_m_ab == 0.0
    assert est.log2_n_a == 16.0
    assert est.log2_n_b == 16.0
    assert not est.clamped


def test_estimate_unconstrained_when_alpha_zero():
    est = estimate(PartitionModel(32, 2, 0.0, 0.25))
    assert est.log2_m_a == est.log2_n_a == 8.0
    assert est.log2_m_b == est.log2_n_b == 24.0
    assert est.log2_m_ab == 32.0
    assert not est.clamped


def test_estimate_clamps_overconstrained_joint_count():
    # raw joint estimate is 27 - 33.75 = -6.75, held up at zero and flagged
    est = estimate(PartitionModel(27, 3, 1.25, 0.5))
    assert est.log2_m_ab == 0.0
    assert est.clamped


def test_model_time_alpha_zero_is_free():
    budget = model_time(PartitionModel(16, 2, 0.0, 0.5))
    assert budget.total_time == 0.0
    assert budget.degenerate


def test_model_time_composition_at_single_solution_point():
    budget = model_time(PartitionModel(32, 2, 1.0, 0.5))
    assert budget.iterations == 256
    assert budget.total_time == budget.stage1_time * 256
    assert budget.stage1_time > 0.0
    assert not budget.clamped


def test_model_time_carries_clamp_flag():
    assert model_time(PartitionModel(27, 3, 1.25, 0.5)).clamped


def test_model_time_symmetric_in_partition_fraction():
    for x in (0.1, 0.25, 0.4, 0.47):
        left = model_time(PartitionModel(32, 3, 1.0, x)).total_time
        right = model_time(PartitionModel(32, 3, 1.0, 1.0 - x)).total_time
        assert left == pytest.approx(right, rel=1e-9)


def test_approx_model_time_values():
    assert approx_model_time(PartitionModel(32, 2, 1.0, 0.5)) == 12.0
    assert approx_model_time(PartitionModel(32, 3, 1.0, 0.5)) == 14.0
    # a vanishing split side degenerates to plain oracle-search scaling
    tiny = approx_model_time(PartitionModel(32, 2, 1.0, 1e-9))
    assert tiny == pytest.approx(16.0, rel=1e-6)


def test_scaling_exponent_values():
    assert scaling_exponent(2, 1.0) == 0.375
    assert scaling_exponent(5, 0.9) == pytest.approx(0.4359375, rel=1e-15)
    assert scaling_exponent(30, 1.0) == pytest.approx(0.5, abs=1e-8)
    with pytest.raises(ValueError):
        scaling_exponent(1, 1.0)
    with pytest.raises(ValueError):
        scaling_exponent(2, 0.0)


def test_exponent_matches_approx_slope_exactly():
    for k in (2, 3, 5):
        lo = approx_model_time(PartitionModel(16, k, 1.0, 0.5))
        hi = approx_model_time(PartitionModel(40, k, 1.0, 0.5))
        assert (hi - lo) / 24.0 == pytest.approx(scaling_exponent(k, 1.0), rel=1e-14)


def test_optimize_x_finds_balanced_split():
    for k in (2, 3, 5):
        x_opt, log2_total = optimize_x(32, k, 1.0)
        assert abs(x_opt - 0.5) <= 0.01
        assert math.isfinite(log2_total)
    x_opt, _ = optimize_x(32, 5, 1.054)
    assert abs(x_opt - 0.5) <= 0.01


def test_optimize_x_flat_objective_tie_break():
    x_opt, log2_total = optimize_x(16, 2, 0.0)
    assert x_opt == 0.5
    assert log2_total == -math.inf


def test_collapse_in_n_alpha_product():
    # two parameter sets with nearly equal n*alpha trace the same curve
    grid = np.linspace(0.1, 0.9, 33)
    for x in grid:
        a = math.log2(model_time(PartitionModel(32, 3, 1.054, float(x))).total_time)
        b = math.log2(model_time(PartitionModel(27, 3, 1.25, float(x))).total_time)
        assert abs(a - b) <= 0.02 * abs(b)


def test_monotone_in_alpha_at_balanced_split():
    values = []
    for alpha in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.054, 1.1, 1.2):
        values.append(math.log2(model_time(PartitionModel(32, 5, alpha, 0.5)).total_time))
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_breakdown_regime_inequality():
    # once k reaches log2(n alpha), a balanced side keeps at least half of
    # its assignments and the two-stage split stops paying off
    n, alpha = 32, 1.0
    k = math.ceil(math.log2(n * alpha))
    est = estimate(PartitionModel(n, k, alpha, 0.5))
    assert est.log2_m_a - est.log2_n_a >= -1.0


def test_fit_scaling_slope():
    fit = fit_scaling(2, 1.0, 0.5, [16, 20, 24, 28, 32, 36, 40])
    assert abs(fit.slope - 0.375) <= 0.02
    assert fit.residual_rms < 0.02
    assert fit.slope_approx == 0.375
    assert len(fit.log2_total) == 7
    with pytest.raises(ValueError):
        fit_scaling(2, 1.0, 0.5, [16, 20, 24, 28])


def test_fit_scaling_k3():
    fit = fit_scaling(3, 1.0, 0.5, [16, 20, 24, 28, 32, 36, 40])
    assert abs(fit.slope - 0.4375) <= 0.02


def test_partition_model_validation():
    with pytest.raises(ValueError):
        PartitionModel(32, 2, 1.0, 0.0)
    with pytest.raises(ValueError):
        PartitionModel(32, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        PartitionModel(32, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        PartitionModel(1, 2, 1.0, 0.5)
    with pytest.raises(ValueError):
        PartitionModel(32, 2, -0.5, 0.5)


def test_epsilon_rescales_model_time():
    base = model_time(PartitionModel(32, 2, 1.0, 0.5), AccuracyTarget(1.0))
    tight = model_time(PartitionModel(32, 2, 1.0, 0.5), AccuracyTarget(0.5))
    assert tight.stage1_time == 2.0 * base.stage1_time
    assert tight.iterations == base.iterations


def test_model_time_at_n200_lies_in_the_sandwich():
    # both sides keep 2^(100 - 50) of 2^100 assignments: r = 2^-50 each
    budget = model_time(PartitionModel(200, 2, 1.0, 0.5))
    odds = math.sqrt(-math.expm1(-50.0 * math.log(2.0))) * 2.0**25
    assert odds * (1.0 - 1e-12) <= budget.stage1_time <= 2.0 * odds * (1.0 + 1e-12)
    assert budget.total_time == budget.stage1_time * budget.iterations


def test_optimize_x_at_n200_is_finite():
    x_opt, log2_total = optimize_x(200, 2, 1.0)
    assert abs(x_opt - 0.5) <= 0.01
    assert math.isfinite(log2_total)


def test_fit_scaling_slope_at_large_n():
    fit = fit_scaling(2, 1.0, 0.5, list(range(100, 301, 25)))
    assert abs(fit.slope - scaling_exponent(2, 1.0)) <= 1e-3


def test_optimize_x_costs_no_more_than_its_grid_points():
    # golden section used to settle on a step of the iteration ceiling above
    # the balanced split, which is a point of the default grid
    n, k, alpha = 29, 2, 0.5281654697832059
    _, log2_total = optimize_x(n, k, alpha)
    balanced = math.log2(model_time(PartitionModel(n, k, alpha, 0.5)).total_time)
    assert log2_total <= balanced
