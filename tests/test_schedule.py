"""Stage-one quadrature and composition checks.

The quadrature oracle is a composite Gauss-Legendre rule with one million
nodes, built here from numpy's leggauss and nothing from the module under
test except the shape type.  For equal shape pairs there is also a closed
form: the integral of 1/gap^3 over the schedule is exactly the inverse
marked fraction, so a pair of identical shapes has minimal time
sqrt(2) * sqrt(N/M - 1) at accuracy 1.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedsearch import (
    AccuracyTarget,
    SubsystemShape,
    approx_stage1_time,
    approx_total_time,
    stage1_time,
    stage2_iterations,
    total_time,
)


def reference_quadrature(shapes: list[SubsystemShape], panels: int = 20000, order: int = 50) -> float:
    """Composite Gauss-Legendre integration of sqrt(sum xi^2 / gap^6)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    s = (mid[:, None] + half * nodes[None, :]).ravel()
    w = np.tile(half * weights, panels)

    total = np.zeros_like(s)
    for shape in shapes:
        r = shape.ratio
        xi_sq = r * (1.0 - r)
        gap_sq = (1.0 - 2.0 * s) ** 2 + 4.0 * r * s * (1.0 - s)
        total += xi_sq / gap_sq**3
    return float(np.sum(w * np.sqrt(total)))


def equal_pair_closed_form(ratio: float) -> float:
    return math.sqrt(2.0) * math.sqrt(1.0 / ratio - 1.0)


def test_degenerate_shapes_need_no_time():
    budget = stage1_time([SubsystemShape(8, 8), SubsystemShape(4, 4)])
    assert budget.stage1_time == 0.0
    assert budget.degenerate
    assert budget.iterations == 1
    assert budget.total_time == 0.0


def test_stage1_time_matches_reference_quadrature():
    pairs = [
        [SubsystemShape(4, 1), SubsystemShape(4, 1)],
        [SubsystemShape(64, 3), SubsystemShape(32, 5)],
        [SubsystemShape(2**10, 1), SubsystemShape(2**6, 1)],
    ]
    for shapes in pairs:
        budget = stage1_time(shapes)
        assert budget.stage1_time == pytest.approx(reference_quadrature(shapes), rel=1e-6)


def test_stage1_time_closed_form_for_equal_pairs():
    shapes = [SubsystemShape(4, 1), SubsystemShape(4, 1)]
    assert stage1_time(shapes).stage1_time == pytest.approx(math.sqrt(6.0), rel=1e-9)
    for exponent in (4, 10, 20):
        ratio = 2.0**-exponent
        shapes = [SubsystemShape(2**exponent, 1)] * 2
        assert stage1_time(shapes).stage1_time == pytest.approx(
            equal_pair_closed_form(ratio), rel=1e-7
        )


def test_permutation_symmetry_is_exact():
    a = SubsystemShape(2**20, 7)
    b = SubsystemShape(2**13, 3)
    forward = stage1_time([a, b]).stage1_time
    backward = stage1_time([b, a]).stage1_time
    assert forward == backward


def test_epsilon_scales_time_exactly():
    shapes = [SubsystemShape(256, 1), SubsystemShape(128, 2)]
    base = stage1_time(shapes, AccuracyTarget(1.0)).stage1_time
    halved = stage1_time(shapes, AccuracyTarget(0.5)).stage1_time
    quartered = stage1_time(shapes, AccuracyTarget(0.25)).stage1_time
    assert halved == 2.0 * base
    assert quartered == 4.0 * base


def test_stage2_iterations_examples():
    assert stage2_iterations(256, 256, 1) == 256
    assert stage2_iterations(10, 10, 3) == 6
    assert stage2_iterations(7, 9, 63) == 1
    assert stage2_iterations(2**30, 2**30, 1) == 2**30
    # huge exact integers stay exact through the integer square-root path
    assert stage2_iterations(2**62, 2**62, 4) == 2**61


def test_stage2_iterations_errors():
    with pytest.raises(ValueError, match="no global solution"):
        stage2_iterations(4, 4, 0)
    with pytest.raises(ValueError):
        stage2_iterations(4, 4, 17)


def test_total_time_composes_exactly():
    shapes = [SubsystemShape(4, 1), SubsystemShape(4, 1)]
    budget = total_time(shapes, 1)
    assert budget.iterations == 1
    assert budget.total_time == budget.stage1_time

    triple = [SubsystemShape(16, 2)] * 3
    budget = total_time(triple, 2)
    assert budget.iterations == 2  # ceil(sqrt(2*2*2 / 2))
    assert budget.total_time == budget.stage1_time * 2
    assert budget.stage1_time == pytest.approx(reference_quadrature(triple), rel=1e-6)


def test_total_time_one_iteration_when_everything_solves():
    shapes = [SubsystemShape(8, 2), SubsystemShape(8, 4)]
    budget = total_time(shapes, 8)
    assert budget.iterations == 1
    assert budget.total_time == budget.stage1_time


def test_approx_stage1_time_examples():
    assert approx_stage1_time([SubsystemShape(5, 5), SubsystemShape(9, 9)]) == 1.0
    assert approx_stage1_time([SubsystemShape(64, 1), SubsystemShape(16, 1)]) == 8.0
    assert approx_stage1_time(
        [SubsystemShape(1024, 4), SubsystemShape(1024, 2)]
    ) == pytest.approx(math.sqrt(512.0), rel=1e-12)


def test_approx_total_time_examples():
    shapes = [SubsystemShape(16, 16), SubsystemShape(16, 16)]
    assert approx_total_time(shapes, 256) == pytest.approx(1.0, rel=1e-12)
    shapes = [SubsystemShape(16, 1), SubsystemShape(16, 1)]
    assert approx_total_time(shapes, 1) == pytest.approx(4.0, rel=1e-12)
    shapes = [SubsystemShape(64, 3), SubsystemShape(32, 5)]
    assert approx_total_time(shapes, 2) == pytest.approx(math.sqrt(160.0), rel=1e-12)
    with pytest.raises(ValueError):
        approx_total_time([SubsystemShape(4, 1)], 1)


@settings(max_examples=300, deadline=None)
@given(exponents=st.lists(st.floats(0.0, 1500.0), min_size=1, max_size=6))
def test_quadrature_error_estimate_is_at_rounding_level(exponents):
    # the 16- and 8-point rules agree to rounding at every scale, which is
    # why one pass of each is the whole quadrature
    budget = stage1_time([SubsystemShape.from_log2(e, 0.0) for e in exponents])
    assert budget.quadrature_error_estimate <= 1e-13 * budget.stage1_time


def test_quadrature_tracks_approx_within_constant_band():
    # over three decades of N/M the ratio to the closed-form stand-in stays
    # inside a narrow band, so the stand-in is a faithful scaling proxy
    rng = random.Random(11)
    ratios = []
    for scale in (8, 13, 18, 23, 28):
        for _ in range(6):
            r1 = 2.0 ** (-scale + rng.uniform(-1.0, 1.0))
            r2 = 2.0 ** (-scale + rng.uniform(-1.0, 1.0))
            shapes = [SubsystemShape(1.0 / r1, 1.0), SubsystemShape(1.0 / r2, 1.0)]
            ratios.append(stage1_time(shapes).stage1_time / approx_stage1_time(shapes))
    assert min(ratios) > 1.0
    assert max(ratios) < 4.0
    assert max(ratios) / min(ratios) < 2.0


def test_stage1_time_monotone_in_solution_count():
    partner = SubsystemShape(64, 1)
    times = [
        stage1_time([SubsystemShape(256, m), partner]).stage1_time for m in (1, 2, 4, 8, 16)
    ]
    assert all(t1 >= t2 for t1, t2 in zip(times, times[1:]))


def test_budget_invariants():
    budget = total_time([SubsystemShape(256, 2), SubsystemShape(512, 3)], 5)
    assert budget.total_time == budget.stage1_time * budget.iterations
    assert budget.quadrature_error_estimate >= 0.0


def test_validation():
    with pytest.raises(ValueError):
        stage1_time([])
    with pytest.raises(ValueError):
        AccuracyTarget(0.0)
    with pytest.raises(ValueError):
        AccuracyTarget(1.5)
    assert AccuracyTarget().epsilon == 1.0


# Oracles in log2, exact down to 2^-1500: sqrt((1-r)/r) for r = 2^log2_r.
def sqrt_odds(log2_r: float) -> float:
    return math.sqrt(-math.expm1(log2_r * math.log(2.0))) * 2.0 ** (-0.5 * log2_r)


@pytest.mark.parametrize("exponent", [10, 40, 100, 1000, 1500])
@pytest.mark.parametrize("count", [1, 2])
def test_stage1_time_closed_forms_down_to_tiny_ratios(exponent, count):
    # one subsystem gives sqrt((1-r)/r), an equal pair sqrt(2 (1-r)/r)
    shapes = [SubsystemShape.from_log2(float(exponent), 0.0)] * count
    budget = stage1_time(shapes)
    assert not budget.degenerate
    assert budget.stage1_time == pytest.approx(
        math.sqrt(count) * sqrt_odds(-float(exponent)), rel=1e-12
    )


def test_shape_is_degenerate_only_when_its_logs_are_equal():
    # the ratio underflows to 0.0 here, and rounds to 1.0 in the second case
    for log2_dimension, log2_solutions in ((1500.0, 0.0), (1e-17, 0.0)):
        shape = SubsystemShape.from_log2(log2_dimension, log2_solutions)
        assert not shape.degenerate
        budget = stage1_time([shape])
        assert not budget.degenerate
        assert budget.stage1_time == pytest.approx(
            sqrt_odds(log2_solutions - log2_dimension), rel=1e-12
        )
    assert SubsystemShape.from_log2(1500.0, 0.0).ratio == 0.0
    assert stage1_time([SubsystemShape.from_log2(7.0, 7.0)]).degenerate


# Ratios 2^-e from 2^-1000 to 1.  Below e = 1e-308 or so, 1 - r is a
# subnormal double with next to no relative precision, in the shape as in
# the oracle, so e is either 0 (fully marked) or at least 1e-300.
ratio_exponents = st.one_of(st.just(0.0), st.floats(1e-300, 1000.0))


@settings(max_examples=200, deadline=None)
@given(
    exponents=st.lists(ratio_exponents, min_size=1, max_size=4),
    epsilon=st.floats(0.01, 1.0),
)
def test_stage1_time_sandwich(exponents, epsilon):
    # sqrt(sum a_i^2) lies between max a_i and sum a_i, and the integral of
    # a_i alone is sqrt((1-r_i)/r_i)
    shapes = [SubsystemShape.from_log2(e, 0.0) for e in exponents]
    odds = [sqrt_odds(-e) for e in exponents]
    scaled = epsilon * stage1_time(shapes, AccuracyTarget(epsilon)).stage1_time
    assert max(odds) * (1.0 - 1e-12) <= scaled <= sum(odds) * (1.0 + 1e-12)


def test_stage1_time_returns_python_floats():
    budget = total_time([SubsystemShape(2**20, 7), SubsystemShape(2**13, 3)], 2)
    assert type(budget.stage1_time) is float
    assert type(budget.total_time) is float
    assert type(budget.quadrature_error_estimate) is float


def test_package_import_leaves_scipy_out():
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    code = "import sys, nestedsearch; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
