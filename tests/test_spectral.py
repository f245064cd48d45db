"""Two-level spectrum checks against independent matrix diagonalization.

The reference oracle here never reuses the closed forms under test: it
assembles the restricted Hamiltonian from the projector definition (either
in the orthonormalized 2-space or, for small sizes, as the full dense
matrix) and diagonalizes it with numpy.
"""

import math
import random

import numpy as np
import pytest

from nestedsearch import (
    SchedulePoint,
    SubsystemShape,
    gap,
    transition_strength,
    two_level_spectrum,
)


def restricted_matrix(s: float, ratio: float) -> np.ndarray:
    """Independent 2x2 assembly: project f(1-P_u) + g(1-P_m) onto the
    Gram-Schmidt basis {e1 = u, e2 = (m - a u)/b} with a = sqrt(ratio)."""
    a = math.sqrt(ratio)
    b = math.sqrt(1.0 - ratio)
    f, g = 1.0 - s, s
    # <ei| H |ej> with P_u = e1 e1^T and P_m = (a e1 + b e2)(a e1 + b e2)^T
    h = f * (np.eye(2) - np.outer([1.0, 0.0], [1.0, 0.0]))
    m_vec = np.array([a, b])
    h += g * (np.eye(2) - np.outer(m_vec, m_vec))
    return h


def full_space_matrix(s: float, solutions: int, dimension: int) -> np.ndarray:
    """Dense N-dimensional Hamiltonian for small N: marked states first."""
    u = np.full(dimension, 1.0 / math.sqrt(dimension))
    m = np.zeros(dimension)
    m[:solutions] = 1.0 / math.sqrt(solutions)
    eye = np.eye(dimension)
    return (1.0 - s) * (eye - np.outer(u, u)) + s * (eye - np.outer(m, m))


def test_gap_is_one_at_both_endpoints():
    for dim, sol in [(4, 1), (2**40, 1), (1024, 512), (7, 7)]:
        shape = SubsystemShape(dim, sol)
        assert gap(SchedulePoint(0.0), shape) == 1.0
        assert gap(SchedulePoint(1.0), shape) == 1.0


def test_gap_midpoint_quarter_ratio():
    shape = SubsystemShape(4, 1)
    assert gap(SchedulePoint(0.5), shape) == 0.5


def test_gap_near_endpoint_for_tiny_ratio():
    shape = SubsystemShape(2**40, 1)
    assert gap(SchedulePoint(0.25), shape) == pytest.approx(0.5, abs=1e-6)


def test_gap_symmetry_and_minimum_on_dense_grid():
    rng = random.Random(5)
    grid = np.linspace(0.0, 1.0, 1001)
    for _ in range(20):
        n_log = rng.randint(2, 60)
        m_log = rng.randint(0, n_log - 1)
        shape = SubsystemShape.from_log2(float(n_log), float(m_log))
        values = np.array([gap(SchedulePoint(float(s)), shape) for s in grid])
        assert abs(values.min() - math.sqrt(shape.ratio)) < 1e-9
        assert grid[values.argmin()] == pytest.approx(0.5, abs=1e-9)
        for s in (0.11, 0.3, 0.47):
            assert gap(SchedulePoint(s), shape) == pytest.approx(
                gap(SchedulePoint(1.0 - s), shape), rel=1e-14
            )


def test_transition_strength_examples():
    assert transition_strength(SubsystemShape(4, 4)) == 0.0
    assert transition_strength(SubsystemShape(17, 17)) == 0.0
    assert transition_strength(SubsystemShape(4, 1)) == pytest.approx(
        math.sqrt(3.0) / 4.0, rel=1e-12
    )
    assert transition_strength(SubsystemShape(1024, 2)) == pytest.approx(
        math.sqrt(511.0) / 512.0, rel=1e-12
    )


def test_transition_strength_single_interior_maximum():
    # Strength rises then falls in the marked fraction, peaking inside (0, 1).
    ratios = np.logspace(-8, 0, 60, base=2.0)
    values = [transition_strength(SubsystemShape(1.0 / r, 1.0)) for r in ratios]
    diffs = np.sign(np.diff(values))
    changes = np.flatnonzero(np.diff(diffs) != 0)
    assert len(changes) == 1
    assert values[0] < max(values) and values[-1] < max(values)


def test_spectrum_matches_two_by_two_oracle():
    cases = [(0.3, 1, 16), (0.5, 1, 4), (0.2, 3, 8), (0.77, 5, 6), (0.94, 1, 1024)]
    for s, sol, dim in cases:
        shape = SubsystemShape(dim, sol)
        spectrum = two_level_spectrum(SchedulePoint(s), shape)
        reference = np.linalg.eigvalsh(restricted_matrix(s, shape.ratio))
        assert spectrum.ground_energy == pytest.approx(reference[0], abs=1e-10)
        assert spectrum.excited_energy == pytest.approx(reference[1], abs=1e-10)


def test_spectrum_matches_full_space_oracle():
    for s, sol, dim in [(0.3, 1, 16), (0.6, 3, 8), (0.45, 2, 12)]:
        shape = SubsystemShape(dim, sol)
        spectrum = two_level_spectrum(SchedulePoint(s), shape)
        eigs = np.linalg.eigvalsh(full_space_matrix(s, sol, dim))
        assert spectrum.ground_energy == pytest.approx(eigs[0], abs=1e-10)
        assert spectrum.excited_energy == pytest.approx(eigs[1], abs=1e-10)
        # everything outside the two-dimensional span sits at energy 1
        assert np.allclose(eigs[2:], 1.0, atol=1e-10)


def test_energy_difference_equals_gap_on_random_triples():
    rng = random.Random(31)
    for _ in range(100):
        s = rng.random()
        n_log = rng.randint(1, 20)
        dim = 2**n_log
        sol = rng.randint(1, dim - 1)
        shape = SubsystemShape(dim, sol)
        spectrum = two_level_spectrum(SchedulePoint(s), shape)
        width = spectrum.excited_energy - spectrum.ground_energy
        assert width == pytest.approx(gap(SchedulePoint(s), shape), rel=1e-12)
        v = np.array(spectrum.ground_state)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        if not spectrum.degenerate:
            h = restricted_matrix(s, shape.ratio)
            assert np.linalg.norm(h @ v - spectrum.ground_energy * v) < 1e-10


def test_ground_state_at_endpoints():
    shape = SubsystemShape(64, 4)
    start = two_level_spectrum(SchedulePoint(0.0), shape)
    assert start.ground_energy == pytest.approx(0.0, abs=1e-15)
    assert start.ground_state == pytest.approx((1.0, 0.0), abs=1e-12)

    end = two_level_spectrum(SchedulePoint(1.0), shape)
    a = math.sqrt(shape.ratio)
    b = math.sqrt(1.0 - shape.ratio)
    assert end.ground_energy == pytest.approx(0.0, abs=1e-15)
    assert end.ground_state == pytest.approx((a, b), abs=1e-12)


def test_degenerate_shape_collapses_cleanly():
    shape = SubsystemShape(8, 8)
    assert shape.degenerate
    spectrum = two_level_spectrum(SchedulePoint(0.4), shape)
    assert spectrum.degenerate
    assert spectrum.ground_energy == 0.0
    assert spectrum.excited_energy == 0.0
    assert spectrum.ground_state == (1.0, 0.0)
    # the gap formula itself stays pinned at 1 for a fully marked space
    assert gap(SchedulePoint(0.4), shape) == 1.0


def test_shape_ratio_survives_huge_dimensions():
    shape = SubsystemShape.from_log2(2000.0, 500.0)
    assert shape.dimension == math.inf
    assert shape.ratio == pytest.approx(2.0**-1500, rel=1e-12)
    exact = SubsystemShape.from_log2(40.0, 0.0)
    assert exact.ratio == 2.0**-40


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SubsystemShape(4, 5)
    with pytest.raises(ValueError):
        SubsystemShape(4, 0)
    with pytest.raises(ValueError):
        SubsystemShape(0, 0)
    with pytest.raises(ValueError):
        SubsystemShape.from_log2(3.0, 4.0)
    with pytest.raises(ValueError):
        SchedulePoint(-0.1)
    with pytest.raises(ValueError):
        SchedulePoint(1.1)
    point = SchedulePoint(0.25)
    assert point.f + point.g == 1.0


def test_schedule_weights_sum_to_one_exactly():
    # for s >= 1/2, 1 - s is exact (Sterbenz); below, fl(1 - s) is within
    # 2^-54 of 1 - s and adding s back rounds to 1.0, ties to even included
    rng = random.Random(5)
    edges = [0.0, 5e-324, 2.0**-54, 2.0**-53, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0]
    uniform = [rng.random() for _ in range(50_000)]
    log_uniform = [2.0 ** -rng.uniform(0.0, 1074.0) for _ in range(50_000)]
    for s in edges + uniform + log_uniform:
        point = SchedulePoint(s)
        assert point.f + point.g == 1.0, s
