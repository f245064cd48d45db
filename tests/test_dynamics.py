"""Schrodinger-picture checks for both simulated stages.

Reference computations never reuse the integrator under test: the shared
propagator is checked against one matrix exponential per step, stage one
against a general ODE solver on both schedules (on the local one it
integrates s(t) alongside the state), the decoupling claim against the same
solver on the four-dimensional tensor-product system, and stage two against
a per-step eigendecomposition of its Hamiltonian, built here from its two
projectors, and its dense-step adiabatic limit.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from nestedsearch import (
    AccuracyTarget,
    CensusScaleError,
    Constraint,
    CspInstance,
    EvolutionConfig,
    ScaleError,
    SchedulePoint,
    Stage2Calibration,
    SubsystemShape,
    calibrate_stage2,
    generate,
    run_nested_search,
    simulate_stage1,
    simulate_stage2,
    stage1_time,
    two_level_spectrum,
    verify_adiabatic_bound,
)
from nestedsearch import dynamics
from nestedsearch.dynamics import (
    _GAUSS_2,
    _MAX_STEP_DS,
    _NODE_CHUNK,
    MAX_STEPS,
    STAGE2_STEP_MULTIPLIER,
    STAGE2_STEP_TIME,
    _apply_steps,
    _local_inverse,
    _stage1_steps,
)


def restricted_matrix(s, ratio):
    a = math.sqrt(ratio)
    b = math.sqrt(1.0 - ratio)
    return np.array(
        [
            [s * (1.0 - ratio), -s * a * b],
            [-s * a * b, (1.0 - s) + s * ratio],
        ]
    )


def stepwise_reference(psi, ratio, s, dt):
    """psi after one scipy expm of the restricted H(s_k) dt_k per step."""
    state = np.array(psi, dtype=complex)
    for s_k, dt_k in zip(s, dt):
        state = expm(-1j * dt_k * restricted_matrix(s_k, ratio)) @ state
    return state


def assert_matches_stepwise_reference(ratio, s, dt, psi):
    got = _apply_steps(psi, ratio, s, dt)
    want = stepwise_reference(psi, ratio, s, dt)
    for amplitude, expected in zip(got, want):
        assert amplitude == pytest.approx(expected, abs=1e-12)


def random_state(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return tuple(complex(c) for c in psi / np.linalg.norm(psi))


# a level of the pairwise product with an odd count carries its last step up
# unchanged: 1023 has one such level, 5 two, 1025 all but its last, and the
# powers of two none
@pytest.mark.parametrize("length", [1, 2, 3, 5, 1023, 1024, 1025, 2048])
@pytest.mark.parametrize("ratio", [None, 1.0, 0.0])
def test_propagator_matches_stepwise_expm(length, ratio):
    rng = np.random.default_rng(length)
    if ratio is None:
        ratio = float(rng.uniform())
    s = rng.uniform(size=length)
    if ratio == 0.0:
        # at marked fraction 0 and s = 1/2, H is a multiple of the identity
        # and its gap w is exactly 0
        s[::2] = 0.5
    dt = rng.uniform(0.0, 50.0, size=length)
    assert_matches_stepwise_reference(ratio, s, dt, random_state(rng))


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 50.0)), min_size=1, max_size=64
    ),
    ratio=st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagator_matches_stepwise_expm_on_any_steps(steps, ratio, seed):
    s, dt = (np.array(column) for column in zip(*steps))
    assert_matches_stepwise_reference(ratio, s, dt, random_state(np.random.default_rng(seed)))


def test_degenerate_shapes_keep_perfect_fidelity():
    shapes = [SubsystemShape(8, 8), SubsystemShape(16, 16)]
    report = simulate_stage1(shapes, EvolutionConfig(total_time=250.0))
    assert report.final_fidelity == 1.0
    assert report.per_subsystem_fidelity == (1.0, 1.0)


@pytest.mark.parametrize(
    "dims, distinct", [(((64, 1), (64, 1)), 1), (((16, 1), (64, 2)), 2)]
)
def test_each_distinct_ratio_evolves_once_per_chunk(monkeypatch, dims, distinct):
    calls = []

    def counting(psi, ratio, s, dt):
        calls.append(ratio)
        return _apply_steps(psi, ratio, s, dt)

    monkeypatch.setattr(dynamics, "_apply_steps", counting)
    config = EvolutionConfig(total_time=20.0)
    chunks = math.ceil(config.resolved_steps() / _NODE_CHUNK)
    simulate_stage1([SubsystemShape(n, m) for n, m in dims], config)
    assert len(calls) == distinct * chunks


@pytest.mark.parametrize("schedule", ["linear", "local"])
def test_subsystems_of_one_ratio_share_their_fidelity(schedule):
    # 2/128 and 1/64 are the same double
    shapes = [SubsystemShape(64, 1), SubsystemShape(128, 2)]
    report = simulate_stage1(shapes, EvolutionConfig(total_time=30.0, schedule=schedule))
    first, second = report.per_subsystem_fidelity
    assert first == second
    assert 0.0 < first < 1.0


@pytest.mark.parametrize("schedule", ["linear", "local"])
def test_degenerate_shape_beside_a_live_ratio_of_one_keeps_fidelity_one(schedule):
    # the live shape's ratio rounds to 1.0, the degenerate shape's is 1.0;
    # at T = 3 the live state's norm drifts by rounding, so a degenerate
    # shape handed that state would read 1 - 4e-13
    live = SubsystemShape.from_log2(1e-17, 0)
    assert live.ratio == 1.0 and not live.degenerate
    shapes = [SubsystemShape(16, 16), live]
    report = simulate_stage1(shapes, EvolutionConfig(total_time=3.0, schedule=schedule))
    assert report.per_subsystem_fidelity[0] == 1.0


def reference_stage1_steps(s_at, total_time, steps):
    """_stage1_steps as written with one schedule call on the step edges
    and one on each set of Gauss nodes, every chunk."""
    h = total_time / steps
    near, far = _GAUSS_2[0]
    for k0 in range(0, steps, _NODE_CHUNK):
        k1 = min(k0 + _NODE_CHUNK, steps)
        x0 = np.arange(k0, k1 + 1.0)
        parts = np.ceil(np.diff(s_at(x0 / steps)) / _MAX_STEP_DS)
        x0 = x0[:-1]
        width = np.ones(k1 - k0)
        if parts.max() > 1.0:
            parts = np.maximum(parts, 1.0).astype(np.int64)
            width = np.repeat(1.0 / parts, parts)
            offset = np.arange(width.size) - np.repeat(np.cumsum(parts) - parts, parts)
            x0 = np.repeat(x0, parts) + offset * width
        yield s_at((x0 + near * width) / steps), s_at((x0 + far * width) / steps), h * width


@pytest.mark.parametrize("schedule", ["linear", "local"])
def test_stage1_steps_match_per_node_set_schedule_calls(schedule):
    # at epsilon 1 the local schedule splits its first and last chunks
    shapes = [SubsystemShape(1024, 1), SubsystemShape(1024, 1)]
    total = stage1_time(shapes, AccuracyTarget(1.0)).stage1_time
    steps = EvolutionConfig(total_time=total).resolved_steps()
    assert steps % _NODE_CHUNK != 0
    s_at = _local_inverse(shapes) if schedule == "local" else (lambda q: q)
    schedule_calls = []

    def counted_s_at(q):
        schedule_calls.append(q.size)
        return s_at(q)

    got = list(_stage1_steps(counted_s_at, total, steps))
    want = list(reference_stage1_steps(s_at, total, steps))
    assert len(got) == len(want) == math.ceil(steps / _NODE_CHUNK)
    for chunk, expected in zip(got, want):
        for values, reference in zip(chunk, expected):
            np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-15)
    lengths = [h.size for _, _, h in got]
    split = [size > _NODE_CHUNK for size in lengths[:-1]]
    if schedule == "local":
        assert split[0] and not all(split)
        assert lengths[-1] > steps % _NODE_CHUNK
    else:
        assert not any(split) and lengths[-1] == steps % _NODE_CHUNK
    # an unsplit chunk costs one schedule call, a split one three
    assert len(schedule_calls) == len(got) + 2 * (
        sum(split) + (lengths[-1] > steps % _NODE_CHUNK)
    )


def test_deep_adiabatic_run_matches_ode_oracle():
    shapes = [SubsystemShape(16, 1), SubsystemShape(16, 1)]
    budget = stage1_time(shapes)
    total = 100.0 * budget.stage1_time
    report = simulate_stage1(shapes, EvolutionConfig(total_time=total, schedule="linear"))
    assert report.final_fidelity >= 0.999
    oracle = ode_oracle([shape.ratio for shape in shapes], total, lambda s: 1.0 / total)
    for got, want in zip(report.per_subsystem_fidelity, oracle):
        assert got == pytest.approx(want, abs=1e-8)


def test_sudden_limit_recovers_ground_state_overlap():
    shapes = [SubsystemShape(1024, 1), SubsystemShape(1024, 1)]
    report = simulate_stage1(shapes, EvolutionConfig(total_time=1e-4, schedule="linear"))
    for fid in report.per_subsystem_fidelity:
        assert fid == pytest.approx(1.0 / 1024.0, abs=1e-3)
        assert fid == pytest.approx(1.0 / 1024.0, rel=1e-3)


def test_joint_fidelity_matches_tensor_product_oracle():
    shapes = [SubsystemShape(16, 1), SubsystemShape(64, 2)]
    total = 20.0
    report = simulate_stage1(shapes, EvolutionConfig(total_time=total, schedule="linear"))
    assert report.final_fidelity == pytest.approx(
        report.per_subsystem_fidelity[0] * report.per_subsystem_fidelity[1], abs=1e-10
    )

    eye = np.eye(2)
    r1, r2 = shapes[0].ratio, shapes[1].ratio

    def joint_h(s):
        return np.kron(restricted_matrix(s, r1), eye) + np.kron(eye, restricted_matrix(s, r2))

    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    sol = solve_ivp(
        lambda t, psi: -1j * (joint_h(t / total) @ psi),
        (0.0, total),
        psi0,
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    psi = sol.y[:, -1]
    g1 = np.array(two_level_spectrum(SchedulePoint(1.0), shapes[0]).ground_state)
    g2 = np.array(two_level_spectrum(SchedulePoint(1.0), shapes[1]).ground_state)
    oracle = abs(np.vdot(np.kron(g1, g2), psi)) ** 2
    assert report.final_fidelity == pytest.approx(oracle, abs=1e-8)


def ode_oracle(ratios, total, ds_dt):
    """Per-subsystem fidelities at time `total` by DOP853 on the real form of
    the joint system (psi, s), with ds/dt = ds_dt(s)."""

    def rhs(t, y):
        s = y[-1]
        out = []
        for i, r in enumerate(ratios):
            h = restricted_matrix(s, r)
            c0r, c0i, c1r, c1i = y[4 * i : 4 * i + 4]
            out += [
                h[0, 0] * c0i + h[0, 1] * c1i,
                -(h[0, 0] * c0r + h[0, 1] * c1r),
                h[1, 0] * c0i + h[1, 1] * c1i,
                -(h[1, 0] * c0r + h[1, 1] * c1r),
            ]
        out.append(ds_dt(s))
        return out

    y0 = [1.0, 0.0, 0.0, 0.0] * len(ratios) + [0.0]
    sol = solve_ivp(rhs, (0.0, total), y0, method="DOP853", rtol=1e-11, atol=1e-13)
    y = sol.y[:, -1]
    assert y[-1] == pytest.approx(1.0, abs=1e-8)
    fidelities = []
    for i, r in enumerate(ratios):
        a, b = math.sqrt(r), math.sqrt(1.0 - r)
        c0r, c0i, c1r, c1i = y[4 * i : 4 * i + 4]
        fidelities.append((a * c0r + b * c1r) ** 2 + (a * c0i + b * c1i) ** 2)
    return fidelities


def local_schedule_oracle(ratios, total):
    """ode_oracle of the local schedule, ds/dt = F(1) / (T f(s)), with F(1)
    from an adaptive quadrature of the integrand coded here."""

    def integrand(s):
        gaps_sq = [(1.0 - 2.0 * s) ** 2 + 4.0 * r * s * (1.0 - s) for r in ratios]
        return math.sqrt(sum(r * (1.0 - r) / w2**3 for r, w2 in zip(ratios, gaps_sq)))

    f1 = quad(integrand, 0.0, 1.0, points=[0.5], epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return ode_oracle(ratios, total, lambda s: f1 / (total * integrand(s)))


@pytest.mark.parametrize(
    "dims, epsilon, factor",
    [
        (((64, 1), (64, 1)), 0.1, 1.0),
        (((64, 1), (64, 1)), 0.1, 2.0),
        (((64, 1), (64, 1)), 0.1, 4.0),
        (((1024, 1), (128, 3)), 0.1, 1.0),
        # at epsilon 1 the sweep moves s by up to 0.23 per step near both
        # ends; unsplit, those steps miss the oracle by 6e-8
        (((1024, 1), (1024, 1)), 1.0, 1.0),
    ],
)
def test_local_schedule_matches_ode_oracle(dims, epsilon, factor):
    shapes = [SubsystemShape(n, m) for n, m in dims]
    total = factor * stage1_time(shapes, AccuracyTarget(epsilon)).stage1_time
    report = simulate_stage1(shapes, EvolutionConfig(total_time=total, schedule="local"))
    oracle = local_schedule_oracle([shape.ratio for shape in shapes], total)
    for got, want in zip(report.per_subsystem_fidelity, oracle):
        assert got == pytest.approx(want, abs=1e-8)


def test_adiabatic_ladder_monotone_and_second_order():
    shapes = [SubsystemShape(64, 1), SubsystemShape(64, 1)]
    report = verify_adiabatic_bound(shapes, AccuracyTarget(0.1))
    assert report.time_factors == (1.0, 2.0, 4.0)
    assert report.infidelities[0] > report.infidelities[1] > report.infidelities[2]
    assert report.infidelities[2] <= report.infidelities[0] / 8.0
    assert report.decay_order > 1.0
    assert report.stage1_time == stage1_time(shapes, AccuracyTarget(0.1)).stage1_time


def test_adiabatic_bound_requires_small_ratios():
    with pytest.raises(ValueError):
        verify_adiabatic_bound([SubsystemShape(8, 1), SubsystemShape(64, 1)], AccuracyTarget(0.5))


def test_stage2_success_is_one_when_everything_solves():
    report = simulate_stage2(4, 4, 16, steps=0, step_time=1.0)
    assert report.success_probability == 1.0
    report = simulate_stage2(4, 4, 16, steps=50, step_time=2.0)
    assert report.success_probability == pytest.approx(1.0, abs=1e-12)


def stage2_oracle(m_a, m_b, m_ab, steps, step_time):
    """Success probability of stage two by diagonalizing, at each step l,
    (1 - s) (1 - |init><init|) + s (1 - |sol><sol|) with s = l / steps on the
    {solution, non-solution} basis, and applying its exact exponential."""
    r = m_ab / (m_a * m_b)
    init = np.array([math.sqrt(r), math.sqrt(1.0 - r)])
    h_initial = np.eye(2) - np.outer(init, init)
    h_final = np.diag([0.0, 1.0])
    psi = init.astype(complex)
    for step in range(1, steps + 1):
        s = step / steps
        energies, vectors = np.linalg.eigh((1.0 - s) * h_initial + s * h_final)
        psi = vectors @ (np.exp(-1j * energies * step_time) * (vectors.T @ psi))
    return abs(psi[0]) ** 2


@pytest.mark.parametrize(
    "m_a, m_b, m_ab, steps, step_time",
    [
        (16, 16, 1, 48, STAGE2_STEP_TIME),  # the frozen reference point
        (64, 64, 3, 111, STAGE2_STEP_TIME),
        (9, 20, 6, 18, STAGE2_STEP_TIME),
        (5, 3, 2, 200, 0.7),
        (1024, 1024, 1, 3000, 2.5),
        (7, 5, 35, 10, 1.0),  # the product state is the solution state
    ],
)
def test_stage2_matches_eigendecomposition_oracle(m_a, m_b, m_ab, steps, step_time):
    report = simulate_stage2(m_a, m_b, m_ab, steps=steps, step_time=step_time)
    oracle = stage2_oracle(m_a, m_b, m_ab, steps, step_time)
    assert report.success_probability == pytest.approx(oracle, abs=1e-9)


def test_stage2_reference_point_at_frozen_calibration():
    iterations = 16  # sqrt(16 * 16 / 1)
    report = simulate_stage2(
        16, 16, 1, steps=STAGE2_STEP_MULTIPLIER * iterations, step_time=STAGE2_STEP_TIME
    )
    assert report.success_probability >= 0.9


def test_stage2_dense_steps_reach_adiabatic_limit():
    report = simulate_stage2(16, 16, 1, steps=10000, step_time=0.3)
    assert report.success_probability >= 1.0 - 1e-3


def test_stage2_success_monotone_in_total_time():
    values = []
    for doubling in range(5):
        total = 256.0 * 2**doubling
        report = simulate_stage2(16, 16, 1, steps=4000, step_time=total / 4000.0)
        values.append(report.success_probability)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_calibration_reproduces_frozen_constants():
    calibration = calibrate_stage2()
    assert calibration == Stage2Calibration(
        step_multiplier=STAGE2_STEP_MULTIPLIER,
        step_time=STAGE2_STEP_TIME,
        reference_time=2048.0,
    )


def test_stage2_validation():
    with pytest.raises(ValueError, match="no global solution"):
        simulate_stage2(4, 4, 0, steps=8, step_time=1.0)
    with pytest.raises(ValueError):
        simulate_stage2(4, 4, 17, steps=8, step_time=1.0)
    with pytest.raises(ValueError):
        simulate_stage2(4, 4, 2, steps=8, step_time=-1.0)


def test_nested_search_on_unconstrained_instance():
    report = run_nested_search(generate(8, 2, 0.0, 0.5, seed=5))
    assert report.iterations == 1
    assert report.total_time == 0.0
    assert report.stage1.final_fidelity == 1.0
    assert report.stage2.success_probability == 1.0


def test_nested_search_on_worked_example():
    inst = CspInstance(
        n=4, k=2, partition_a=(0, 1), constraints=(Constraint((0, 2), (1, 1)),)
    )
    report = run_nested_search(inst)
    assert report.iterations == 2  # ceil(sqrt(16 / 12))
    assert report.counts.m_ab == 12
    # the lone constraint is cross, so both sides are locally free and
    # stage one has nothing to do
    assert report.stage1.final_fidelity == 1.0
    assert 0.0 < report.stage2.success_probability <= 1.0


def test_nested_search_on_seeded_instance():
    inst = generate(12, 2, 1.0, 0.5, seed=27)
    report = run_nested_search(inst, AccuracyTarget(0.5))
    assert report.counts.m_ab >= 1
    assert report.stage2.success_probability >= 0.8
    assert report.stage1.norm_error < 1e-8
    assert report.stage2.norm_error < 1e-8


def test_nested_search_rejects_unsatisfiable_instances():
    all_patterns = tuple(
        Constraint((0, 1), bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    inst = CspInstance(n=4, k=2, partition_a=(0, 1), constraints=all_patterns)
    with pytest.raises(ValueError, match="locally unsatisfiable"):
        run_nested_search(inst)


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(total_time=-1.0)
    # zero time is legal: it is the sudden limit, and degenerate budgets
    # feed it through the end-to-end runner
    assert EvolutionConfig(total_time=0.0).resolved_steps() == 1000
    assert EvolutionConfig(total_time=10.0, schedule="local").schedule == "local"
    with pytest.raises(ValueError):
        EvolutionConfig(total_time=10.0, schedule="quadratic")
    assert EvolutionConfig(total_time=0.5).resolved_steps() == 1000
    assert EvolutionConfig(total_time=100.0).resolved_steps() == 10000
    with pytest.raises(ValueError, match="finite"):
        EvolutionConfig(total_time=math.inf)


def test_step_guard_refuses_runs_past_max_steps():
    assert EvolutionConfig(total_time=MAX_STEPS / 100.0).resolved_steps() == MAX_STEPS
    with pytest.raises(ScaleError, match="stage-one simulation refused"):
        EvolutionConfig(total_time=MAX_STEPS / 100.0 + 1.0)
    with pytest.raises(ScaleError, match="stage-two simulation refused"):
        simulate_stage2(16, 16, 1, steps=MAX_STEPS + 1, step_time=1.0)
    # the census guard is the same kind of refusal
    assert issubclass(CensusScaleError, ScaleError)


def test_adiabatic_bound_refuses_before_its_first_run():
    # 1 and 2 T1 fit under the guard (about 3.6e6 and 7.2e6 steps), 4 T1
    # does not; all three are refused before any of them runs
    shapes = [SubsystemShape(2**16, 1)] * 2
    start = time.perf_counter()
    with pytest.raises(ScaleError):
        verify_adiabatic_bound(shapes, AccuracyTarget(0.01))
    assert time.perf_counter() - start < 1.0


def test_bound_report_flags_a_ladder_that_is_not_monotone():
    report = verify_adiabatic_bound([SubsystemShape(256, 1)] * 2, AccuracyTarget(1.0))
    assert report.infidelities[2] > report.infidelities[1]
    assert not report.monotone
    assert math.isfinite(report.decay_order)


def test_bound_report_criterion_8_ladder_is_monotone():
    report = verify_adiabatic_bound([SubsystemShape(64, 1)] * 2, AccuracyTarget(0.1))
    assert report.monotone
    assert report.infidelities == pytest.approx((0.02384, 0.009873, 1.182e-5), rel=1e-3)
