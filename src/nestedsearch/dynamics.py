"""Direct time-dependent simulation of both search stages.

Stage one integrates the Schrodinger equation per subsystem in its two-level
subspace with a fixed-step fourth-order Runge-Kutta scheme, under either the
linear schedule s = t/T or the local adiabatic schedule of Roland and Cerf
(PRA 65, 042308 (2002)), dt/ds proportional to the joint stage-one integrand
sqrt(sum_i xi_i^2 / w_i(s)^6).  The stage-one budget T1 of `schedule` is the
running time of that local schedule, so the checks that spend or verify T1
(verify_adiabatic_bound, run_nested_search) run it; simulate_stage1 runs
whichever schedule its EvolutionConfig names, linear by default.  Subsystems
evolve independently on one shared schedule, so the joint fidelity is the
product of the per-subsystem ones.  Stage two applies the exact
piecewise-constant propagator exp(-i H(s_l) dt) on the two-dimensional span
of the product state of local-solution superpositions and the global-solution
superposition.

The stage-two step count is a calibrated multiple of the iteration estimate
sqrt(M_A M_B / M_AB): STAGE2_STEP_MULTIPLIER coarse steps per iteration, each
of duration STAGE2_STEP_TIME.  Both constants are frozen artifacts of
calibrate_stage2() on the (M_A, M_B, M_AB) = (16, 16, 1) reference problem
and can be regenerated with that function.

Neither stage runs more than MAX_STEPS steps: a longer run is refused with
ScaleError before any step is taken.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .csp import CspInstance, ScaleError, SolutionCensus, census, shapes_from_census
from .schedule import (
    AccuracyTarget,
    TimeBudget,
    _gauss_legendre,
    _stretched_density,
    _stretched_terms,
    stage1_time,
    total_time,
)
from .spectral import SubsystemShape, _exp2

__all__ = [
    "EvolutionConfig",
    "SimulationReport",
    "AdiabaticBoundReport",
    "NestedSearchReport",
    "Stage2Calibration",
    "STAGE2_STEP_MULTIPLIER",
    "STAGE2_STEP_TIME",
    "MAX_STEPS",
    "simulate_stage1",
    "verify_adiabatic_bound",
    "simulate_stage2",
    "calibrate_stage2",
    "run_nested_search",
]

# Frozen by calibrate_stage2() on the (16, 16, 1) reference; see that
# function's docstring for the procedure.
STAGE2_STEP_MULTIPLIER = 3
STAGE2_STEP_TIME = 42.666666666666664

# Largest step count either stage runs; stage one's local schedule may add
# up to 1/_MAX_STEP_DS split steps on top.
MAX_STEPS = 10_000_000

# verify_adiabatic_bound: run times, in units of T1, of the infidelity ladder
_BOUND_TIME_FACTORS = (1.0, 2.0, 4.0)

_MAX_STEP_NORM_DRIFT = 1e-9
_MAX_TOTAL_NORM_ERROR = 1e-8

_SCHEDULES = ("linear", "local")

# RK4 steps whose schedule values are built and turned into Python floats at
# a time, so that long runs never hold a list of every step
_NODE_CHUNK = 1024
# local schedule: largest change of s within one RK4 step, and the panels per
# unit of the stretched variable v of its table, with the 4-point
# Gauss-Legendre rule on each panel
_MAX_STEP_DS = 0.02
_PANELS_PER_UNIT = 128
_GAUSS_4 = _gauss_legendre(4)


@dataclass(frozen=True)
class EvolutionConfig:
    """Fixed-step integration setup for stage one.

    steps defaults to max(1000, ceil(100 * total_time)), which keeps the
    per-step norm drift of the RK4 scheme far below the enforced bound.
    schedule is "linear" (s = t/T, the default) or "local": s(t) inverts
    t(s) = T F(s)/F(1), where F(s) is the integral from 0 to s of the joint
    stage-one integrand of the simulated shapes, so that a run of T = T1
    sweeps at the local adiabatic rate the budget T1 is derived for.  Under
    "local", steps in which s would move more than _MAX_STEP_DS are split,
    which adds at most 1/_MAX_STEP_DS steps.  More than MAX_STEPS steps is
    refused with ScaleError.
    """

    total_time: float
    steps: int | None = None
    schedule: str = "linear"

    def __post_init__(self) -> None:
        if self.total_time < 0.0:
            raise ValueError(f"total_time must be non-negative, got {self.total_time}")
        if not math.isfinite(self.total_time):
            raise ValueError(f"total_time must be finite, got {self.total_time}")
        if self.schedule not in _SCHEDULES:
            raise ValueError(
                f"schedule must be one of {', '.join(_SCHEDULES)}, got {self.schedule!r}"
            )
        if self.steps is not None and self.steps < 100:
            raise ValueError(f"steps must be at least 100, got {self.steps}")
        _check_steps(self.resolved_steps(), "stage-one")

    def resolved_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return max(1000, math.ceil(100.0 * self.total_time))


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one simulated evolution.

    Stage-one reports fill per_subsystem_fidelity and their product
    final_fidelity; stage-two reports also set success_probability, the
    squared overlap with the global-solution superposition.
    """

    final_fidelity: float
    per_subsystem_fidelity: tuple[float, ...]
    norm_error: float
    success_probability: float | None = None


@dataclass(frozen=True)
class AdiabaticBoundReport:
    """Infidelities of stage-one runs at multiples of T1.

    decay_order is minus the slope of a log-log fit of infidelity against
    the time factor.  It describes a decay only when `monotone` is set, i.e.
    when each longer run leaves a strictly smaller infidelity.
    """

    stage1_time: float
    time_factors: tuple[float, ...]
    infidelities: tuple[float, ...]
    decay_order: float
    monotone: bool


@dataclass(frozen=True)
class Stage2Calibration:
    step_multiplier: int
    step_time: float
    reference_time: float


@dataclass(frozen=True)
class NestedSearchReport:
    counts: SolutionCensus
    budget: TimeBudget
    stage1: SimulationReport
    stage2: SimulationReport
    iterations: int
    total_time: float


class IntegrationError(RuntimeError):
    """Integrator step too coarse for the requested evolution."""


def _check_steps(steps: int, stage: str) -> None:
    if steps > MAX_STEPS:
        raise ScaleError(
            f"{stage} simulation refused: {steps} steps exceed the step guard ({MAX_STEPS})"
        )


# (s(t), s(t + h/2), s(t + h), h) of one RK4 step
Step = tuple[float, float, float, float]


def _linear_steps(total_time: float, steps: int) -> Callable[[], Iterator[Step]]:
    """The RK4 steps of s = t/T: `steps` steps of length T/steps."""
    h = total_time / steps
    inv_t = 1.0 / total_time

    def step_iter() -> Iterator[Step]:
        for k0 in range(0, steps, _NODE_CHUNK):
            t = np.arange(k0, min(k0 + _NODE_CHUNK, steps)) * h
            yield from zip(
                (t * inv_t).tolist(),
                ((t + 0.5 * h) * inv_t).tolist(),
                ((t + h) * inv_t).tolist(),
                itertools.repeat(h, t.size),
            )

    return step_iter


def _local_inverse(shapes: list[SubsystemShape]) -> Callable[[np.ndarray], np.ndarray]:
    """The map q = t/T -> s of the local schedule t(s) = T F(s)/F(1).

    The joint integrand f depends on s only through u = |1 - 2s|, so half of
    F is tabulated as P(u) = (1/2) * integral_0^u f, on panels uniform in the
    stretched variable v of `schedule`, u = a sinh(v) with a = sqrt(min r):
    the panels are a fraction of a wide at the gap minimum and widen
    geometrically into the tails.  dP/dv is proportional to the stretched
    density g(v) that stage1_time integrates.  Gauss-Legendre gives each
    panel's share of P, and cubic Hermite interpolation of v(P), with
    dv/dP = 1/(dP/dv) at both panel ends, inverts it.  A time q has
    P(u) = P(1) |1 - 2q| and lies on the side of s = 1/2 that q does.
    """
    terms = _stretched_terms(shapes)
    if terms is None:
        raise ValueError("the local schedule needs a subsystem that is not fully marked")
    a = _exp2(0.5 * terms[0])
    v_end = math.asinh(1.0 / a)
    panels = max(64, math.ceil(_PANELS_PER_UNIT * v_end))
    v = np.linspace(0.0, v_end, panels + 1)
    width = v[1] - v[0]
    gauss = v[:-1, None] + width * _GAUSS_4[0]
    density = _stretched_density(np.concatenate((v, gauss.ravel())), terms)
    slope_inv = 1.0 / density[: panels + 1]
    shares = width * (density[panels + 1 :].reshape(gauss.shape) @ _GAUSS_4[1])
    cumulative = np.concatenate(([0.0], np.cumsum(shares)))

    def s_at(q: np.ndarray) -> np.ndarray:
        target = cumulative[-1] * np.abs(1.0 - 2.0 * q)
        i = np.clip(np.searchsorted(cumulative, target, side="right") - 1, 0, panels - 1)
        dp = shares[i]
        x = (target - cumulative[i]) / dp
        x2 = x * x
        x3 = x2 * x
        v_at = (
            (2.0 * x3 - 3.0 * x2 + 1.0) * v[i]
            + (x3 - 2.0 * x2 + x) * dp * slope_inv[i]
            + (3.0 * x2 - 2.0 * x3) * v[i + 1]
            + (x3 - x2) * dp * slope_inv[i + 1]
        )
        half_u = 0.5 * np.minimum(a * np.sinh(v_at), 1.0)
        return np.where(q <= 0.5, 0.5 - half_u, 0.5 + half_u)

    return s_at


def _local_steps(
    shapes: list[SubsystemShape], total_time: float, steps: int
) -> Callable[[], Iterator[Step]]:
    """The RK4 steps of the local schedule of `shapes`.

    The inverse of t(s) is set up once; the schedule values are looked up a
    chunk of steps at a time, each time the steps are walked.  Each of the
    `steps` steps of length T/steps is split into as many equal parts as keep
    s from moving more than _MAX_STEP_DS within one part.  Near the ends of
    the sweep, where the gap is wide, the local schedule moves s fastest;
    without the split a step there can change H by tenths and the RK4 error
    outgrows the norm-drift bound.  The split adds at most 1/_MAX_STEP_DS
    steps to a run.
    """
    s_at = _local_inverse(shapes)
    h = total_time / steps

    def step_iter() -> Iterator[Step]:
        for k0 in range(0, steps, _NODE_CHUNK):
            k1 = min(k0 + _NODE_CHUNK, steps)
            s_half = s_at(np.arange(2 * k0, 2 * k1 + 1) / (2 * steps))
            s_full = s_half[::2]
            parts = np.ceil(np.diff(s_full) / _MAX_STEP_DS)
            if parts.max() <= 1.0:
                columns = (s_full[:-1], s_half[1::2], s_full[1:], np.full(k1 - k0, h))
            else:
                parts = np.maximum(parts, 1.0).astype(np.int64)
                width = np.repeat(1.0 / parts, parts)
                offset = np.arange(width.size) - np.repeat(np.cumsum(parts) - parts, parts)
                x0 = np.repeat(np.arange(k0, k1), parts) + offset * width
                s0 = s_at(x0 / steps)
                s_mid = s_at((x0 + 0.5 * width) / steps)
                columns = (s0, s_mid, np.append(s0[1:], s_full[-1]), h * width)
            yield from zip(*(column.tolist() for column in columns))

    return step_iter


def _evolve_two_level(ratio: float, steps: Iterable[Step]) -> tuple[complex, complex, float]:
    """RK4 integration of i dpsi/dt = H(s(t)) psi from the uniform state, one
    step of length h per (s(t), s(t + h/2), s(t + h), h) in `steps`.

    Returns the final amplitudes in the Gram-Schmidt basis and the largest
    single-step norm drift encountered.
    """
    a = math.sqrt(ratio)
    b = math.sqrt(1.0 - ratio)
    ab = a * b
    b2 = 1.0 - ratio
    r = ratio

    c0: complex = 1.0 + 0.0j
    c1: complex = 0.0j
    norm_prev = 1.0
    max_drift = 0.0
    for s0, s1, s2, h in steps:
        # k = -i H(s) y with H(s) = [[s b2, -s ab], [-s ab, (1 - s) + s r]],
        # written out: this loop is where stage one spends its time
        h00, h01, h11 = s0 * b2, -s0 * ab, (1.0 - s0) + s0 * r
        k10 = -1j * (h00 * c0 + h01 * c1)
        k11 = -1j * (h01 * c0 + h11 * c1)
        h00, h01, h11 = s1 * b2, -s1 * ab, (1.0 - s1) + s1 * r
        y0, y1 = c0 + 0.5 * h * k10, c1 + 0.5 * h * k11
        k20 = -1j * (h00 * y0 + h01 * y1)
        k21 = -1j * (h01 * y0 + h11 * y1)
        y0, y1 = c0 + 0.5 * h * k20, c1 + 0.5 * h * k21
        k30 = -1j * (h00 * y0 + h01 * y1)
        k31 = -1j * (h01 * y0 + h11 * y1)
        h00, h01, h11 = s2 * b2, -s2 * ab, (1.0 - s2) + s2 * r
        y0, y1 = c0 + h * k30, c1 + h * k31
        k40 = -1j * (h00 * y0 + h01 * y1)
        k41 = -1j * (h01 * y0 + h11 * y1)
        c0 = c0 + (h / 6.0) * (k10 + 2.0 * k20 + 2.0 * k30 + k40)
        c1 = c1 + (h / 6.0) * (k11 + 2.0 * k21 + 2.0 * k31 + k41)
        # a violently unstable step can push the amplitudes past float range
        # before any check runs; report that as infinite drift
        try:
            norm = math.hypot(abs(c0), abs(c1))
        except OverflowError:
            return c0, c1, math.inf
        if not math.isfinite(norm):
            return c0, c1, math.inf
        max_drift = max(max_drift, abs(norm - norm_prev))
        norm_prev = norm
    return c0, c1, max_drift


def simulate_stage1(
    shapes: list[SubsystemShape], config: EvolutionConfig
) -> SimulationReport:
    """Evolve every subsystem for config.total_time under config.schedule
    (linear unless it says "local") and report fidelity against the final
    ground state.

    Under "local" all subsystems share the schedule built from the joint
    integrand of `shapes`.  At T -> 0 the state has no time to move and the
    fidelity per subsystem approaches its marked fraction M/N; fully marked
    subsystems sit in an eigenstate the whole way and contribute fidelity 1.
    """
    if not shapes:
        raise ValueError("at least one subsystem shape is required")
    steps = config.resolved_steps()
    step_iter = None
    if config.total_time > 0.0 and not all(shape.degenerate for shape in shapes):
        if config.schedule == "local":
            step_iter = _local_steps(shapes, config.total_time, steps)
        else:
            step_iter = _linear_steps(config.total_time, steps)
    fidelities = []
    worst_norm_error = 0.0
    for shape in shapes:
        r = shape.ratio
        if shape.degenerate or step_iter is None:
            c0, c1, drift = (1.0 + 0.0j, 0.0j, 0.0)
        else:
            c0, c1, drift = _evolve_two_level(r, step_iter())
        if drift > _MAX_STEP_NORM_DRIFT:
            suggested = max(1000, math.ceil(100.0 * config.total_time))
            raise IntegrationError(
                f"integrator step too coarse: per-step norm drift {drift:.3e} "
                f"exceeds {_MAX_STEP_NORM_DRIFT:.0e}; use at least {suggested} steps"
            )
        a = math.sqrt(r)
        b = math.sqrt(1.0 - r)
        overlap = a * c0 + b * c1
        fidelities.append(abs(overlap) ** 2)
        norm_error = abs(math.sqrt(abs(c0) ** 2 + abs(c1) ** 2) - 1.0)
        worst_norm_error = max(worst_norm_error, norm_error)
    if worst_norm_error > _MAX_TOTAL_NORM_ERROR:
        suggested = 2 * steps
        raise IntegrationError(
            f"integrator step too coarse: accumulated norm error {worst_norm_error:.3e} "
            f"exceeds {_MAX_TOTAL_NORM_ERROR:.0e}; use at least {suggested} steps"
        )
    joint = math.prod(fidelities)
    return SimulationReport(
        final_fidelity=joint,
        per_subsystem_fidelity=tuple(fidelities),
        norm_error=worst_norm_error,
    )


def verify_adiabatic_bound(
    shapes: list[SubsystemShape], target: AccuracyTarget | None = None
) -> AdiabaticBoundReport:
    """Run stage one on the local schedule at 1, 2 and 4 times its minimal
    time T1 and fit how the infidelity decays with T.

    The fit is reported whatever the ladder looks like; the report's
    `monotone` flag says whether the infidelity falls with every longer run,
    which fails at large epsilon (two (256, 1) subsystems at epsilon = 1 give
    0.853, 0.163, 0.203).  Requires every marked fraction to be at most 1/16
    so the runs sit in the small-gap regime the minimal-time quadrature is
    about.
    """
    for shape in shapes:
        if shape.ratio > 1.0 / 16.0:
            raise ValueError(
                f"marked fraction {shape.ratio} above 1/16; the adiabatic "
                "scaling check needs small ratios"
            )
    t1 = stage1_time(shapes, target).stage1_time
    # every run is checked against the step guard before the first starts
    configs = [
        EvolutionConfig(total_time=factor * t1, schedule="local")
        for factor in _BOUND_TIME_FACTORS
    ]
    infidelities = [
        max(1.0 - simulate_stage1(shapes, config).final_fidelity, 1e-300) for config in configs
    ]
    slope = np.polyfit(np.log(_BOUND_TIME_FACTORS), np.log(infidelities), 1)[0]
    return AdiabaticBoundReport(
        stage1_time=t1,
        time_factors=_BOUND_TIME_FACTORS,
        infidelities=tuple(infidelities),
        decay_order=float(-slope),
        monotone=all(later < earlier for earlier, later in zip(infidelities, infidelities[1:])),
    )


def _apply_step(
    psi0: complex, psi1: complex, h00: float, h01: float, h11: float, dt: float
) -> tuple[complex, complex]:
    """Apply exp(-i H dt) for real symmetric 2x2 H exactly."""
    half_trace = 0.5 * (h00 + h11)
    d = 0.5 * (h00 - h11)
    w = math.hypot(d, h01)
    phase = cmath.exp(-1j * half_trace * dt)
    if w == 0.0:
        return phase * psi0, phase * psi1
    c = math.cos(w * dt)
    s = math.sin(w * dt) / w
    u00 = phase * (c - 1j * s * d)
    u01 = phase * (-1j * s * h01)
    u11 = phase * (c + 1j * s * d)
    return u00 * psi0 + u01 * psi1, u01 * psi0 + u11 * psi1


def simulate_stage2(
    m_a: float,
    m_b: float,
    m_ab: float,
    steps: int,
    step_time: float,
) -> SimulationReport:
    """Piecewise-constant evolution on the span of the product state and the
    global-solution superposition.

    The initial amplitude on the solution state is sqrt(M_AB / (M_A M_B));
    when M_AB = M_A M_B the two states coincide and the success probability
    is 1 from step zero.
    """
    if m_a < 1 or m_b < 1:
        raise ValueError("subsystem solution counts must be at least 1")
    if m_ab <= 0:
        raise ValueError("no global solution: joint solution count must be positive")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    _check_steps(steps, "stage-two")
    if step_time <= 0.0:
        raise ValueError(f"step_time must be positive, got {step_time}")
    r = m_ab / (m_a * m_b)
    if r > 1.0 + 1e-12:
        raise ValueError("joint solution count exceeds the product of subsystem counts")
    r = min(r, 1.0)
    amp_s = math.sqrt(r)
    amp_ns = math.sqrt(1.0 - r)
    psi0: complex = complex(amp_s)
    psi1: complex = complex(amp_ns)
    # H_initial = 1 - |init><init| in the {solution, non-solution} basis.
    hi00 = 1.0 - r
    hi01 = -amp_s * amp_ns
    hi11 = r
    for step in range(1, steps + 1):
        s = step / steps
        f = 1.0 - s
        h00 = f * hi00
        h01 = f * hi01
        h11 = f * hi11 + s
        psi0, psi1 = _apply_step(psi0, psi1, h00, h01, h11, step_time)
    success = abs(psi0) ** 2
    norm_error = abs(math.sqrt(abs(psi0) ** 2 + abs(psi1) ** 2) - 1.0)
    return SimulationReport(
        final_fidelity=success,
        per_subsystem_fidelity=(success,),
        norm_error=norm_error,
        success_probability=success,
    )


def calibrate_stage2(
    m_a: int = 16,
    m_b: int = 16,
    m_ab: int = 1,
    *,
    success_target: float = 0.9,
    dense_target: float = 0.99,
    dense_steps: int = 10_000,
    time_start: float = 16.0,
) -> Stage2Calibration:
    """Recompute the frozen stage-two constants.

    Doubles the total evolution time until a dense-step (10^4) run reaches
    `dense_target`, establishing the reference adiabatic time; then finds the
    smallest integer multiplier c such that c * ceil(sqrt(M_A M_B / M_AB))
    coarse steps spanning that same total time reach `success_target`.
    Returns the multiplier, the implied step duration, and the reference time.
    """
    base = math.ceil(math.sqrt(m_a * m_b / m_ab))
    reference = time_start
    while True:
        report = simulate_stage2(m_a, m_b, m_ab, dense_steps, reference / dense_steps)
        if report.success_probability >= dense_target:
            break
        reference *= 2.0
        if reference > 1e9:
            raise RuntimeError("calibration failed to reach the adiabatic regime")
    for multiplier in range(1, 4097):
        steps = multiplier * base
        report = simulate_stage2(m_a, m_b, m_ab, steps, reference / steps)
        if report.success_probability >= success_target:
            return Stage2Calibration(
                step_multiplier=multiplier,
                step_time=reference / steps,
                reference_time=reference,
            )
    raise RuntimeError("calibration failed: no multiplier up to 4096 reached the target")


def run_nested_search(
    instance: CspInstance,
    target: AccuracyTarget | None = None,
    *,
    time_factor: float = 1.0,
) -> NestedSearchReport:
    """Census an instance, budget its run, and simulate both stages.

    Stage one runs on the local schedule for time_factor times its minimal
    time T1; stage two uses the calibrated coarse stepping. Locally
    unsatisfiable instances and instances without global solutions raise
    with a message saying so.
    """
    if time_factor <= 0.0:
        raise ValueError(f"time_factor must be positive, got {time_factor}")
    counts = census(instance)
    shape_a, shape_b, m_ab = shapes_from_census(instance, counts)
    if m_ab == 0:
        raise ValueError("no global solution: the instance is unsatisfiable")
    budget = total_time([shape_a, shape_b], m_ab, target)
    stage1 = simulate_stage1(
        [shape_a, shape_b],
        EvolutionConfig(total_time=time_factor * budget.stage1_time, schedule="local"),
    )
    stage2 = simulate_stage2(
        counts.m_a,
        counts.m_b,
        m_ab,
        steps=STAGE2_STEP_MULTIPLIER * budget.iterations,
        step_time=STAGE2_STEP_TIME,
    )
    return NestedSearchReport(
        counts=counts,
        budget=budget,
        stage1=stage1,
        stage2=stage2,
        iterations=budget.iterations,
        total_time=budget.total_time,
    )
