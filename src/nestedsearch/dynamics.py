"""Direct time-dependent simulation of both search stages.

Both stages evolve the restricted two-level Hamiltonian H(s) of `spectral`
(spectral._hamiltonian), and both advance by the exact propagator
exp(-i H dt) of a constant H (_apply_steps), so every step is unitary to
rounding.  _apply_steps takes a chunk of steps at a time: it builds their 2x2
propagators in closed form as numpy arrays, multiplies them as a pairwise,
log-depth product and applies that product to the state once, so no step
costs a Python iteration.  Stage one evolves each subsystem under H(s).
Stage two evolves the two-dimensional span of the product state of
local-solution superpositions and the global-solution superposition, whose
Hamiltonian is H(1 - s) with marked fraction M_AB / (M_A M_B), held constant
over each coarse step.

Stage one runs the commutator-free fourth-order Magnus scheme of Blanes,
Casas, Oteo and Ros (Phys. Rep. 470, 151 (2009)).  H is affine in s, so each
step of length h is two exact half steps, at s = sigma_1 = 2 (alpha_2 s_a +
alpha_1 s_b) and then sigma_2 = 2 (alpha_1 s_a + alpha_2 s_b), where s_a and
s_b are the schedule values at the Gauss nodes t + (1/2 -/+ sqrt(3)/6) h and
alpha_1,2 = (3 -/+ 2 sqrt(3))/12.  The schedule is either linear, s = t/T,
or the local adiabatic schedule of Roland and Cerf (PRA 65, 042308 (2002)),
dt/ds proportional to the joint stage-one integrand
sqrt(sum_i xi_i^2 / w_i(s)^6).  The stage-one budget T1 of `schedule` is the
running time of that local schedule, so the checks that spend or verify T1
(verify_adiabatic_bound, run_nested_search) run it; simulate_stage1 runs
whichever schedule its EvolutionConfig names, linear by default.  Subsystems
evolve independently on one shared schedule, so the joint fidelity is the
product of the per-subsystem ones.

The stage-two step count is a calibrated multiple of the iteration estimate
sqrt(M_A M_B / M_AB): STAGE2_STEP_MULTIPLIER coarse steps per iteration, each
of duration STAGE2_STEP_TIME.  Both constants are frozen artifacts of
calibrate_stage2() on the (M_A, M_B, M_AB) = (16, 16, 1) reference problem
and can be regenerated with that function.

Neither stage runs more than MAX_STEPS steps: a longer run is refused with
ScaleError before any step is taken.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
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
from .spectral import SubsystemShape, _exp2, _hamiltonian

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

# calibrate_stage2: the reference point (M_A, M_B, M_AB), the success its
# dense run must reach and with how many steps, the first total time tried,
# and the success the coarse steps must reach
_CALIBRATION_COUNTS = (16, 16, 1)
_CALIBRATION_DENSE_TARGET = 0.99
_CALIBRATION_DENSE_STEPS = 10_000
_CALIBRATION_TIME_START = 16.0
_CALIBRATION_SUCCESS_TARGET = 0.9

_SCHEDULES = ("linear", "local")

# steps whose propagators are built and multiplied together at a time, so
# that long runs never hold an array of every step
_NODE_CHUNK = 1024
# stage one: 2 alpha_2 and 2 alpha_1 of the module docstring, so that
# sigma_1 = _CF4_NEAR s_a + _CF4_FAR s_b and sigma_2 = _CF4_FAR s_a + _CF4_NEAR s_b
_CF4_NEAR = 0.5 + math.sqrt(3.0) / 3.0
_CF4_FAR = 0.5 - math.sqrt(3.0) / 3.0
# largest change of s within one stage-one step; the 2-point Gauss-Legendre
# nodes of a step; the panels per unit of the stretched variable v of the
# local schedule's table, with the 4-point rule on each panel
_MAX_STEP_DS = 0.02
_PANELS_PER_UNIT = 128
_GAUSS_2 = _gauss_legendre(2)
_GAUSS_4 = _gauss_legendre(4)


@dataclass(frozen=True)
class EvolutionConfig:
    """Stage-one run: its total time and its schedule.

    The run takes resolved_steps() = max(1000, ceil(100 * total_time))
    fourth-order Magnus steps, so no step is longer than 0.01.
    schedule is "linear" (s = t/T, the default) or "local": s(t) inverts
    t(s) = T F(s)/F(1), where F(s) is the integral from 0 to s of the joint
    stage-one integrand of the simulated shapes, so that a run of T = T1
    sweeps at the local adiabatic rate the budget T1 is derived for.  Under
    "local", steps in which s would move more than _MAX_STEP_DS are split,
    which adds at most 1/_MAX_STEP_DS steps.  More than MAX_STEPS steps is
    refused with ScaleError.
    """

    total_time: float
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
        _check_steps(self.resolved_steps(), "stage-one")

    def resolved_steps(self) -> int:
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


def _check_steps(steps: int, stage: str) -> None:
    if steps > MAX_STEPS:
        raise ScaleError(
            f"{stage} simulation refused: {steps} steps exceed the step guard ({MAX_STEPS})"
        )


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


def _stage1_steps(
    s_at: Callable[[np.ndarray], np.ndarray], total_time: float, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(s_a, s_b, h) of the stage-one steps, _NODE_CHUNK steps at a time:
    the schedule values s = s_at(t/T) at the two Gauss nodes of each step,
    and the step's length.

    Each of the `steps` steps of length T/steps is split into as many equal
    parts as keep s from moving more than _MAX_STEP_DS within one part.  The
    linear schedule moves s by at most 1/1000 per step and is never split.
    Near the ends of the sweep, where the gap is wide, the local schedule
    moves s fastest; unsplit, a step there can change H by tenths.  The split
    adds at most 1/_MAX_STEP_DS steps to a run.
    """
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


def _apply_steps(
    psi: tuple[complex, complex], ratio: float, s: np.ndarray, dt: np.ndarray
) -> tuple[complex, complex]:
    """psi after the exact propagators exp(-i H(s_k) dt_k) for k = 0, 1, ...
    in turn, with H(s) = spectral._hamiltonian(s, ratio).

    For real symmetric H = [[h00, h01], [h01, h11]] with half trace m,
    d = (h00 - h11)/2 and w = hypot(d, h01),
    exp(-i H dt) = exp(-i m dt) (cos(w dt) - i sinc (H - m)), where
    sinc = sin(w dt)/w, and dt where w = 0.  Every step's propagator is built
    at once, as four arrays of entries, and the steps are multiplied as a
    pairwise, log-depth product: each level multiplies neighbours, the later
    step on the left, and carries an odd last step up unchanged.  psi is
    multiplied once, by the product.
    """
    h00, h01, h11 = _hamiltonian(s, ratio)
    d = 0.5 * (h00 - h11)
    w = np.hypot(d, h01)
    wdt = w * dt
    sinc = np.array(dt, dtype=float)
    np.divide(np.sin(wdt), w, out=sinc, where=w != 0.0)
    c = np.cos(wdt)
    phase = np.exp(-0.5j * (h00 + h11) * dt)
    u01 = phase * (-1j * sinc * h01)
    u = (phase * (c - 1j * sinc * d), u01, u01, phase * (c + 1j * sinc * d))
    while u[0].size > 1:
        a00, a01, a10, a11 = (x[1::2] for x in u)
        b00, b01, b10, b11 = (x[: x.size - 1 : 2] for x in u)
        pairs = (
            a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
        )
        if u[0].size % 2:
            pairs = tuple(np.concatenate((p, x[-1:])) for p, x in zip(pairs, u))
        u = pairs
    (u00,), (u01,), (u10,), (u11,) = u
    psi0, psi1 = psi
    return complex(u00 * psi0 + u01 * psi1), complex(u10 * psi0 + u11 * psi1)


def _norm_error(psi: tuple[complex, complex]) -> float:
    return abs(math.sqrt(abs(psi[0]) ** 2 + abs(psi[1]) ** 2) - 1.0)


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
    states = [(1.0 + 0.0j, 0.0j)] * len(shapes)
    live = [i for i, shape in enumerate(shapes) if not shape.degenerate]
    if config.total_time > 0.0 and live:
        s_at = _local_inverse(shapes) if config.schedule == "local" else (lambda q: q)
        for s_a, s_b, h in _stage1_steps(s_at, config.total_time, config.resolved_steps()):
            # each step is the half step at sigma_1, then the one at sigma_2
            s = np.column_stack(
                (_CF4_NEAR * s_a + _CF4_FAR * s_b, _CF4_FAR * s_a + _CF4_NEAR * s_b)
            ).ravel()
            dt = np.repeat(0.5 * h, 2)
            for i in live:
                states[i] = _apply_steps(states[i], shapes[i].ratio, s, dt)
    fidelities = tuple(
        abs(math.sqrt(shape.ratio) * c0 + math.sqrt(1.0 - shape.ratio) * c1) ** 2
        for shape, (c0, c1) in zip(shapes, states)
    )
    return SimulationReport(
        final_fidelity=math.prod(fidelities),
        per_subsystem_fidelity=fidelities,
        norm_error=max(map(_norm_error, states)),
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
    # In the {solution, non-solution} basis the initial state is
    # (sqrt(r), sqrt(1 - r)), and (1 - s)(1 - |init><init|) + s(1 - |sol><sol|)
    # is the restricted H(1 - s) of marked fraction r; step l holds
    # s = l / steps.
    psi = (complex(math.sqrt(r)), complex(math.sqrt(1.0 - r)))
    for k0 in range(1, steps + 1, _NODE_CHUNK):
        s = np.arange(k0, min(k0 + _NODE_CHUNK, steps + 1)) / steps
        psi = _apply_steps(psi, r, 1.0 - s, np.full(s.size, step_time))
    success = abs(psi[0]) ** 2
    return SimulationReport(
        final_fidelity=success,
        per_subsystem_fidelity=(success,),
        norm_error=_norm_error(psi),
        success_probability=success,
    )


def calibrate_stage2() -> Stage2Calibration:
    """Recompute the frozen stage-two constants on the (16, 16, 1) reference.

    Doubles the total evolution time, starting from 16, until a dense-step
    (10^4) run reaches success 0.99, establishing the reference adiabatic
    time; then finds the smallest integer multiplier c such that
    c * ceil(sqrt(M_A M_B / M_AB)) coarse steps spanning that same total time
    reach success 0.9.  Returns the multiplier, the implied step duration,
    and the reference time.
    """
    m_a, m_b, m_ab = _CALIBRATION_COUNTS
    dense_steps = _CALIBRATION_DENSE_STEPS
    base = math.ceil(math.sqrt(m_a * m_b / m_ab))
    reference = _CALIBRATION_TIME_START
    while True:
        report = simulate_stage2(m_a, m_b, m_ab, dense_steps, reference / dense_steps)
        if report.success_probability >= _CALIBRATION_DENSE_TARGET:
            break
        reference *= 2.0
        if reference > 1e9:
            raise RuntimeError("calibration failed to reach the adiabatic regime")
    for multiplier in range(1, 4097):
        steps = multiplier * base
        report = simulate_stage2(m_a, m_b, m_ab, steps, reference / steps)
        if report.success_probability >= _CALIBRATION_SUCCESS_TARGET:
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
