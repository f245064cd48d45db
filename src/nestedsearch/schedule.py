"""Minimal run times for the two search stages.

The first-stage time is the integral

    T1 = (1/eps) * integral_0^1 sqrt( sum_i xi_i^2 / w_i(s)^6 ) ds

over the subsystems searched in parallel, where xi_i is the transition
strength and w_i(s) the gap of subsystem i.  T1 is the running time of the
local adiabatic schedule dt/ds = sqrt( sum_i xi_i^2 / w_i(s)^6 ) / eps of
Roland and Cerf (PRA 65, 042308 (2002)), which slows down where the gaps are
small; a linear sweep to the same accuracy would need a time of order N/M
rather than sqrt(N/M).  `dynamics` runs the local schedule wherever it spends
or checks T1.

In s the integrand peaks at s = 1/2 with a width of order sqrt(r_min), the
smallest marked fraction, which doubles cannot resolve at tiny ratios.  It
depends on s only through u = |1 - 2s|, with w_i^2 = r_i + (1 - r_i) u^2, and
in the stretched variable v, u = sqrt(r_min) sinh v, it becomes

    T1 = r_min^(-1/2) / eps * integral_0^V g(v) dv,   V = asinh(r_min^(-1/2)),
    g(v) = t sqrt( sum_i kappa_i^2 (1 - r_i) / (c_i + (1 - c_i) t)^3 ),

with t = sech^2 v, kappa_i = r_min / r_i and c_i = kappa_i (1 - r_i).  g has
no peak to resolve at any ratio (one subsystem gives g = sech^2 v as r -> 0),
and every coefficient lies in [0, 1], so nothing overflows or underflows:
the ratios enter only through log2_solutions - log2_dimension, and 2^-1500 is
as exact as 2^-10.  V is capped at 45, past which less than e^-45 of T1
remains.  A fixed 16-point Gauss-Legendre rule on panels half a unit of v
wide integrates g, and the difference from the 8-point rule on the same
panels is reported as the error estimate.

The second stage repeats a fixed-cost step ceil(sqrt(prod_i M_i / M_joint))
times, giving a total of T1 * iterations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .spectral import SubsystemShape, _exp2, _exp2_or_inf

__all__ = [
    "AccuracyTarget",
    "TimeBudget",
    "stage1_time",
    "stage2_iterations",
    "total_time",
    "approx_stage1_time",
    "approx_total_time",
]


def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


_GAUSS_16 = _gauss_legendre(16)
_GAUSS_8 = _gauss_legendre(8)
_PANEL_WIDTH = 0.5
# Term i contributes at most sqrt(r_min / r_i) of T1, and only a term with
# sqrt(r_min / r_i) below about e^-45 still rises past v = 45, so the part of
# the integral beyond it is below e^-45 of the whole.
_V_MAX = 45.0
# When 1 - r_min is a subnormal double, the products in the stretched density
# would keep only its few bits and make g a staircase; the weights are then
# lifted by 2^(2 _LIFT_HALF_EXP), which the square root turns into an exact
# factor 2^_LIFT_HALF_EXP to divide back out.
_LIFT_HALF_EXP = 300


@dataclass(frozen=True, slots=True)
class AccuracyTarget:
    """Adiabatic accuracy parameter; smaller epsilon buys a slower, more
    faithful sweep.  Run times scale exactly as 1/epsilon."""

    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


@dataclass(frozen=True, slots=True)
class TimeBudget:
    """Cost breakdown of one nested run.

    total_time is exactly stage1_time * iterations.  `degenerate` marks the
    no-search-needed case (every subsystem fully marked, stage1_time = 0);
    `clamped` is carried along when the inputs came from a clamped model
    estimate.
    """

    stage1_time: float
    iterations: int
    total_time: float
    quadrature_error_estimate: float
    degenerate: bool = False
    clamped: bool = False


_StretchedTerms = tuple[float, np.ndarray, np.ndarray, float]


def _stretched_terms(shapes: list[SubsystemShape]) -> _StretchedTerms | None:
    """log2 r_min, per subsystem that is not fully marked the coefficients
    kappa_i^2 (1 - r_i) and c_i = kappa_i (1 - r_i) of the stretched
    density, and the factor (1, or 2^-_LIFT_HALF_EXP for lifted weights)
    that turns that density into g.

    kappa_i = r_min / r_i comes from the log2 counts, so a ratio that
    underflows (r = 2^-1500 has ratio 0.0) still counts, and 1 - r_i is the
    shape's unmarked fraction.  The terms are sorted, so that permutations
    of the input give bit-identical budgets.  None when every subsystem is
    fully marked.
    """
    terms = sorted(
        (shape.log2_solutions - shape.log2_dimension, shape.unmarked_fraction)
        for shape in shapes
        if not shape.degenerate
    )
    if not terms:
        return None
    log2_r_min = terms[0][0]
    kappa = np.array([_exp2(log2_r_min - log2_r) for log2_r, _ in terms])
    c = kappa * np.array([unmarked for _, unmarked in terms])
    weights = kappa * c
    if weights[0] < sys.float_info.min:
        return log2_r_min, np.ldexp(weights, 2 * _LIFT_HALF_EXP), c, _exp2(-_LIFT_HALF_EXP)
    return log2_r_min, weights, c, 1.0


def _stretched_density(v: np.ndarray, terms: _StretchedTerms) -> np.ndarray:
    """g(v) = t sqrt(sum_i kappa_i^2 (1 - r_i) / (c_i + (1 - c_i) t)^3) with
    t = sech^2 v: the stage-one integrand in the stretched variable, scaled
    by sqrt(r_min) (see the module docstring), up to the lift factor of
    `terms`."""
    _, weights, c, _ = terms
    t = np.cosh(v) ** -2.0
    d = np.multiply.outer(t, 1.0 - c) + c
    return t * np.sqrt(d**-3.0 @ weights)


def _panel_sum(
    terms: _StretchedTerms, rule: tuple[np.ndarray, np.ndarray], v_end: float, panels: int
) -> float:
    """integral_0^v_end g(v) dv by a Gauss-Legendre rule on equal panels."""
    nodes, weights = rule
    width = v_end / panels
    v = np.add.outer(np.arange(panels), nodes).ravel() * width
    return width * float(_stretched_density(v, terms).reshape(panels, -1).sum(axis=0) @ weights)


def _stage1_integral(terms: _StretchedTerms) -> tuple[float, float]:
    """integral_0^1 of the stage-one integrand (T1 at epsilon = 1) and its
    error estimate, the difference of the 16- and 8-point rules."""
    half_log2 = -0.5 * terms[0]
    # asinh(2^128) is already past _V_MAX
    v_end = min(math.asinh(_exp2(min(half_log2, 128.0))), _V_MAX)
    panels = math.ceil(v_end / _PANEL_WIDTH)
    hi = _panel_sum(terms, _GAUSS_16, v_end, panels)
    lo = _panel_sum(terms, _GAUSS_8, v_end, panels)
    scale = _exp2_or_inf(half_log2) * terms[3]
    return scale * hi, scale * abs(hi - lo)


def stage1_time(
    shapes: list[SubsystemShape], target: AccuracyTarget | None = None
) -> TimeBudget:
    """Minimal first-stage time for searching `shapes` in parallel, i.e. the
    duration of their joint local adiabatic schedule.

    Returns a TimeBudget with iterations = 1 (composition with the second
    stage happens in total_time).  The difference of the 16- and 8-point
    Gauss-Legendre rules is reported as quadrature_error_estimate; it stays
    at rounding level, about 2e-15 of T1.  When every subsystem is fully
    marked the integrand vanishes identically and a zero budget is returned
    with the degenerate flag set.
    """
    if not shapes:
        raise ValueError("at least one subsystem shape is required")
    if target is None:
        target = AccuracyTarget()
    terms = _stretched_terms(shapes)
    if terms is None:
        return TimeBudget(
            stage1_time=0.0,
            iterations=1,
            total_time=0.0,
            quadrature_error_estimate=0.0,
            degenerate=True,
        )
    integral, abserr = _stage1_integral(terms)
    t1 = integral / target.epsilon
    return TimeBudget(
        stage1_time=t1,
        iterations=1,
        total_time=t1,
        quadrature_error_estimate=abserr / target.epsilon,
    )


def _ceil_sqrt_ratio(num: int, den: int) -> int:
    """Smallest integer t with t*t*den >= num, computed exactly."""
    t = math.isqrt(num // den)
    while t * t * den < num:
        t += 1
    return t


def _iterations(product_m: float, m_joint: float) -> int:
    if m_joint <= 0:
        raise ValueError("no global solution: joint solution count must be positive")
    if m_joint > product_m * (1.0 + 1e-12):
        raise ValueError(
            f"joint solution count {m_joint} exceeds the product of "
            f"subsystem counts {product_m}"
        )
    if isinstance(product_m, int) and isinstance(m_joint, int):
        return max(1, _ceil_sqrt_ratio(product_m, m_joint))
    return max(1, math.ceil(math.sqrt(product_m / m_joint)))


def stage2_iterations(m_a: float, m_b: float, m_ab: float) -> int:
    """Number of second-stage repetitions, ceil(sqrt(M_A M_B / M_AB)).

    Integer inputs are resolved exactly; fractional model estimates (including M_AB below 1 for
    probably-unsatisfiable regimes) go through floating point.
    """
    if m_a < 1 or m_b < 1:
        raise ValueError("subsystem solution counts must be at least 1")
    if isinstance(m_a, int) and isinstance(m_b, int):
        return _iterations(m_a * m_b, m_ab)
    return _iterations(float(m_a) * float(m_b), m_ab)


def total_time(
    shapes: list[SubsystemShape],
    m_joint: float,
    target: AccuracyTarget | None = None,
) -> TimeBudget:
    """Full nested cost: first-stage time times the iteration count
    ceil(sqrt(prod_i M_i / M_joint)) over any number of subsystems."""
    budget = stage1_time(shapes, target)
    if all(isinstance(s.solutions, int) for s in shapes):
        product_m: float = math.prod(int(s.solutions) for s in shapes)
    else:
        product_m = math.prod(float(s.solutions) for s in shapes)
    iterations = _iterations(product_m, m_joint)
    return replace(
        budget,
        iterations=iterations,
        total_time=budget.stage1_time * iterations,
    )


def approx_stage1_time(
    shapes: list[SubsystemShape], target: AccuracyTarget | None = None
) -> float:
    """Closed-form stand-in sqrt(max_i N_i/M_i) / epsilon for the first-stage
    quadrature; tracks it to within a small constant factor once every
    marked fraction is small."""
    if not shapes:
        raise ValueError("at least one subsystem shape is required")
    if target is None:
        target = AccuracyTarget()
    smallest_ratio = min(s.ratio for s in shapes)
    return 1.0 / (math.sqrt(smallest_ratio) * target.epsilon)


def approx_total_time(
    shapes: list[SubsystemShape], m_joint: float, target: AccuracyTarget | None = None
) -> float:
    """Closed-form total cost sqrt(max(N_A M_B, N_B M_A) / M_AB) / epsilon
    for exactly two subsystems."""
    if len(shapes) != 2:
        raise ValueError("the closed-form total requires exactly two subsystems")
    if m_joint <= 0:
        raise ValueError("no global solution: joint solution count must be positive")
    if target is None:
        target = AccuracyTarget()
    sa, sb = shapes
    log2_candidates = (
        sa.log2_dimension + sb.log2_solutions,
        sb.log2_dimension + sa.log2_solutions,
    )
    log2_val = 0.5 * (max(log2_candidates) - math.log2(m_joint))
    return _exp2(log2_val) / target.epsilon
