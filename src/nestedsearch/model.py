"""Independence-model estimates of solution counts and the run times they imply.

For n bits split x : (1-x) between two subsystems and constraints of arity k
drawn at density alpha, the surviving-solution estimates in log2 are

    log2 M_A  = n x     - n alpha x^k
    log2 M_B  = n (1-x) - n alpha (1-x)^k
    log2 M_AB = n       - n alpha

Estimates below one solution are clamped to one (and flagged): a run still
has to look even if the instance is probably unsatisfiable.  The clamp is a
reporting convention only; the composed run time keeps the raw joint count so
that the cost depends on (n, alpha) only through n*alpha, which is what makes
curves at equal n*alpha collapse onto each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .schedule import AccuracyTarget, TimeBudget, total_time
from .spectral import SubsystemShape, _exp2

__all__ = [
    "PartitionModel",
    "ModelEstimates",
    "ScalingFit",
    "estimate",
    "model_time",
    "approx_model_time",
    "scaling_exponent",
    "optimize_x",
    "fit_scaling",
]

# optimize_x: the grid over the split x that picks a bracket, and the width
# golden-section search narrows that bracket to
_X_GRID = np.linspace(0.02, 0.98, 101)
_X_TOL = 1e-4


@dataclass(frozen=True, slots=True)
class PartitionModel:
    """Problem family: n variables, arity-k constraints at density alpha,
    partition fraction x on the first subsystem."""

    n: int
    k: int
    alpha: float
    x: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not 0.0 < self.x < 1.0:
            raise ValueError(f"x must lie strictly inside (0, 1), got {self.x}")


@dataclass(frozen=True, slots=True)
class ModelEstimates:
    """log2 solution-count estimates, clamped at zero (one solution)."""

    log2_m_a: float
    log2_m_b: float
    log2_m_ab: float
    log2_n_a: float
    log2_n_b: float
    clamped: bool


@dataclass(frozen=True, slots=True)
class ScalingFit:
    """Least-squares slope of log2 total time against n, with the exact slope
    of the closed-form column for comparison."""

    slope: float
    intercept: float
    residual_rms: float
    slope_approx: float
    n_values: tuple[int, ...]
    log2_total: tuple[float, ...]
    log2_total_approx: tuple[float, ...]


def _raw_log2_counts(model: PartitionModel) -> tuple[float, float, float]:
    n, k, alpha, x = model.n, model.k, model.alpha, model.x
    xb = 1.0 - x
    log2_m_a = n * x - n * alpha * x**k
    log2_m_b = n * xb - n * alpha * xb**k
    log2_m_ab = n - n * alpha
    return log2_m_a, log2_m_b, log2_m_ab


def estimate(model: PartitionModel) -> ModelEstimates:
    """Clamped log2 estimates of M_A, M_B, M_AB and the subsystem sizes."""
    log2_m_a, log2_m_b, log2_m_ab = _raw_log2_counts(model)
    clamped = log2_m_a < 0.0 or log2_m_b < 0.0 or log2_m_ab < 0.0
    return ModelEstimates(
        log2_m_a=max(0.0, log2_m_a),
        log2_m_b=max(0.0, log2_m_b),
        log2_m_ab=max(0.0, log2_m_ab),
        log2_n_a=model.n * model.x,
        log2_n_b=model.n * (1.0 - model.x),
        clamped=clamped,
    )


def model_time(model: PartitionModel, target: AccuracyTarget | None = None) -> TimeBudget:
    """Composed run time for the model point: shapes from the clamped
    estimates, iteration count against the raw joint estimate."""
    est = estimate(model)
    shapes = [
        SubsystemShape.from_log2(est.log2_n_a, est.log2_m_a),
        SubsystemShape.from_log2(est.log2_n_b, est.log2_m_b),
    ]
    _, _, raw_log2_m_ab = _raw_log2_counts(model)
    m_joint = _exp2(raw_log2_m_ab)
    budget = total_time(shapes, m_joint, target)
    if est.clamped:
        budget = replace(budget, clamped=True)
    return budget


def approx_model_time(model: PartitionModel) -> float:
    """log2 of the closed-form total time,
    (n/2) * max(alpha - alpha (1-x)^k, alpha - alpha x^k)."""
    n, k, alpha, x = model.n, model.k, model.alpha, model.x
    return 0.5 * n * max(alpha - alpha * (1.0 - x) ** k, alpha - alpha * x**k)


def scaling_exponent(k: int, alpha: float) -> float:
    """Growth exponent of the closed-form total time at the optimal split,
    alpha/2 - alpha/2^(k+1)."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha / 2.0 - alpha / 2.0 ** (k + 1)


def _log2_total(model: PartitionModel, target: AccuracyTarget) -> float:
    total = model_time(model, target).total_time
    if total <= 0.0:
        return -math.inf
    return math.log2(total)


def optimize_x(
    n: int, k: int, alpha: float, target: AccuracyTarget | None = None
) -> tuple[float, float]:
    """Deterministic argmin of the composed log2 run time over the split x.

    A 101-point grid over [0.02, 0.98] picks a bracket (ties resolved toward
    0.5), then golden-section refinement narrows it to width 1e-4; the refined
    split is kept only if it costs no more than the best grid point.  Returns
    (x_opt, log2 total time at x_opt); a flat objective (alpha = 0) resolves
    to x = 0.5.
    """
    if target is None:
        target = AccuracyTarget()

    def objective(x: float) -> float:
        return _log2_total(PartitionModel(n, k, alpha, x), target)

    vals = [objective(float(x)) for x in _X_GRID]
    best = min(range(len(_X_GRID)), key=lambda i: (vals[i], abs(_X_GRID[i] - 0.5)))
    if vals[best] == -math.inf or max(vals) - min(vals) == 0.0:
        return 0.5, objective(0.5)

    a = float(_X_GRID[max(best - 1, 0)])
    b = float(_X_GRID[min(best + 1, len(_X_GRID) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > _X_TOL:
        if fc < fd or (fc == fd and abs(c - 0.5) <= abs(d - 0.5)):
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    x_opt = 0.5 * (a + b)
    value = objective(x_opt)
    # the iteration ceiling makes the objective a staircase, on which golden
    # section can settle on a split that costs more than the grid's best
    if value > vals[best]:
        return float(_X_GRID[best]), vals[best]
    return x_opt, value


def fit_scaling(
    k: int,
    alpha: float,
    x: float,
    n_values: list[int],
    target: AccuracyTarget | None = None,
) -> ScalingFit:
    """Slope of log2 total time against n over `n_values` (at least 5)."""
    if len(n_values) < 5:
        raise ValueError(f"need at least 5 grid points for a fit, got {len(n_values)}")
    if target is None:
        target = AccuracyTarget()
    log2_total = []
    log2_approx = []
    for n in n_values:
        model = PartitionModel(n, k, alpha, x)
        log2_total.append(_log2_total(model, target))
        log2_approx.append(approx_model_time(model))
    ns = np.asarray(n_values, dtype=float)
    ys = np.asarray(log2_total)
    slope, intercept = np.polyfit(ns, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * ns + intercept)) ** 2)))
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=residual,
        slope_approx=scaling_exponent(k, alpha),
        n_values=tuple(int(n) for n in n_values),
        log2_total=tuple(log2_total),
        log2_total_approx=tuple(log2_approx),
    )
