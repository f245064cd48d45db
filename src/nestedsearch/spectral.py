"""Two-level spectra of the interpolating search Hamiltonian.

For a subsystem with N basis states of which M are marked, the evolution
under H(s) = (1-s)(1 - |u><u|) + s(1 - |m><m|) stays inside the span of the
uniform state |u> and the marked superposition |m>, whose overlap is
a = sqrt(M/N).  Everything here works in the Gram-Schmidt orthonormalization
of that span, {e1 = |u>, e2 = (|m> - a|u>)/sqrt(1-a^2)}, where the restricted
Hamiltonian is the real symmetric 2x2 matrix

    H(s) = [[ s(1-a^2),        -s a sqrt(1-a^2) ],
            [ -s a sqrt(1-a^2), (1-s) + s a^2    ]]

with trace 1 and determinant s(1-s)(1-a^2).  Its eigenvalues are
(1 -/+ w)/2 with the gap

    w(s) = sqrt((1-2s)^2 + 4 (M/N) s (1-s)).

Dimensions are only ever touched through the ratio M/N, so sizes of 2**64
and beyond are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "SubsystemShape",
    "SchedulePoint",
    "TwoLevelSpectrum",
    "gap",
    "transition_strength",
    "two_level_spectrum",
]


_LN2 = math.log(2.0)


def _exp2(v: float) -> float:
    # math.exp2 arrived in 3.11; this codebase supports 3.10.
    return 2.0**v


@dataclass(frozen=True, slots=True)
class SubsystemShape:
    """A search subsystem: `dimension` basis states, `solutions` of them marked.

    Counts from an actual instance are integers; estimates coming out of the
    complexity model may be fractional, and both are accepted.  The marked
    fraction `ratio` and the unmarked fraction `unmarked_fraction` = 1 - ratio
    are derived once at construction, each as accurately as the inputs allow:
    near 1 the ratio rounds to 1.0 while 1 - M/N is still resolved.

    That holds while unmarked_fraction is at least 2^-1022, the smallest
    normal double: a marked fraction of at most 1 - 2^-1022, or a log2 ratio
    of at most about -3.2e-308.  Closer to 1, unmarked_fraction is subnormal
    and keeps only a few bits; T1 is then exact for the stored fraction but
    up to 20% off for the shape asked for (from_log2(5e-324, 0) stores
    4.9e-324 for 3.4e-324).
    """

    dimension: float
    solutions: float
    log2_dimension: float = field(init=False, repr=False, compare=False)
    log2_solutions: float = field(init=False, repr=False, compare=False)
    ratio: float = field(init=False, repr=False, compare=False)
    unmarked_fraction: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if self.solutions <= 0:
            raise ValueError(f"solutions must be positive, got {self.solutions}")
        if self.solutions > self.dimension:
            raise ValueError(
                f"solutions ({self.solutions}) exceed dimension ({self.dimension})"
            )
        object.__setattr__(self, "log2_dimension", math.log2(self.dimension))
        object.__setattr__(self, "log2_solutions", math.log2(self.solutions))
        # int/int division is correctly rounded for arbitrarily large Python
        # ints, so the direct quotient is the most accurate ratio available.
        ratio = self.solutions / self.dimension
        if ratio == 0.0:
            ratio = _exp2(self.log2_solutions - self.log2_dimension)
        object.__setattr__(self, "ratio", min(ratio, 1.0))
        # below 1/2, 1 - ratio loses nothing; above it the difference of the
        # counts is exact
        if ratio < 0.5:
            unmarked = 1.0 - ratio
        else:
            unmarked = (self.dimension - self.solutions) / self.dimension
        object.__setattr__(self, "unmarked_fraction", unmarked)

    @classmethod
    def from_log2(cls, log2_dimension: float, log2_solutions: float) -> "SubsystemShape":
        """Build a shape from base-2 logs, e.g. model estimates at fractional n.

        The logs are kept exactly as given; the linear fields are materialized
        best-effort (they overflow to inf above 2**1023 without harming the
        ratio, which is what every formula consumes).  unmarked_fraction is
        accurate for a log2 ratio of at most about -3.2e-308; above that it
        is subnormal, as the class docstring describes.
        """
        if log2_solutions > log2_dimension:
            raise ValueError(
                f"log2 solutions ({log2_solutions}) exceed log2 dimension ({log2_dimension})"
            )
        obj = object.__new__(cls)
        object.__setattr__(obj, "dimension", _exp2_or_inf(log2_dimension))
        object.__setattr__(obj, "solutions", _exp2_or_inf(log2_solutions))
        object.__setattr__(obj, "log2_dimension", float(log2_dimension))
        object.__setattr__(obj, "log2_solutions", float(log2_solutions))
        log2_ratio = float(log2_solutions) - float(log2_dimension)
        object.__setattr__(obj, "ratio", min(_exp2(log2_ratio), 1.0))
        object.__setattr__(obj, "unmarked_fraction", -math.expm1(log2_ratio * _LN2))
        return obj

    @property
    def degenerate(self) -> bool:
        """True when every state is marked and there is nothing to search for.

        A shape from from_log2 is degenerate only when its two logs are
        equal; a ratio that underflows to 0.0 or rounds to 1.0 does not make
        it so.
        """
        return self.unmarked_fraction == 0.0


def _exp2_or_inf(v: float) -> float:
    try:
        return _exp2(v)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, slots=True)
class SchedulePoint:
    """A point s in [0, 1] along the linear interpolation, with weights
    f = 1-s on the initial projector term and g = s on the final one."""

    s: float
    f: float = field(init=False, repr=False, compare=False)
    g: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"schedule parameter s must be in [0, 1], got {self.s}")
        object.__setattr__(self, "f", 1.0 - self.s)
        object.__setattr__(self, "g", self.s)


@dataclass(frozen=True, slots=True)
class TwoLevelSpectrum:
    """Eigensystem of the restricted 2x2 Hamiltonian at one schedule point.

    `ground_state` holds the real amplitudes of the ground state in the
    Gram-Schmidt basis {e1, e2} described in the module docstring.  `gap` is
    excited_energy - ground_energy; for a degenerate shape (M = N) the span
    collapses to one dimension, both energies are reported as 0 on the
    relevant state and `degenerate` is set.
    """

    gap: float
    ground_energy: float
    excited_energy: float
    ground_state: tuple[float, float]
    degenerate: bool = False


def _hamiltonian(s: float, ratio: float) -> tuple[float, float, float]:
    """Entries (h00, h01, h11) of the restricted Hamiltonian H(s) of the
    module docstring, with a^2 = ratio.  s may also be a numpy array; the
    entries are then arrays too."""
    ab = math.sqrt(ratio) * math.sqrt(1.0 - ratio)
    return s * (1.0 - ratio), -s * ab, (1.0 - s) + s * ratio


def _omega_sq(s: float, ratio: float) -> float:
    u = 1.0 - 2.0 * s
    return u * u + 4.0 * ratio * s * (1.0 - s)


def gap(point: SchedulePoint, shape: SubsystemShape) -> float:
    """Spectral gap w(s) = sqrt((1-2s)^2 + 4 (M/N) s (1-s)).

    Equals 1 at both endpoints and reaches its minimum sqrt(M/N) at s = 1/2.
    """
    return math.sqrt(_omega_sq(point.s, shape.ratio))


def transition_strength(shape: SubsystemShape) -> float:
    """Schedule-independent strength xi = (M/N) sqrt(N/M - 1) of the coupling
    between the two levels; algebraically equal to sqrt(r (1-r)) with
    r = M/N, which is the numerically stable form used here.

    Vanishes exactly when every state is marked (r = 1) and peaks at r = 1/2.
    """
    r = shape.ratio
    return math.sqrt(r * (1.0 - r))


def two_level_spectrum(point: SchedulePoint, shape: SubsystemShape) -> TwoLevelSpectrum:
    """Closed-form eigensystem of the restricted Hamiltonian at `point`.

    The energies are (1 - w)/2 and (1 + w)/2 with w the gap; the ground
    eigenvector is proportional to (h11 - E0, s a b), which stays well
    conditioned at both schedule endpoints.
    """
    r = shape.ratio
    if shape.degenerate:
        return TwoLevelSpectrum(
            gap=0.0,
            ground_energy=0.0,
            excited_energy=0.0,
            ground_state=(1.0, 0.0),
            degenerate=True,
        )
    w = math.sqrt(_omega_sq(point.s, r))
    ground = 0.5 * (1.0 - w)
    excited = 0.5 * (1.0 + w)
    # Ground eigenvector of [[h00, h01], [h01, h11]] written as
    # (h11 - E0, -h01); both components are non-negative.
    _, h01, h11 = _hamiltonian(point.s, r)
    v1 = h11 - ground
    v2 = -h01
    norm = math.hypot(v1, v2)
    return TwoLevelSpectrum(
        gap=excited - ground,
        ground_energy=ground,
        excited_energy=excited,
        ground_state=(v1 / norm, v2 / norm),
    )
