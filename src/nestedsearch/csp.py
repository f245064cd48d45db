"""Random constraint-satisfaction instances and their exact solution census.

An instance has n binary variables and m constraints, each forbidding one
bit pattern on k distinct variables.  The constraint count is chosen so that
the independence model predicts 2^(n - n*alpha) surviving assignments:
a random assignment survives one constraint with probability 1 - 2^-k, so

    m = round( n * alpha / -log2(1 - 2^-k) ).

The variable set is split into a subsystem A (a seeded random draw of
round(x*n) variables) and its complement B, and the census counts exact
solutions of the A-local, B-local and full problems by enumeration.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import log2
from pathlib import Path

import numpy as np

from .spectral import SubsystemShape

__all__ = [
    "Constraint",
    "CspInstance",
    "ConstraintSplit",
    "SolutionCensus",
    "ScaleError",
    "CensusScaleError",
    "FILE_FORMAT_VERSION",
    "constraint_count",
    "generate",
    "classify",
    "census",
    "shapes_from_census",
    "write_instance",
    "read_instance",
    "instance_to_json",
    "instance_from_json",
]

FILE_FORMAT_VERSION = 1

CENSUS_MAX_N = 30
CENSUS_MAX_SIDE = 25

_CHUNK_BITS = 20


class ScaleError(ValueError):
    """Raised when a computation is refused because its exact work would
    pass a fixed guard; distinguishes scale refusal from plain bad
    arguments."""


class CensusScaleError(ScaleError):
    """Raised when an exact census is refused because enumeration would be
    too large."""


@dataclass(frozen=True, slots=True)
class Constraint:
    """Forbids one assignment pattern on a strictly increasing variable tuple."""

    variables: tuple[int, ...]
    forbidden: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.variables) < 2:
            raise ValueError("constraints need at least two variables")
        if any(b <= a for a, b in zip(self.variables, self.variables[1:])):
            raise ValueError(f"variables must be strictly increasing, got {self.variables}")
        if len(self.forbidden) != len(self.variables):
            raise ValueError("forbidden pattern length must match the variable count")
        if any(bit not in (0, 1) for bit in self.forbidden):
            raise ValueError(f"forbidden pattern must be bits, got {self.forbidden}")

    def violated_by(self, assignment: int) -> bool:
        """True when `assignment` (bit i = variable i) hits the forbidden pattern."""
        return all(
            (assignment >> var) & 1 == bit
            for var, bit in zip(self.variables, self.forbidden, strict=True)
        )


@dataclass(frozen=True, slots=True)
class CspInstance:
    n: int
    k: int
    partition_a: tuple[int, ...]
    constraints: tuple[Constraint, ...]
    alpha: float | None = None
    x: float | None = None
    seed: int | None = None
    unconstrained: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"k must lie in [2, n], got k={self.k}, n={self.n}")
        part = set(self.partition_a)
        if len(part) != len(self.partition_a):
            raise ValueError("partition_a contains duplicates")
        if tuple(sorted(part)) != self.partition_a:
            raise ValueError("partition_a must be sorted")
        if not part or not part < set(range(self.n)):
            raise ValueError("partition_a must be a proper non-empty subset of the variables")
        for c in self.constraints:
            if len(c.variables) != self.k:
                raise ValueError(f"constraint arity {len(c.variables)} != k = {self.k}")
            if c.variables[-1] >= self.n:
                raise ValueError(f"constraint variable {c.variables[-1]} out of range")
        object.__setattr__(self, "unconstrained", len(self.constraints) == 0)

    @property
    def partition_b(self) -> tuple[int, ...]:
        part = set(self.partition_a)
        return tuple(v for v in range(self.n) if v not in part)


@dataclass(frozen=True, slots=True)
class ConstraintSplit:
    """Constraint indices falling entirely in A, entirely in B, or across."""

    a_local: tuple[int, ...]
    b_local: tuple[int, ...]
    cross: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SolutionCensus:
    """Exact counts from full enumeration.

    m_a_s / m_b_s count local solutions extendable to at least one global
    solution; `rectangular` records whether the global solutions factorize
    as m_a_s * m_b_s (they always satisfy m_ab <= m_a_s * m_b_s <= m_a * m_b).
    """

    m_a: int
    m_b: int
    m_ab: int
    m_a_s: int
    m_a_ns: int
    m_b_s: int
    m_b_ns: int
    rectangular: bool

    def __post_init__(self) -> None:
        if self.m_a_s + self.m_a_ns != self.m_a or self.m_b_s + self.m_b_ns != self.m_b:
            raise ValueError("extendable/non-extendable counts must partition the local counts")
        if not self.m_ab <= self.m_a_s * self.m_b_s <= self.m_a * self.m_b:
            raise ValueError("census counts violate m_ab <= m_a_s*m_b_s <= m_a*m_b")
        if (self.m_ab >= 1) != (self.m_a_s >= 1 and self.m_b_s >= 1):
            raise ValueError("extendable counts inconsistent with the global count")


def constraint_count(n: int, k: int, alpha: float) -> int:
    """m = round(n*alpha / -log2(1 - 2^-k)); zero when alpha is small enough
    that the rounding hits zero (the instance is then unconstrained)."""
    if alpha == 0.0:
        return 0
    return round(n * alpha / -log2(1.0 - 2.0**-k))


def generate(n: int, k: int, alpha: float, x: float, seed: int) -> CspInstance:
    """Seed-deterministic random instance.

    The partition takes the first round(x*n) indices of a seeded shuffle
    (clamped into [1, n-1] so both sides stay non-empty); each constraint
    draws k distinct variables and one forbidden pattern uniformly, with
    repeats across constraints allowed.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 2 <= k <= n:
        raise ValueError(f"k must lie in [2, n], got k={k}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie strictly inside (0, 1), got {x}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    side = min(max(round(x * n), 1), n - 1)
    partition_a = tuple(sorted(order[:side]))
    m = constraint_count(n, k, alpha)
    constraints = []
    for _ in range(m):
        variables = tuple(sorted(rng.sample(range(n), k)))
        bits = rng.getrandbits(k)
        forbidden = tuple((bits >> j) & 1 for j in range(k))
        constraints.append(Constraint(variables, forbidden))
    return CspInstance(
        n=n,
        k=k,
        partition_a=partition_a,
        constraints=tuple(constraints),
        alpha=alpha,
        x=x,
        seed=seed,
    )


def classify(instance: CspInstance) -> ConstraintSplit:
    """Split constraint indices by which side of the partition they touch."""
    part = set(instance.partition_a)
    a_local, b_local, cross = [], [], []
    for idx, c in enumerate(instance.constraints):
        inside = sum(1 for v in c.variables if v in part)
        if inside == len(c.variables):
            a_local.append(idx)
        elif inside == 0:
            b_local.append(idx)
        else:
            cross.append(idx)
    return ConstraintSplit(tuple(a_local), tuple(b_local), tuple(cross))


def _side_masks(
    constraint: Constraint, positions: dict[int, int]
) -> tuple[int, int]:
    """(mask, value) over the side's local bit positions; an assignment
    matches the constraint's pattern on this side iff a & mask == value."""
    mask = 0
    value = 0
    for var, bit in zip(constraint.variables, constraint.forbidden, strict=True):
        if var in positions:
            mask |= 1 << positions[var]
            value |= bit << positions[var]
    return mask, value


def _local_survivors(n_side: int, masks: list[tuple[int, int]]) -> np.ndarray:
    """All side assignments violating none of the local (mask, value) pairs."""
    chunks = []
    total = 1 << n_side
    step = 1 << min(_CHUNK_BITS, n_side)
    for start in range(0, total, step):
        block = np.arange(start, min(start + step, total), dtype=np.int64)
        ok = np.ones(block.shape, dtype=bool)
        for mask, value in masks:
            ok &= (block & mask) != value
        chunks.append(block[ok])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def census(instance: CspInstance) -> SolutionCensus:
    """Exact solution counts by enumeration.

    Refuses n > 30 or a side above 25 bits.  The cross-constraint phase
    groups A-side survivors by which cross constraints they can still
    trigger, so the pair loop runs over distinct signatures rather than
    all of M_A x M_B.
    """
    if instance.n > CENSUS_MAX_N:
        raise CensusScaleError(
            f"census refused: n = {instance.n} exceeds the enumeration guard "
            f"({CENSUS_MAX_N}); this would enumerate 2^{instance.n} assignments"
        )
    part_a = instance.partition_a
    part_b = instance.partition_b
    n_a, n_b = len(part_a), len(part_b)
    if max(n_a, n_b) > CENSUS_MAX_SIDE:
        raise CensusScaleError(
            f"census refused: a partition side has {max(n_a, n_b)} variables, "
            f"above the per-side guard ({CENSUS_MAX_SIDE})"
        )
    pos_a = {v: i for i, v in enumerate(part_a)}
    pos_b = {v: i for i, v in enumerate(part_b)}
    split = classify(instance)

    a_masks = [_side_masks(instance.constraints[i], pos_a) for i in split.a_local]
    b_masks = [_side_masks(instance.constraints[i], pos_b) for i in split.b_local]
    surv_a = _local_survivors(n_a, a_masks)
    surv_b = _local_survivors(n_b, b_masks)
    m_a, m_b = int(surv_a.size), int(surv_b.size)

    if m_a == 0 or m_b == 0:
        return SolutionCensus(m_a, m_b, 0, 0, m_a, 0, m_b, rectangular=True)

    cross = [instance.constraints[i] for i in split.cross]
    if not cross:
        m_ab = m_a * m_b
        return SolutionCensus(m_a, m_b, m_ab, m_a, 0, m_b, 0, rectangular=True)

    b_match = np.stack(
        [(surv_b & mb) == vb for mb, vb in (_side_masks(c, pos_b) for c in cross)]
    )

    words = (len(cross) + 63) // 64
    sig_counts: dict[bytes, int] = {}
    step = 1 << _CHUNK_BITS
    for start in range(0, m_a, step):
        block = surv_a[start : start + step]
        sig = np.zeros((block.size, words), dtype=np.uint64)
        for c_idx, c in enumerate(cross):
            ma, va = _side_masks(c, pos_a)
            matches = (block & ma) == va
            sig[:, c_idx // 64] |= matches.astype(np.uint64) << np.uint64(c_idx % 64)
        uniq, counts = np.unique(sig, axis=0, return_counts=True)
        for row, cnt in zip(uniq, counts, strict=True):
            key = row.tobytes()
            sig_counts[key] = sig_counts.get(key, 0) + int(cnt)

    m_ab = 0
    m_a_s = 0
    b_extendable = np.zeros(m_b, dtype=bool)
    for key, count_a in sig_counts.items():
        sig_words = np.frombuffer(key, dtype=np.uint64)
        bad = np.zeros(m_b, dtype=bool)
        for c_idx in range(len(cross)):
            if (int(sig_words[c_idx // 64]) >> (c_idx % 64)) & 1:
                bad |= b_match[c_idx]
        good = m_b - int(bad.sum())
        m_ab += count_a * good
        if good:
            m_a_s += count_a
            b_extendable |= ~bad
    m_b_s = int(b_extendable.sum())

    return SolutionCensus(
        m_a=m_a,
        m_b=m_b,
        m_ab=m_ab,
        m_a_s=m_a_s,
        m_a_ns=m_a - m_a_s,
        m_b_s=m_b_s,
        m_b_ns=m_b - m_b_s,
        rectangular=(m_a_s * m_b_s == m_ab),
    )


def shapes_from_census(
    instance: CspInstance, counts: SolutionCensus
) -> tuple[SubsystemShape, SubsystemShape, int]:
    """Subsystem shapes (2^|A|, M_A), (2^|B|, M_B) plus the global count."""
    if counts.m_a == 0 or counts.m_b == 0:
        side = "A" if counts.m_a == 0 else "B"
        raise ValueError(f"subsystem {side} is locally unsatisfiable; no search shapes exist")
    n_a = len(instance.partition_a)
    n_b = instance.n - n_a
    return (
        SubsystemShape(1 << n_a, counts.m_a),
        SubsystemShape(1 << n_b, counts.m_b),
        counts.m_ab,
    )


def instance_to_json(instance: CspInstance) -> str:
    """Canonical text form; byte-stable for identical instances."""
    payload = {
        "version": FILE_FORMAT_VERSION,
        "n": instance.n,
        "k": instance.k,
        "alpha": instance.alpha,
        "x": instance.x,
        "seed": instance.seed,
        "partition_A": list(instance.partition_a),
        "constraints": [
            {
                "vars": list(c.variables),
                "forbidden": "".join(str(b) for b in c.forbidden),
            }
            for c in instance.constraints
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def instance_from_json(text: str) -> CspInstance:
    payload = json.loads(text)
    version = payload.get("version")
    if version != FILE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported instance file version {version!r}; "
            f"this tool reads version {FILE_FORMAT_VERSION}"
        )
    constraints = tuple(
        Constraint(
            variables=tuple(entry["vars"]),
            forbidden=tuple(int(ch) for ch in entry["forbidden"]),
        )
        for entry in payload["constraints"]
    )
    return CspInstance(
        n=payload["n"],
        k=payload["k"],
        partition_a=tuple(payload["partition_A"]),
        constraints=constraints,
        alpha=payload["alpha"],
        x=payload["x"],
        seed=payload["seed"],
    )


def write_instance(instance: CspInstance, path: str | Path) -> None:
    Path(path).write_text(instance_to_json(instance))


def read_instance(path: str | Path) -> CspInstance:
    return instance_from_json(Path(path).read_text())
