"""Reference answers for every benchmark operation, coded without the package.

Nothing here imports `nestedsearch`: each oracle restates the physics or the
counting from first principles (closed forms, brute force, a general-purpose
ODE solver, a per-step eigendecomposition), so that a wrong package result
cannot agree with itself.  Ratios are passed as base-2 logarithms so the
closed forms stay exact down to 2^-1000.
"""

from __future__ import annotations

import math

import numpy as np

# A stage-one budget counts as wrong beyond this relative error (the package
# integrates to 1e-8 relative).
REL_TOL = 1e-6
FIDELITY_TOL = 1e-6
PROB_TOL = 1e-9
NORM_TOL = 1e-8
FIT_ABS_TOL = 0.03
FIT_REL_TOL = 0.1
OPTIMUM_LOG2_TOL = 0.05
GAP_REL_TOL = 1e-9
ENERGY_ABS_TOL = 4e-16

# The frozen stage-two calibration: 3 steps per iteration of 2048/48 each,
# fixed on the (16, 16, 1) reference whose dense run first reaches 0.99 at 2048.
FROZEN_CALIBRATION = (3, 2048 / 48, 2048.0)

# Open defects of the program.  A wrong or failed result whose inputs fall
# in one of these regions, and that misses the way the defect shows today,
# is counted (in failed, wrong_frac / fail_frac and the layer counters) but
# does not make the run incorrect; any other miss does.
# The quadrature is first seen to fail at 2^-29.6, for an unequal pair with
# the other fraction near 2^-12; for equal fractions it holds to about 2^-35.
DEFECT_LOG2_RATIO = -28.0
# Inside that region the quadrature mostly underestimates (by up to 100%, or
# to a negative or non-finite value), but for unequal pairs it can also
# overshoot the closed form or the sandwich's upper side: by at most 11% over
# 60000 random model points (n 30..300, k 2..4, alpha 0.5..1.5, x 0.1..0.9)
# and 8.5% over a grid of shape pairs.  An overshoot past this margin there
# is not this defect.
DEFECT_OVERSHOOT = 0.25
# optimize-not-grid-best was found at n = 8..24 by a scan of n 8..40, k 2..4
# and 41 values of alpha in [0.5, 1.5].
NOT_GRID_BEST_MAX_N = 24
KNOWN_DEFECTS = {
    "stage1-tiny-ratio": (
        "ROADMAP item 2: the stage-one quadrature loses the peak once a "
        f"marked fraction is below 2^{DEFECT_LOG2_RATIO:g}"
    ),
    "optimize-not-grid-best": (
        "optimize_x refines its best grid bracket by golden section on an "
        "objective stepped by the iteration ceiling, and can return a split "
        f"costing more than the balanced grid point it evaluated (n <= {NOT_GRID_BEST_MAX_N})"
    ),
}


def sqrt_odds(log2_r: float) -> float:
    """sqrt((1-r)/r) for r = 2^log2_r, exact for any r in (0, 1]."""
    r = 2.0**log2_r
    return math.sqrt(1.0 - r) * 2.0 ** (-0.5 * log2_r)


def stage1_closed_form(log2_ratios: list[float], epsilon: float) -> float | None:
    """The exact stage-one budget when all m nontrivial ratios are equal,
    sqrt(m (1-r)/r)/epsilon: sqrt((1-r)/r)/epsilon for one subsystem and
    sqrt(2(1-r)/r)/epsilon for an equal pair.  None when they differ."""
    nontrivial = [lr for lr in log2_ratios if lr < 0.0]
    if not nontrivial:
        return 0.0
    if any(lr != nontrivial[0] for lr in nontrivial):
        return None
    return math.sqrt(len(nontrivial)) * sqrt_odds(nontrivial[0]) / epsilon


def stage1_sandwich(log2_ratios: list[float], epsilon: float) -> tuple[float, float]:
    """max_i sqrt((1-r_i)/r_i) <= eps*T1 <= sum_i sqrt((1-r_i)/r_i), divided by eps."""
    terms = [sqrt_odds(lr) for lr in log2_ratios if lr < 0.0]
    if not terms:
        return 0.0, 0.0
    return max(terms) / epsilon, math.fsum(terms) / epsilon


def ceil_sqrt_ratio(num: int, den: int) -> int:
    """The exact iteration count ceil(sqrt(num/den)), at least 1."""
    q = -(-num // den)
    t = math.isqrt(q)
    if t * t < q:
        t += 1
    return max(1, t)


def model_log2_counts(n: int, k: int, alpha: float, x: float) -> tuple[float, float, float, bool]:
    """Clamped log2 M_A, M_B, the raw log2 M_AB, and whether a clamp fired."""
    a = n * x - n * alpha * x**k
    b = n * (1.0 - x) - n * alpha * (1.0 - x) ** k
    ab = n - n * alpha
    return max(0.0, a), max(0.0, b), ab, (a < 0.0 or b < 0.0 or ab < 0.0)


def model_log2_ratios(n: int, k: int, alpha: float, x: float) -> tuple[float, float]:
    la, lb, _, _ = model_log2_counts(n, k, alpha, x)
    return min(0.0, la - n * x), min(0.0, lb - n * (1.0 - x))


def model_reference(n: int, k: int, alpha: float, x: float, epsilon: float = 1.0) -> dict:
    """What model_time must return: T1 exactly or as a sandwich, and the
    iteration count from the clamped counts against the raw joint count."""
    la, lb, lab, clamped = model_log2_counts(n, k, alpha, x)
    ratios = list(model_log2_ratios(n, k, alpha, x))
    iterations = max(1, math.ceil(2.0 ** (0.5 * (la + lb - lab))))
    lo, hi = stage1_sandwich(ratios, epsilon)
    return {
        "exact": stage1_closed_form(ratios, epsilon),
        "lo": lo,
        "hi": hi,
        "iterations": iterations,
        "clamped": clamped,
        "min_log2_ratio": min(ratios),
    }


def closed_form_log2_total(n: int, k: int, alpha: float, x: float) -> float:
    """(n/2) max(alpha - alpha (1-x)^k, alpha - alpha x^k)."""
    return 0.5 * n * max(alpha - alpha * (1.0 - x) ** k, alpha - alpha * x**k)


def closed_form_slope(k: int, alpha: float, x: float, n_values: list[int]) -> float:
    """Least-squares slope of the closed-form column over the grid."""
    ys = [closed_form_log2_total(n, k, alpha, x) for n in n_values]
    return float(np.polyfit(np.asarray(n_values, float), np.asarray(ys), 1)[0])


def balanced_log2_total(n: int, k: int, alpha: float) -> float:
    """log2 of the exact composed time at the balanced split x = 1/2."""
    ref = model_reference(n, k, alpha, 0.5)
    return math.log2(ref["exact"]) + math.log2(ref["iterations"])


def lowest_log2_total_bound(n: int, k: int, alpha: float, points: int = 401) -> float:
    """Smallest log2 of (stage-one lower bound x iterations) over splits in
    [0.02, 0.98]: no split can cost less than this."""
    best = math.inf
    for i in range(points):
        x = 0.02 + 0.96 * i / (points - 1)
        ref = model_reference(n, k, alpha, x)
        if ref["lo"] > 0.0:
            best = min(best, math.log2(ref["lo"]) + math.log2(ref["iterations"]))
    return best


def gap_reference(s: float, log2_r: float) -> float:
    """Gap of the 2x2 restricted Hamiltonian by a dense eigensolver."""
    r = 2.0**log2_r
    ab = math.sqrt(r * (1.0 - r))
    h = np.array([[s * (1.0 - r), -s * ab], [-s * ab, (1.0 - s) + s * r]])
    lo, hi = np.linalg.eigvalsh(h)
    return float(hi - lo)


def gap_minimum(log2_r: float) -> float:
    """The gap at s = 1/2 is exactly sqrt(r)."""
    return 2.0 ** (0.5 * log2_r)


def brute_census(n: int, partition_a: list[int], constraints: list[tuple[list[int], list[int]]]) -> tuple[int, int, int, int, int]:
    """(m_a, m_b, m_ab, m_a_s, m_b_s) by filtering all 2^n assignments.

    A-local (B-local) solutions are assignments of one side that break no
    constraint lying wholly on that side; m_a_s (m_b_s) counts those that are
    the restriction of some global solution.
    """
    part_a = sorted(partition_a)
    part_b = [v for v in range(n) if v not in set(part_a)]

    def survivors(nbits: int, cons: list[tuple[list[int], list[int]]]) -> np.ndarray:
        live = np.arange(1 << nbits, dtype=np.int64)
        for variables, forbidden in cons:
            hit = np.ones(live.shape, dtype=bool)
            for var, bit in zip(variables, forbidden):
                hit &= ((live >> var) & 1) == bit
            live = live[~hit]
        return live

    def local(side: list[int]) -> int:
        pos = {v: i for i, v in enumerate(side)}
        cons = [([pos[v] for v in vs], fb) for vs, fb in constraints if all(v in pos for v in vs)]
        return int(survivors(len(side), cons).size)

    full = survivors(n, constraints)

    def projections(side: list[int]) -> int:
        mask = sum(1 << v for v in side)
        return int(np.unique(full & mask).size) if full.size else 0

    return local(part_a), local(part_b), int(full.size), projections(part_a), projections(part_b)


def stage1_fidelity_reference(log2_r: float, total_time: float) -> float:
    """Ground-state fidelity after a linear sweep of duration T, by DOP853
    at rtol 1e-10 on the real form of the two-level Schrodinger equation."""
    r = 2.0**log2_r
    if r >= 1.0:
        return 1.0
    if total_time == 0.0:
        return r
    # imported here, after the timed region, so that the set-up time measures
    # only what the package itself imports
    from scipy.integrate import solve_ivp

    a, b = math.sqrt(r), math.sqrt(1.0 - r)

    def rhs(t: float, y: np.ndarray) -> list[float]:
        s = t / total_time
        h00, h01, h11 = s * (1.0 - r), -s * a * b, (1.0 - s) + s * r
        c0r, c0i, c1r, c1i = y
        return [
            h00 * c0i + h01 * c1i,
            -(h00 * c0r + h01 * c1r),
            h01 * c0i + h11 * c1i,
            -(h01 * c0r + h11 * c1r),
        ]

    sol = solve_ivp(rhs, (0.0, total_time), [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    c0r, c0i, c1r, c1i = sol.y[:, -1]
    return float((a * c0r + b * c1r) ** 2 + (a * c0i + b * c1i) ** 2)


def stage2_success_reference(m_a: int, m_b: int, m_ab: int, steps: int, step_time: float) -> float:
    """Stage-two success by applying exp(-i H dt) through an eigendecomposition
    of H at every step s_l = l/steps, from the product state."""
    r = m_ab / (m_a * m_b)
    init = np.array([math.sqrt(r), math.sqrt(1.0 - r)])
    psi = init.astype(complex)
    h_init = np.eye(2) - np.outer(init, init)
    h_final = np.array([[0.0, 0.0], [0.0, 1.0]])
    for step in range(1, steps + 1):
        s = step / steps
        vals, vecs = np.linalg.eigh((1.0 - s) * h_init + s * h_final)
        psi = vecs @ (np.exp(-1j * vals * step_time) * (vecs.T @ psi))
    return float(abs(psi[0]) ** 2)
