"""Seeded operation streams for each workload, how to run an operation, and
how to judge its result against the oracles.

A workload is an endless stream of rounds.  Every round has the same fixed
composition of operation kinds and instance classes; the seed draws the
parameters inside each class (stratified, so the cost mix is alike from seed
to seed) and the instance seeds.  The program only ever sees the generated
inputs.  Operations call the package through module attributes at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import nestedsearch as ns

import oracles as orc


@dataclass
class Op:
    kind: str
    params: dict
    cls: str = ""


@dataclass
class Raised:
    """An exception an operation raised, kept as its result."""

    exc: BaseException


@dataclass
class Verdict:
    status: str  # "ok", "wrong" or "failed"
    defect: str | None = None
    facts: dict = field(default_factory=dict)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Draws(random.Random):
    """The seeded random source of one operation stream.

    `strata` takes one value from each of `count` equal bins, at the same
    offset inside every bin.  The offset of a round's j-th stratified draw
    runs through the Kronecker sequence u_j + r * GOLDEN (mod 1) over the
    rounds r, from a seeded start u_j.  Whatever the seed, a few rounds then
    cover every bin evenly, so the cost mix of a run moves from seed to seed
    by O(1/rounds) rather than O(1/sqrt(rounds)).
    """

    def __init__(self, seed: str):
        super().__init__(seed)
        self.starts: list[float] = []
        self.round = -1
        self.calls = 0

    def next_round(self) -> None:
        self.round += 1
        self.calls = 0

    def strata(self, count: int, lo: float, hi: float) -> list[float]:
        if self.calls == len(self.starts):
            self.starts.append(self.random())
        u = (self.starts[self.calls] + self.round * GOLDEN) % 1.0
        self.calls += 1
        width = (hi - lo) / count
        vals = [lo + (i + u) * width for i in range(count)]
        self.shuffle(vals)
        return vals

    def between(self, lo: float, hi: float) -> float:
        """A single stratified draw: the Kronecker sequence over [lo, hi]."""
        return self.strata(1, lo, hi)[0]


def _log_strata_int(rng: Draws, count: int, lo: float, hi: float) -> list[int]:
    return [int(round(math.exp(v))) for v in rng.strata(count, math.log(lo), math.log(hi))]


def _shape(rng: Draws, log2_ratio_mag: float) -> tuple[int, int]:
    """(N, M) integers with N a power of two and M/N close to 2^-mag."""
    e = max(1, int(round(log2_ratio_mag)))
    m = rng.randint(1, 2 ** min(e - 1, 6))
    return 1 << (e + m.bit_length() - 1), m


def _log2_ratio(dim: int, sol: int) -> float:
    return math.log2(sol) - (dim.bit_length() - 1)


def _seed(rng: Draws) -> int:
    return rng.getrandbits(31)


# ---------------------------------------------------------------------------
# round composition


def _epsilon(rng: Draws) -> float:
    return rng.uniform(0.1, 1.0)


def _moderate(rng: Draws) -> float:
    return 2.0 ** rng.uniform(0, 10)


# Each round's composition places the 90th percentile of operation latency
# inside one class (sweeps, cross-heavy censuses, criterion-8 bound checks),
# about 5% of the round or more from either edge of the class, so that p90
# measures that class and not the seed-dependent edge between two classes;
# the median likewise (model points, light censuses, two-sided 1000-step
# stage-one runs).


def model_round(rng: Draws) -> list[Op]:
    ops = []
    ks = [2, 3, 4] * 5
    for n, k in zip(_log_strata_int(rng, 14, 8, 300), ks):
        p = dict(n=n, k=k, alpha=rng.uniform(0.5, 1.5), x=rng.uniform(0.2, 0.8))
        ops.append(Op("model.point", p))
    for n in _log_strata_int(rng, 4, 8, 300):
        ops.append(Op("model.sweep", dict(n=n, k=rng.randint(2, 4), alpha=rng.uniform(0.5, 1.5))))
    n = _log_strata_int(rng, 1, 8, 300)[0]
    ops.append(Op("model.optimize", dict(n=n, k=rng.randint(2, 4), alpha=rng.uniform(0.5, 1.5))))
    for lo, hi, step, count in ((12, 24, 4, 7), (12, 24, 4, 7), (92, 100, 25, 9)):
        n0 = rng.randint(lo, hi)
        grid = list(range(n0, n0 + step * count, step))
        ops.append(Op("model.scaling", dict(k=rng.randint(2, 4), alpha=rng.uniform(0.5, 1.5), x=rng.uniform(0.3, 0.7), n_values=grid)))
    # marked fractions from 2^-1 to 2^-1000, log-uniform in the exponent
    mags = iter([2.0**v for v in rng.strata(10, 0.0, math.log2(1000.0))])
    ops.append(Op("schedule.stage1", dict(shapes=[_shape(rng, next(mags))], epsilon=_epsilon(rng))))
    for _ in range(2):
        shape = _shape(rng, next(mags))
        ops.append(Op("schedule.stage1", dict(shapes=[shape, shape], epsilon=_epsilon(rng))))
    for _ in range(2):
        ops.append(Op("schedule.stage1", dict(shapes=[_shape(rng, next(mags)), _shape(rng, _moderate(rng))], epsilon=_epsilon(rng))))
    for group in ([next(mags), next(mags)], [next(mags), next(mags), _moderate(rng), _moderate(rng)]):
        shapes = [_shape(rng, mag) for mag in group]
        m_joint = rng.randint(1, min(math.prod(m for _, m in shapes), 10**6))
        ops.append(Op("schedule.total", dict(shapes=shapes, m_joint=m_joint, epsilon=_epsilon(rng))))
    for mag in rng.strata(3, 1.0, 60.0):
        ops.append(Op("spectral.gap_curve", dict(shape=_shape(rng, mag))))
    return ops


def census_round(rng: Draws) -> list[Op]:
    def inst(cls: str, n: int, k: int, alpha: float, x: float) -> Op:
        return Op("csp.pipeline", dict(n=n, k=k, alpha=alpha, x=x, seed=_seed(rng)), cls)

    # 2^25 local enumeration on the big side
    ops = [inst("local_heavy", 30, 2, rng.between(0.5, 0.6), 25 / 30)]
    # k = 4 with hundreds of cross constraints
    ops += [inst("cross_heavy", 26, 4, alpha, 0.5) for alpha in rng.strata(5, 1.3, 1.5)]
    for _ in range(2):
        ops.append(inst("refused", rng.randint(31, 40), rng.randint(2, 4), rng.uniform(0.5, 1.5), 0.5))
        n = rng.randint(27, 30)
        ops.append(inst("refused", n, rng.randint(2, 4), rng.uniform(0.5, 1.5), (n - 1) / n))
    # light: balanced k = 2, cheap and alike in cost, so the median latency
    # sits among many similar operations; sparse where n <= 20, so the
    # brute-force oracle sees satisfiable instances, dense above, where a
    # sparse instance would cost ten times more
    for u, a in zip(rng.strata(24, 0, 1), rng.strata(24, 0, 0.5)):
        n = 16 + int(u * 15)
        ops.append(inst("light", n, 2, 0.5 + a if n <= 20 else 1.0 + a, 0.5))
    for u in rng.strata(2, 0, 1):
        n = 20 + int(u * 7)
        # lopsided, the larger side at most 20 bits
        ops.append(inst("mid", n, 2, rng.uniform(0.5, 1.0), min(20.0 / n, rng.uniform(0.6, 0.8))))
    for k, span in ((3, 15), (3, 15), (4, 9), (4, 9)):
        ops.append(inst("mid", 16 + int(rng.random() * span), k, rng.uniform(0.5, 1.5), 0.5))
    return ops


# The criterion-8 shape: two (N=64, M=1) subsystems at epsilon 0.1.
CRITERION8 = dict(dims=[64, 64], epsilon=0.1)


def simulate_round(rng: Draws) -> list[Op]:
    ops = []
    exps = rng.strata(5, 4.0, 17.0) + [rng.between(19.0, 20.0)]
    for i, e in enumerate(exps):
        da = int(round(2.0**e))
        db = da if i % 2 else int(round(2.0 ** min(e + 1.0, max(4.0, e + rng.between(-2, 1)))))
        ops.append(Op("dynamics.stage1", dict(dims=[da, db], time_factor=1.0)))
    ops += [Op("dynamics.bound", dict(CRITERION8), "criterion8") for _ in range(3)]
    d = int(round(2.0 ** rng.between(6, 10)))
    ops.append(Op("dynamics.bound", dict(dims=[d, d], epsilon=rng.between(0.5, 1.0))))
    for v in rng.strata(7, 2.0, 10.0):
        it = 2.0**v
        m_ab = rng.randint(1, 4)
        target = it * it * m_ab
        m_a = max(1, int(round(2.0 ** rng.uniform(1, max(1.0, math.log2(target) - 1)))))
        m_b = max(1, math.ceil(target / m_a))
        ops.append(Op("dynamics.stage2", dict(m_a=m_a, m_b=m_b, m_ab=m_ab)))
    ops.append(Op("dynamics.calibrate", {}))
    # sparse instances are satisfiable and run both stages; the dense one is
    # refused as unsatisfiable.  A stage-one run of under 10 time units takes
    # the 1000-step floor, so the sparse runs with two constrained sides and
    # the smallest direct stage-one pairs cost alike: the median sits among
    # them, with about as many cheaper operations (stage two, the dense
    # refusal, sparse runs with one side unconstrained) as dearer ones.
    for n, alpha, eps in zip(rng.strata(9, 10, 17), rng.strata(9, 0.2, 0.5), rng.strata(9, 0.5, 1.0)):
        p = dict(n=int(n), k=2, alpha=alpha, x=rng.uniform(0.4, 0.6), seed=_seed(rng), epsilon=eps)
        ops.append(Op("dynamics.nested", p, "nested_sparse"))
    p = dict(n=rng.randint(10, 16), k=2, alpha=rng.uniform(1.2, 1.5), x=0.5, seed=_seed(rng), epsilon=1.0)
    ops.append(Op("dynamics.nested", p, "nested_dense"))
    return ops


ROUNDS: dict[str, Callable[[Draws], list[Op]]] = {
    "model-grid": model_round,
    "census-mix": census_round,
    "simulate-mix": simulate_round,
}


def rounds(workload: str, seed: int):
    """Endless seeded stream of shuffled rounds."""
    rng = Draws(f"{workload}:{seed}")
    make = ROUNDS[workload]
    while True:
        rng.next_round()
        ops = make(rng)
        rng.shuffle(ops)
        yield ops


# Fixed small operations run once before timing so lazy imports and first
# calls are paid in set-up, not by the first timed operation.
WARMUP: dict[str, list[Op]] = {
    "model-grid": [
        Op("model.point", dict(n=16, k=2, alpha=1.0, x=0.5)),
        Op("schedule.total", dict(shapes=[(16, 1), (16, 1)], m_joint=1, epsilon=1.0)),
        Op("spectral.gap_curve", dict(shape=(16, 1))),
        Op("model.scaling", dict(k=2, alpha=1.0, x=0.5, n_values=[8, 10, 12, 14, 16])),
    ],
    "census-mix": [Op("csp.pipeline", dict(n=12, k=2, alpha=1.0, x=0.5, seed=27), "light")],
    "simulate-mix": [
        Op("dynamics.stage1", dict(dims=[16, 16], time_factor=1.0)),
        Op("dynamics.stage2", dict(m_a=16, m_b=16, m_ab=1)),
        Op("dynamics.nested", dict(n=10, k=2, alpha=0.5, x=0.5, seed=27, epsilon=1.0)),
    ],
}


# ---------------------------------------------------------------------------
# running


def _shapes(pairs: list[tuple[int, int]]) -> list:
    return [ns.SubsystemShape(dim, sol) for dim, sol in pairs]


GAP_GRID = [i / 64 for i in range(65)]
# the README's sweep grid, 0.1:0.9:33
SWEEP_XS = [0.1 + 0.8 * i / 32 for i in range(33)]


def _run(op: Op) -> Any:
    p = op.params
    kind = op.kind
    if kind == "model.point":
        return ns.model_time(ns.PartitionModel(p["n"], p["k"], p["alpha"], p["x"]))
    if kind == "model.sweep":
        return [ns.model_time(ns.PartitionModel(p["n"], p["k"], p["alpha"], x)) for x in SWEEP_XS]
    if kind == "model.optimize":
        return ns.optimize_x(p["n"], p["k"], p["alpha"])
    if kind == "model.scaling":
        return ns.fit_scaling(p["k"], p["alpha"], p["x"], p["n_values"])
    if kind == "schedule.stage1":
        return ns.stage1_time(_shapes(p["shapes"]), ns.AccuracyTarget(p["epsilon"]))
    if kind == "schedule.total":
        return ns.total_time(_shapes(p["shapes"]), p["m_joint"], ns.AccuracyTarget(p["epsilon"]))
    if kind == "spectral.gap_curve":
        shape = ns.SubsystemShape(*p["shape"])
        out = []
        for s in GAP_GRID:
            point = ns.SchedulePoint(s)
            out.append((ns.gap(point, shape), ns.two_level_spectrum(point, shape).gap))
        return out
    if kind == "csp.pipeline":
        inst = ns.generate(p["n"], p["k"], p["alpha"], p["x"], p["seed"])
        back = ns.instance_from_json(ns.instance_to_json(inst))
        try:
            return inst, back, ns.census(back)
        except ns.CensusScaleError as exc:
            return inst, back, Raised(exc)
    if kind == "dynamics.stage1":
        shapes = _shapes([(d, 1) for d in p["dims"]])
        budget = ns.stage1_time(shapes)
        total = p["time_factor"] * budget.stage1_time
        return budget, total, ns.simulate_stage1(shapes, ns.EvolutionConfig(total_time=total, schedule="linear"))
    if kind == "dynamics.bound":
        shapes = _shapes([(d, 1) for d in p["dims"]])
        return ns.verify_adiabatic_bound(shapes, ns.AccuracyTarget(p["epsilon"]))
    if kind == "dynamics.stage2":
        iterations = ns.stage2_iterations(p["m_a"], p["m_b"], p["m_ab"])
        steps = ns.dynamics.STAGE2_STEP_MULTIPLIER * iterations
        step_time = ns.dynamics.STAGE2_STEP_TIME
        report = ns.simulate_stage2(p["m_a"], p["m_b"], p["m_ab"], steps, step_time)
        return iterations, steps, step_time, report
    if kind == "dynamics.calibrate":
        return ns.calibrate_stage2()
    if kind == "dynamics.nested":
        inst = ns.generate(p["n"], p["k"], p["alpha"], p["x"], p["seed"])
        try:
            return inst, ns.run_nested_search(inst, ns.AccuracyTarget(p["epsilon"]))
        except ValueError as exc:
            return inst, Raised(exc)
    raise KeyError(kind)


def run(op: Op) -> Any:
    """Run one operation; an exception becomes its result."""
    try:
        return _run(op)
    except Exception as exc:  # noqa: BLE001 - an unexpected exception is a failed operation
        return Raised(exc)


# ---------------------------------------------------------------------------
# judging


def _bad_number(*values: float) -> bool:
    return any(not math.isfinite(v) or v < 0.0 for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _defect(min_log2_ratio: float) -> str | None:
    return "stage1-tiny-ratio" if min_log2_ratio < orc.DEFECT_LOG2_RATIO else None


def _worst(verdicts: list[Verdict]) -> Verdict:
    rank = {"ok": 0, "wrong": 1, "failed": 2}
    out = max(verdicts, key=lambda v: rank[v.status])
    facts: dict = {}
    for v in verdicts:
        for key, val in v.facts.items():
            facts[key] = max(facts.get(key, 0), val)
    # ledgered only when every miss is
    misses = [v for v in verdicts if v.status != "ok"]
    defect = misses[0].defect if misses and all(v.defect for v in misses) else None
    return Verdict(out.status, defect, facts)


def _check_stage1_value(t1: float, ratios: list[float], epsilon: float) -> tuple[str, dict, bool]:
    """Status and facts for one stage-one budget against the oracles, and
    whether a miss looks the way the quadrature fails at tiny ratios today:
    any underestimate, or an overestimate of at most orc.DEFECT_OVERSHOOT
    over the closed form or the sandwich's upper side."""
    exact = orc.stage1_closed_form(ratios, epsilon)
    lo, hi = orc.stage1_sandwich(ratios, epsilon)
    upper = exact if exact is not None else hi
    facts = {}
    miss = False
    if exact is not None:
        err = _rel(t1, exact)
        facts["stage1_rel_err"] = err
        miss = err > orc.REL_TOL
    if t1 < lo * (1 - orc.REL_TOL) or t1 > hi * (1 + orc.REL_TOL):
        facts["bound_violation"] = 1
        miss = True
    return ("wrong" if miss else "ok"), facts, miss and t1 <= upper * (1 + orc.DEFECT_OVERSHOOT)


def _check_budget(b: Any, want_iterations: int | None, iterations_tol: float,
                  ratios: list[float], epsilon: float, defect: str | None) -> Verdict:
    """A stage-one budget and, when `want_iterations` is given, its iteration
    count and composed total.  A miss in a ledgered region is ledgered only in
    the way that defect shows today: a stage-one time that is non-finite,
    negative, under the oracle, or over it by at most orc.DEFECT_OVERSHOOT,
    with the iterations and the total consistent.  Any other miss there
    counts as unexpected."""
    if _bad_number(b.stage1_time, b.total_time):
        return Verdict("failed", defect if _bad_number(b.stage1_time) else None, {"nonfinite": 1})
    status, facts, like_defect = _check_stage1_value(b.stage1_time, ratios, epsilon)
    if want_iterations is not None:
        consistent = _rel(b.total_time, b.stage1_time * b.iterations) <= 1e-12
        if abs(b.iterations - want_iterations) > iterations_tol:
            facts["iterations_mismatch"] = 1
            consistent = False
        if not consistent:
            return Verdict("wrong", None, facts)
    return Verdict(status, defect if like_defect else None, facts)


def _check_model_budget(p: dict, x: float, b: Any) -> Verdict:
    ref = orc.model_reference(p["n"], p["k"], p["alpha"], x)
    ratios = list(orc.model_log2_ratios(p["n"], p["k"], p["alpha"], x))
    v = _check_budget(b, ref["iterations"], max(1.0, 1e-9 * ref["iterations"]), ratios, 1.0,
                      _defect(ref["min_log2_ratio"]))
    if b.clamped != ref["clamped"]:
        return Verdict("wrong", None, v.facts)
    return v


def _min_ratio_over(n_values: list[int], xs: list[float], k: int, alpha: float) -> float:
    return min(min(orc.model_log2_ratios(n, k, alpha, x)) for n in n_values for x in xs)


OPT_GRID = [0.02 + 0.96 * i / 100 for i in range(101)]


def _check_optimize(p: dict, x_opt: float, log2_total: float) -> Verdict:
    """The value returned at x_opt against the oracle at x_opt, then the split
    against the balanced one (a grid point) and the lowest bound over all
    splits.  In the tiny-ratio region today's fault is a non-finite value, a
    value at x_opt that is under the oracle or over it by at most
    orc.DEFECT_OVERSHOOT, or a value at a split worse than the balanced one,
    chosen because the defect corrupted other grid points."""
    n, k, alpha = p["n"], p["k"], p["alpha"]
    region = _defect(_min_ratio_over([n], OPT_GRID, k, alpha))
    if not 0.0 < x_opt < 1.0:
        return Verdict("wrong")
    if not math.isfinite(log2_total):
        return Verdict("failed", region if log2_total != math.inf else None, {"nonfinite": 1})
    tol = orc.OPTIMUM_LOG2_TOL
    ref = orc.model_reference(n, k, alpha, x_opt)
    # the iteration ceiling may fall either side of a step at x_opt
    at_lo = math.log2(ref["lo"]) + math.log2(max(1, ref["iterations"] - 1)) if ref["lo"] > 0.0 else -math.inf
    at_hi = math.log2(ref["hi"]) + math.log2(ref["iterations"] + 1) if ref["hi"] > 0.0 else 0.0
    if log2_total > at_hi + tol:
        like_defect = log2_total <= at_hi + tol + math.log2(1.0 + orc.DEFECT_OVERSHOOT)
        return Verdict("wrong", region if like_defect else None)
    if log2_total < at_lo - tol or log2_total < orc.lowest_log2_total_bound(n, k, alpha) - tol:
        return Verdict("wrong", region)
    if log2_total > orc.balanced_log2_total(n, k, alpha) + tol:
        return Verdict("wrong", region or ("optimize-not-grid-best" if n <= orc.NOT_GRID_BEST_MAX_N else None))
    return Verdict("ok")


def _check(op: Op, res: Any) -> Verdict:
    p = op.params
    kind = op.kind
    if kind == "model.point":
        return _check_model_budget(p, p["x"], res)
    if kind == "model.sweep":
        return _worst([_check_model_budget(p, x, b) for x, b in zip(SWEEP_XS, res)])
    if kind == "model.optimize":
        return _check_optimize(p, *res)
    if kind == "model.scaling":
        defect = _defect(_min_ratio_over(p["n_values"], [p["x"]], p["k"], p["alpha"]))
        if not math.isfinite(res.slope):
            return Verdict("failed", defect, {"nonfinite": 1})
        ref = orc.closed_form_slope(p["k"], p["alpha"], p["x"], p["n_values"])
        if abs(res.slope - ref) > orc.FIT_ABS_TOL + orc.FIT_REL_TOL * abs(ref):
            # underestimated budgets at the large n of the grid flatten the fit
            return Verdict("wrong", defect if res.slope < ref else None)
        return Verdict("ok")
    if kind in ("schedule.stage1", "schedule.total"):
        ratios = [_log2_ratio(d, m) for d, m in p["shapes"]]
        want = orc.ceil_sqrt_ratio(math.prod(m for _, m in p["shapes"]), p["m_joint"]) if kind == "schedule.total" else None
        return _check_budget(res, want, 0.0, ratios, p["epsilon"], _defect(min(ratios)))
    if kind == "spectral.gap_curve":
        lr = _log2_ratio(*p["shape"])
        err = 0.0
        ok = True
        for s, (g, g2) in zip(GAP_GRID, res):
            if s == 0.5:
                # the exact minimum; the spectrum's gap is a difference of
                # energies of order 1, so it is held to absolute precision
                ref = orc.gap_minimum(lr)
                err = max(err, _rel(g, ref))
                ok &= abs(g2 - ref) <= orc.ENERGY_ABS_TOL
            else:
                ref = orc.gap_reference(s, lr)
                if ref > 1e-4:
                    err = max(err, _rel(g, ref), _rel(g2, ref))
        return Verdict("ok" if ok and err <= orc.GAP_REL_TOL else "wrong", None, {"gap_rel_err": err})
    if kind == "csp.pipeline":
        return _check_census(op, *res)
    if kind == "dynamics.stage1":
        budget, total, rep = res
        ratios = [-math.log2(d) for d in p["dims"]]
        status, facts, _ = _check_stage1_value(budget.stage1_time, ratios, 1.0)
        if _bad_number(rep.final_fidelity, *rep.per_subsystem_fidelity):
            return Verdict("failed")
        err = max(abs(f - orc.stage1_fidelity_reference(lr, total)) for f, lr in zip(rep.per_subsystem_fidelity, ratios))
        facts["fid_err"] = err
        facts["stage1_steps"] = ns.EvolutionConfig(total_time=total).resolved_steps() * len(ratios)
        if err > orc.FIDELITY_TOL or rep.norm_error > orc.NORM_TOL or _rel(rep.final_fidelity, math.prod(rep.per_subsystem_fidelity)) > 1e-12:
            status = "wrong"
        return Verdict(status, None, facts)
    if kind == "dynamics.bound":
        ratios = [-math.log2(d) for d in p["dims"]]
        status, facts, _ = _check_stage1_value(res.stage1_time, ratios, p["epsilon"])
        infid = res.infidelities
        if _bad_number(res.stage1_time, *infid) or not math.isfinite(res.decay_order):
            return Verdict("failed")
        if any(v > 1.0 for v in infid):
            status = "wrong"
        facts["stage1_steps"] = sum(ns.EvolutionConfig(total_time=f * res.stage1_time).resolved_steps() for f in res.time_factors) * len(ratios)
        if op.cls == "criterion8":
            facts["infidelity_at_t1"] = infid[0]
        return Verdict(status, None, facts)
    if kind == "dynamics.stage2":
        iterations, steps, step_time, rep = res
        facts = {"stage2_steps": steps}
        if iterations != orc.ceil_sqrt_ratio(p["m_a"] * p["m_b"], p["m_ab"]):
            facts["iterations_mismatch"] = 1
            return Verdict("wrong", None, facts)
        if _bad_number(rep.success_probability):
            return Verdict("failed", None, facts)
        err = abs(rep.success_probability - orc.stage2_success_reference(p["m_a"], p["m_b"], p["m_ab"], steps, step_time))
        facts["prob_err"] = err
        facts["success"] = rep.success_probability
        ok = err <= orc.PROB_TOL and rep.success_probability <= 1.0 + 1e-12 and rep.norm_error <= orc.NORM_TOL
        return Verdict("ok" if ok else "wrong", None, facts)
    if kind == "dynamics.calibrate":
        got = (res.step_multiplier, res.step_time, res.reference_time)
        return Verdict("ok" if got == orc.FROZEN_CALIBRATION else "wrong")
    if kind == "dynamics.nested":
        return _check_nested(p, *res)
    raise KeyError(kind)


def _instance_constraints(inst: Any) -> list[tuple[list[int], list[int]]]:
    return [(list(c.variables), list(c.forbidden)) for c in inst.constraints]


def _check_census(op: Op, inst: Any, back: Any, counts: Any) -> Verdict:
    n = inst.n
    side_a = len(inst.partition_a)
    refuse = n > 30 or max(side_a, n - side_a) > 25
    if back != inst:
        return Verdict("wrong", None, {"oracle_mismatch": 1})
    if isinstance(counts, Raised):
        return Verdict("ok" if refuse else "failed", None, {"refused": 1})
    if refuse:
        return Verdict("wrong", None, {"oracle_mismatch": 1})
    facts = {
        "assignments": (1 << side_a) + (1 << (n - side_a)),
        "survivor_pairs": counts.m_a * counts.m_b,
    }
    got = (counts.m_a, counts.m_b, counts.m_ab, counts.m_a_s, counts.m_b_s)
    consistent = counts.m_ab <= counts.m_a_s * counts.m_b_s <= counts.m_a * counts.m_b and counts.m_a <= 1 << side_a and counts.m_b <= 1 << (n - side_a)
    if consistent and n <= 20:
        consistent = got == orc.brute_census(n, list(inst.partition_a), _instance_constraints(inst))
    if not consistent:
        facts["oracle_mismatch"] = 1
        return Verdict("wrong", None, facts)
    return Verdict("ok", None, facts)


def _check_nested(p: dict, inst: Any, rep: Any) -> Verdict:
    n = inst.n
    side_a = len(inst.partition_a)
    m_a, m_b, m_ab, _, _ = orc.brute_census(n, list(inst.partition_a), _instance_constraints(inst))
    facts = {"assignments": (1 << side_a) + (1 << (n - side_a)), "survivor_pairs": m_a * m_b}
    if isinstance(rep, Raised):
        # the documented refusal for locally unsatisfiable or unsatisfiable instances
        return Verdict("ok" if m_ab == 0 else "failed", None, facts)
    if m_ab == 0 or (rep.counts.m_a, rep.counts.m_b, rep.counts.m_ab) != (m_a, m_b, m_ab):
        facts["oracle_mismatch"] = 1
        return Verdict("wrong", None, facts)
    b = rep.budget
    ratios = [math.log2(m_a) - side_a, math.log2(m_b) - (n - side_a)]
    if _bad_number(b.stage1_time, b.total_time, rep.stage1.final_fidelity, rep.stage2.success_probability):
        return Verdict("failed", None, facts)
    status, more, _ = _check_stage1_value(b.stage1_time, ratios, p["epsilon"])
    facts.update(more)
    if b.iterations != orc.ceil_sqrt_ratio(m_a * m_b, m_ab):
        facts["iterations_mismatch"] = 1
        status = "wrong"
    if _rel(rep.total_time, b.stage1_time * b.iterations) > 1e-12:
        status = "wrong"
    for prob in (rep.stage1.final_fidelity, rep.stage2.success_probability):
        if prob > 1.0 + 1e-12:
            status = "wrong"
    if max(rep.stage1.norm_error, rep.stage2.norm_error) > orc.NORM_TOL:
        status = "wrong"
    facts["stage1_steps"] = ns.EvolutionConfig(total_time=b.stage1_time).resolved_steps() * 2
    facts["stage2_steps"] = ns.dynamics.STAGE2_STEP_MULTIPLIER * b.iterations
    return Verdict(status, None, facts)


def check(op: Op, res: Any) -> Verdict:
    """Judge one result; an unexpected exception is a failure."""
    if isinstance(res, Raised):
        facts = {"integration_error": 1} if type(res.exc).__name__ == "IntegrationError" else {}
        return Verdict("failed", None, facts)
    return _check(op, res)
