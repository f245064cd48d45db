"""Each oracle accepts the program's answer and flags a perturbed one.

Run from the repository root (kept out of the default test collection so the
benchmark adds nothing to the test suite's runtime):

    python3 -m pytest -q perfbench/oracle_selftest.py
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402


def judge(op: wl.Op, result) -> wl.Verdict:
    return wl.check(op, result)


def assert_flags(op: wl.Op, good, bad, status: str = "wrong") -> None:
    assert judge(op, good).status == "ok"
    assert judge(op, bad).status == status


def test_stage1_single_closed_form():
    op = wl.Op("schedule.stage1", dict(shapes=[(1 << 20, 3)], epsilon=0.5))
    good = wl.run(op)
    r = 3 / (1 << 20)
    assert math.isclose(good.stage1_time, math.sqrt((1 - r) / r) / 0.5, rel_tol=1e-9)
    assert math.isclose(orc.stage1_closed_form([math.log2(r)], 0.5), math.sqrt((1 - r) / r) / 0.5, rel_tol=1e-12)
    assert_flags(op, good, replace(good, stage1_time=good.stage1_time * (1 + 1e-4)))


def test_stage1_equal_pair_closed_form():
    op = wl.Op("schedule.stage1", dict(shapes=[(1 << 12, 1), (1 << 12, 1)], epsilon=1.0))
    good = wl.run(op)
    assert math.isclose(good.stage1_time, math.sqrt(2 * (4096 - 1)), rel_tol=1e-9)
    assert math.isclose(orc.stage1_closed_form([-12.0, -12.0], 1.0), math.sqrt(2 * (4096 - 1)), rel_tol=1e-12)
    assert_flags(op, good, replace(good, stage1_time=good.stage1_time * (1 - 1e-4)))


def test_stage1_sandwich_bound():
    op = wl.Op("schedule.stage1", dict(shapes=[(1 << 20, 1), (1 << 6, 1), (1 << 9, 5)], epsilon=0.3))
    good = wl.run(op)
    lo, hi = orc.stage1_sandwich([-20.0, -6.0, math.log2(5) - 9], 0.3)
    assert lo <= good.stage1_time <= hi
    assert_flags(op, good, replace(good, stage1_time=0.9 * lo))
    assert judge(op, replace(good, stage1_time=1.1 * hi)).facts["bound_violation"] == 1


def test_exact_iteration_count():
    op = wl.Op("schedule.total", dict(shapes=[(1 << 40, 1000), (1 << 30, 999)], m_joint=7, epsilon=1.0))
    good = wl.run(op)
    assert good.iterations == orc.ceil_sqrt_ratio(999_000, 7) == 378
    bad = replace(good, iterations=good.iterations + 1, total_time=good.stage1_time * (good.iterations + 1))
    assert_flags(op, good, bad)
    assert orc.ceil_sqrt_ratio(16, 1) == 4 and orc.ceil_sqrt_ratio(17, 1) == 5


def test_fit_slope_against_closed_form_column():
    op = wl.Op("model.scaling", dict(k=2, alpha=1.0, x=0.5, n_values=[16, 20, 24, 28, 32, 36, 40]))
    good = wl.run(op)
    assert_flags(op, good, replace(good, slope=good.slope + 0.2))
    assert judge(op, replace(good, slope=math.nan)).status == "failed"


def test_model_point_and_known_defect_region():
    op = wl.Op("model.point", dict(n=32, k=2, alpha=1.0, x=0.5))
    good = wl.run(op)
    assert_flags(op, good, replace(good, stage1_time=good.stage1_time * 1.01, total_time=good.total_time * 1.01))
    # n = 200 sits at a marked fraction of 2^-50: wrong today, and ledgered
    far = wl.Op("model.point", dict(n=200, k=2, alpha=1.0, x=0.5))
    verdict = judge(far, wl.run(far))
    assert verdict.status != "ok" and verdict.defect == "stage1-tiny-ratio"
    # the same fault at a moderate ratio is not covered by the ledger
    assert judge(op, replace(good, stage1_time=-1.0)).defect is None


def test_ledger_covers_only_todays_failure_pattern():
    far = wl.Op("model.point", dict(n=120, k=2, alpha=1.0, x=0.5))
    got = wl.run(far)
    ref = orc.model_reference(120, 2, 1.0, 0.5)
    exact = replace(got, stage1_time=ref["exact"], total_time=ref["exact"] * got.iterations)
    assert judge(far, exact).status == "ok"
    # an underestimate in the region is ledgered ...
    low = replace(exact, stage1_time=0.5 * ref["exact"], total_time=0.5 * exact.total_time)
    assert judge(far, low).defect == "stage1-tiny-ratio"
    # ... an overestimate, a wrong iteration count or a wrong clamp flag is not
    high = replace(exact, stage1_time=2 * ref["exact"], total_time=2 * exact.total_time)
    assert judge(far, high).status == "wrong" and judge(far, high).defect is None
    iters = replace(low, iterations=low.iterations * 3, total_time=low.stage1_time * low.iterations * 3)
    assert judge(far, iters).status == "wrong" and judge(far, iters).defect is None
    assert judge(far, replace(low, clamped=not low.clamped)).defect is None
    # a sweep is ledgered only when every miss in it is
    sweep = wl.Op("model.sweep", dict(n=120, k=2, alpha=1.0))
    points = []
    for x, b in zip(wl.SWEEP_XS, wl.run(sweep)):
        ref = orc.model_reference(120, 2, 1.0, x)
        t1 = ref["exact"] if ref["exact"] is not None else ref["lo"]
        points.append(replace(b, stage1_time=t1, total_time=t1 * b.iterations))
    assert judge(sweep, points).status == "ok"
    i, j = (wl.SWEEP_XS.index(min(wl.SWEEP_XS, key=lambda x: abs(x - c))) for c in (0.5, 0.6))
    points[j] = replace(points[j], stage1_time=0.5 * points[j].stage1_time, total_time=0.5 * points[j].total_time)
    assert judge(sweep, points).defect == "stage1-tiny-ratio"
    points[i] = replace(points[i], stage1_time=2 * points[i].stage1_time, total_time=2 * points[i].total_time)
    assert judge(sweep, points).status == "wrong" and judge(sweep, points).defect is None


def test_optimize_bounds():
    op = wl.Op("model.optimize", dict(n=32, k=2, alpha=1.0))
    good = wl.run(op)
    assert_flags(op, good, (0.02, good[1] - 5.0))
    assert_flags(op, good, (0.5, good[1] + 1.0))
    assert judge(op, (0.5, -math.inf)).status == "failed"


def test_gap_against_dense_eigensolver():
    op = wl.Op("spectral.gap_curve", dict(shape=(1 << 10, 1)))
    good = wl.run(op)
    bad = list(good)
    bad[20] = (good[20][0] * (1 + 1e-6), good[20][1])
    assert_flags(op, good, bad)
    bad[20] = good[20]
    bad[32] = (good[32][0] * 1.01, good[32][1])  # s = 1/2, where the gap is sqrt(r)
    assert judge(op, bad).status == "wrong"


def _counts(c, **changes):
    fields = dict(m_a=c.m_a, m_b=c.m_b, m_ab=c.m_ab, m_a_s=c.m_a_s, m_b_s=c.m_b_s)
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_brute_force_census():
    op = wl.Op("csp.pipeline", dict(n=14, k=2, alpha=0.5, x=0.5, seed=5), "light")
    inst, back, counts = wl.run(op)
    assert counts.m_ab > 0
    want = orc.brute_census(14, list(inst.partition_a), wl._instance_constraints(inst))
    assert want == (counts.m_a, counts.m_b, counts.m_ab, counts.m_a_s, counts.m_b_s)
    assert_flags(op, (inst, back, counts), (inst, back, _counts(counts, m_ab=counts.m_ab - 1)))
    assert judge(op, (inst, back, _counts(counts, m_a_s=counts.m_a_s + 1, m_a=counts.m_a + 1))).status == "wrong"


def test_census_refusal_is_expected_only_past_the_guard():
    op = wl.Op("csp.pipeline", dict(n=34, k=2, alpha=1.0, x=0.5, seed=1), "refused")
    inst, back, res = wl.run(op)
    assert isinstance(res, wl.Raised) and judge(op, (inst, back, res)).status == "ok"
    small = wl.Op("csp.pipeline", dict(n=12, k=2, alpha=1.0, x=0.5, seed=1), "light")
    inst, back, _ = wl.run(small)
    assert judge(small, (inst, back, res)).status == "failed"


def test_stage1_reference_integrator():
    op = wl.Op("dynamics.stage1", dict(dims=[256, 64], time_factor=1.0))
    budget, total, rep = wl.run(op)
    fid = rep.per_subsystem_fidelity
    assert abs(fid[0] - orc.stage1_fidelity_reference(-8.0, total)) < 1e-8
    bad = replace(rep, per_subsystem_fidelity=(fid[0] + 1e-4, fid[1]), final_fidelity=(fid[0] + 1e-4) * fid[1])
    assert_flags(op, (budget, total, rep), (budget, total, bad))


def test_stage2_eigen_reference():
    op = wl.Op("dynamics.stage2", dict(m_a=16, m_b=16, m_ab=1))
    iterations, steps, step_time, rep = wl.run(op)
    assert abs(rep.success_probability - 0.975256784515) < 1e-9
    bad = replace(rep, success_probability=rep.success_probability - 1e-6)
    assert_flags(op, (iterations, steps, step_time, rep), (iterations, steps, step_time, bad))
    assert judge(op, (iterations + 1, steps, step_time, rep)).status == "wrong"


def test_frozen_calibration():
    op = wl.Op("dynamics.calibrate", {})
    good = wl.run(op)
    assert_flags(op, good, replace(good, step_multiplier=4))
    assert judge(op, replace(good, step_time=good.step_time * (1 + 1e-12))).status == "wrong"


def test_nested_run_checks_hold_under_any_schedule():
    op = wl.Op("dynamics.nested", dict(n=12, k=2, alpha=0.4, x=0.5, seed=3, epsilon=1.0))
    inst, rep = wl.run(op)
    assert not isinstance(rep, wl.Raised)
    assert_flags(op, (inst, rep), (inst, replace(rep, total_time=rep.total_time * 2)))
    assert judge(op, (inst, replace(rep, stage1=replace(rep.stage1, final_fidelity=1.5)))).status == "wrong"
    unsat = wl.Op("dynamics.nested", dict(n=12, k=2, alpha=1.0, x=0.5, seed=0, epsilon=1.0))
    inst, res = wl.run(unsat)
    assert isinstance(res, wl.Raised) and judge(unsat, (inst, res)).status == "ok"


def test_unexpected_exception_is_a_failure():
    op = wl.Op("schedule.stage1", dict(shapes=[(16, 1)], epsilon=1.0))
    assert judge(op, wl.Raised(ZeroDivisionError())).status == "failed"


def _log2_total_at(n: int, k: int, alpha: float, x: float) -> float:
    ref = orc.model_reference(n, k, alpha, x)
    return 0.5 * (math.log2(ref["lo"]) + math.log2(ref["hi"])) + math.log2(ref["iterations"])


def test_optimize_ledger_is_narrow():
    far = wl.Op("model.optimize", dict(n=200, k=2, alpha=1.0))
    balanced = orc.balanced_log2_total(200, 2, 1.0)
    assert judge(far, (0.5, balanced)).status == "ok"
    # an underestimate in the tiny-ratio region is ledgered, an overestimate is not
    assert judge(far, (0.5, balanced - 3.0)).defect == "stage1-tiny-ratio"
    over = judge(far, (0.5, balanced + 3.0))
    assert over.status == "wrong" and over.defect is None
    # a correct value at a split dearer than the balanced one is ledgered
    # only up to the n where it was seen
    for n, defect in ((20, "optimize-not-grid-best"), (40, None)):
        op = wl.Op("model.optimize", dict(n=n, k=2, alpha=0.5))
        assert wl._min_ratio_over([n], wl.OPT_GRID, 2, 0.5) > orc.DEFECT_LOG2_RATIO
        worse = _log2_total_at(n, 2, 0.5, 0.15)
        assert worse > orc.balanced_log2_total(n, 2, 0.5) + orc.OPTIMUM_LOG2_TOL
        verdict = judge(op, (0.15, worse))
        assert verdict.status == "wrong" and verdict.defect == defect


def test_scaling_ledger_is_narrow():
    grid = [92, 117, 142, 167, 192, 217, 242, 267, 292]
    op = wl.Op("model.scaling", dict(k=2, alpha=1.0, x=0.5, n_values=grid))
    ref = orc.closed_form_slope(2, 1.0, 0.5, grid)
    fit = SimpleNamespace(slope=ref)
    assert judge(op, fit).status == "ok"
    assert judge(op, SimpleNamespace(slope=0.5 * ref)).defect == "stage1-tiny-ratio"
    high = judge(op, SimpleNamespace(slope=2.0 * ref))
    assert high.status == "wrong" and high.defect is None
