"""Per-layer metrics of a traced run, from its spans and oracle verdicts.

Busy times are self times: a span's duration minus its child spans, so the
time `model` spends inside `schedule` counts once, under `schedule`.
Counts labelled "computed" (steps, assignments) are derived from the inputs
and outputs, not measured inside the program.
"""

from __future__ import annotations

import math
import statistics

import cli_session

# Which end-to-end metric each layer's metrics should move, on which workload.
LAYER_MAP = {
    "spectral": [("ops_per_s", "model-grid")],
    "schedule": [("ops_per_s", "model-grid"), ("op_p50_ms", "model-grid"), ("wrong_frac", "model-grid")],
    "model": [("op_p90_ms", "model-grid"), ("fail_frac", "model-grid")],
    "csp": [("ops_per_s", "census-mix"), ("op_p90_ms", "census-mix"), ("peak_rss_mb", "census-mix"),
            ("op_p50_ms", "simulate-mix")],
    "dynamics": [("ops_per_s", "simulate-mix"), ("op_p90_ms", "simulate-mix")],
    "cli": [("setup_s", "model-grid"), ("setup_s", "census-mix"), ("setup_s", "simulate-mix")],
}

# name -> unit; the order is the order printed.
METRICS: dict[str, str] = {
    "fail_frac": "ratio",
    "wrong_frac": "ratio",
    "spectral.calls": "count",
    "spectral.busy_s": "s",
    "spectral.ns_per_point": "ns",
    "spectral.max_rel_err": "ratio",
    "schedule.stage1_calls": "count",
    "schedule.stage1_busy_s": "s",
    "schedule.stage1_us_p50": "us",
    "schedule.stage1_max_rel_err": "ratio",
    "schedule.stage1_bound_violations": "count",
    "schedule.stage1_nonconverged": "count",
    "schedule.iterations_mismatches": "count",
    "model.point_calls": "count",
    "model.point_us_p50": "us",
    "model.sweep_ms_p50": "ms",
    "model.optimize_calls": "count",
    "model.optimize_ms_p50": "ms",
    "model.scaling_calls": "count",
    "model.scaling_ms_p50": "ms",
    "model.nonfinite": "count",
    "csp.generate_busy_s": "s",
    "csp.json_busy_s": "s",
    "csp.census_calls": "count",
    "csp.census_busy_s": "s",
    "csp.census_busy_s.local_heavy": "s",
    "csp.census_busy_s.cross_heavy": "s",
    "csp.census_ms_p50": "ms",
    "csp.census_ms_max": "ms",
    "csp.assignments_enumerated": "count",
    "csp.assignments_per_s": "1/s",
    "csp.survivor_pairs": "count",
    "csp.refused": "count",
    "csp.oracle_mismatches": "count",
    "dynamics.stage1_calls": "count",
    "dynamics.stage1_busy_s": "s",
    "dynamics.stage1_steps": "count",
    "dynamics.stage1_steps_per_s": "1/s",
    "dynamics.stage1_max_fid_err": "ratio",
    "dynamics.integration_errors": "count",
    "dynamics.stage2_calls": "count",
    "dynamics.stage2_busy_s": "s",
    "dynamics.stage2_steps": "count",
    "dynamics.stage2_max_prob_err": "ratio",
    "dynamics.stage2_success_min": "ratio",
    "dynamics.calibrate_ms": "ms",
    "dynamics.nested_calls": "count",
    "dynamics.nested_busy_s": "s",
    "dynamics.bound_ms": "ms",
    "dynamics.bound_infidelity_at_t1": "ratio",
    "cli.commands": "count",
    "cli.startup_ms": "ms",
    **{f"cli.cmd_ms.{c}": "ms" for c in cli_session.COMMANDS},
    "cli.exit_mismatches": "count",
    "cli.output_mismatches": "count",
    "trace.overhead_frac": "ratio",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(records: list[dict], tracer, judged: dict, cli_metrics: dict, overhead: float) -> dict:
    by = tracer.by_name()

    def n(name: str) -> int:
        return len(by[name]["dur"]) if name in by else 0

    def busy(*names: str) -> float:
        return math.fsum(t for name in names if name in by for t in by[name]["self"])

    def p50(name: str, scale: float) -> float:
        return _median(by[name]["dur"]) * scale if name in by else 0.0

    def fact(key: str) -> list[float]:
        return [r["verdict"].facts[key] for r in records if key in r["verdict"].facts]

    def op_ms(kind: str) -> float:
        return _median([r["latency"] for r in records if r["op"].kind == kind]) * 1e3

    # census self time split by the instance class of the operation it ran in
    cls_of = {i: r["op"].cls for i, r in enumerate(records)}
    census_by_cls: dict[str, float] = {}
    for span, self_t in zip(tracer.spans, tracer.self_times()):
        if span[0] == "csp.census":
            c = cls_of.get(span[4], "")
            census_by_cls[c] = census_by_cls.get(c, 0.0) + self_t

    attempted = max(len(records), 1)
    tally = judged["tally"]
    spectral = [name for name in by if name.startswith("spectral.")]
    points = ("spectral.gap", "spectral.two_level_spectrum")
    point_calls = sum(n(p) for p in points)
    census_busy = busy("csp.census")
    stage1_busy = busy("dynamics.simulate_stage1")
    stage1_steps = sum(fact("stage1_steps"))
    assignments = sum(fact("assignments"))
    success = fact("success")
    c8 = fact("infidelity_at_t1")
    values = {
        "fail_frac": tally["failed"] / attempted,
        "wrong_frac": tally["wrong"] / attempted,
        "spectral.calls": sum(n(s) for s in spectral),
        "spectral.busy_s": busy(*spectral),
        "spectral.ns_per_point": busy(*points) / point_calls * 1e9 if point_calls else 0.0,
        "spectral.max_rel_err": max(fact("gap_rel_err"), default=0.0),
        "schedule.stage1_calls": n("schedule.stage1_time"),
        "schedule.stage1_busy_s": busy("schedule.stage1_time"),
        "schedule.stage1_us_p50": p50("schedule.stage1_time", 1e6),
        "schedule.stage1_max_rel_err": max(fact("stage1_rel_err"), default=0.0),
        "schedule.stage1_bound_violations": sum(fact("bound_violation")),
        "schedule.stage1_nonconverged": sum(r["warnings"].get("IntegrationWarning", 0) for r in records),
        "schedule.iterations_mismatches": sum(fact("iterations_mismatch")),
        "model.point_calls": n("model.model_time"),
        "model.point_us_p50": p50("model.model_time", 1e6),
        "model.sweep_ms_p50": op_ms("model.sweep"),
        "model.optimize_calls": n("model.optimize_x"),
        "model.optimize_ms_p50": p50("model.optimize_x", 1e3),
        "model.scaling_calls": n("model.fit_scaling"),
        "model.scaling_ms_p50": p50("model.fit_scaling", 1e3),
        "model.nonfinite": sum(fact("nonfinite")),
        "csp.generate_busy_s": busy("csp.generate"),
        "csp.json_busy_s": busy("csp.instance_to_json", "csp.instance_from_json"),
        "csp.census_calls": n("csp.census"),
        "csp.census_busy_s": census_busy,
        "csp.census_busy_s.local_heavy": census_by_cls.get("local_heavy", 0.0),
        "csp.census_busy_s.cross_heavy": census_by_cls.get("cross_heavy", 0.0),
        "csp.census_ms_p50": p50("csp.census", 1e3),
        "csp.census_ms_max": max(by["csp.census"]["dur"]) * 1e3 if "csp.census" in by else 0.0,
        "csp.assignments_enumerated": assignments,
        "csp.assignments_per_s": assignments / census_busy if census_busy else 0.0,
        "csp.survivor_pairs": sum(fact("survivor_pairs")),
        "csp.refused": sum(fact("refused")),
        "csp.oracle_mismatches": sum(fact("oracle_mismatch")),
        "dynamics.stage1_calls": n("dynamics.simulate_stage1"),
        "dynamics.stage1_busy_s": stage1_busy,
        "dynamics.stage1_steps": stage1_steps,
        "dynamics.stage1_steps_per_s": stage1_steps / stage1_busy if stage1_busy else 0.0,
        "dynamics.stage1_max_fid_err": max(fact("fid_err"), default=0.0),
        "dynamics.integration_errors": sum(fact("integration_error")),
        "dynamics.stage2_calls": n("dynamics.simulate_stage2"),
        "dynamics.stage2_busy_s": busy("dynamics.simulate_stage2"),
        "dynamics.stage2_steps": sum(fact("stage2_steps")),
        "dynamics.stage2_max_prob_err": max(fact("prob_err"), default=0.0),
        "dynamics.stage2_success_min": min(success) if success else 0.0,
        "dynamics.calibrate_ms": p50("dynamics.calibrate_stage2", 1e3),
        "dynamics.nested_calls": n("dynamics.run_nested_search"),
        "dynamics.nested_busy_s": busy("dynamics.run_nested_search"),
        "dynamics.bound_ms": p50("dynamics.verify_adiabatic_bound", 1e3),
        "dynamics.bound_infidelity_at_t1": _median(c8),
        **cli_metrics,
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
