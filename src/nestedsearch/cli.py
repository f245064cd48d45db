"""Command-line surface for sweeps, optimization, instances, and simulation.

Subcommands:

* ``time``: compose the two-stage run time for a single model point.
* ``sweep``: vary one of {x, alpha, n, N, k} over a grid, write CSV or JSON.
* ``scaling``: least-squares slope of log2 total time against n.
* ``optimize``: best split fraction for a model family.
* ``generate``: write a seeded random instance file.
* ``census``: exact solution counts for an instance file.
* ``simulate``: stage-one, stage-two, or end-to-end dynamics.
* ``plot-script``: emit a matplotlib script next to a sweep CSV.

Every command is deterministic given its full flag set.  File outputs in
CSV form carry no timestamp, so repeated runs are byte-identical; JSON
records include a timestamp alongside the echoed inputs.  Exit codes:
0 success, 2 validation error, 3 refused-scale error (a census or a
simulation past its guard), 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .csp import (
    ScaleError,
    census,
    classify,
    generate,
    read_instance,
    shapes_from_census,
    write_instance,
)
from .dynamics import (
    STAGE2_STEP_MULTIPLIER,
    STAGE2_STEP_TIME,
    EvolutionConfig,
    run_nested_search,
    simulate_stage1,
    simulate_stage2,
)
from .model import PartitionModel, approx_model_time, fit_scaling, model_time, optimize_x
from .schedule import AccuracyTarget, stage1_time, stage2_iterations
from .spectral import SubsystemShape

# Stable sweep schema; golden-file tests pin it.  Documented in the README.
SWEEP_COLUMNS = (
    "n",
    "k",
    "alpha",
    "x",
    "epsilon",
    "log2_stage1_time",
    "log2_iterations",
    "log2_total_time",
    "log2_total_time_approx",
    "clamped",
)

_FIXED_FLAGS = {
    "x": ("n", "k", "alpha"),
    "alpha": ("n", "k", "x"),
    "n": ("k", "alpha", "x"),
    "N": ("k", "alpha", "x"),
    "k": ("n", "alpha", "x"),
}


class CliValidationError(ValueError):
    """Bad flag combination or malformed flag value."""


# ---------------------------------------------------------------------------
# formatting and record plumbing


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _log2_or_neg_inf(value: float) -> float:
    if value <= 0.0:
        return -math.inf
    return math.log2(value)


def _print_outputs(outputs: dict[str, Any]) -> None:
    for key, value in outputs.items():
        print(f"{key} = {_fmt(value)}")


def _run_record(command: str, inputs: dict[str, Any], outputs: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": _json_safe(inputs),
        "outputs": _json_safe(outputs),
    }


def _write_rows_csv(path: Path, columns: Sequence[str], rows: list[dict[str, Any]]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in columns))
    path.write_text("\n".join(lines) + "\n")


def _write_record(args: argparse.Namespace, record: dict[str, Any]) -> None:
    """Write a single-record file as JSON, or flattened to two CSV lines."""
    if args.out is None:
        return
    path = Path(args.out)
    if args.format == "json":
        path.write_text(json.dumps(record, indent=2) + "\n")
    else:
        flat = {**record["inputs"], **record["outputs"]}
        scalars = {k: v for k, v in flat.items() if not isinstance(v, (list, tuple))}
        _write_rows_csv(path, list(scalars), [scalars])
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# grid parsing


def _parse_grid(text: str) -> list[float]:
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise CliValidationError(
                    f"grid ranges take the form lo:hi:steps, got {text!r}"
                )
            lo, hi = float(parts[0]), float(parts[1])
            steps = int(parts[2])
            if steps < 2:
                raise CliValidationError(f"grid ranges need at least 2 steps, got {steps}")
            values = [float(v) for v in np.linspace(lo, hi, steps)]
        else:
            values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliValidationError(f"could not parse grid {text!r}: {exc}") from exc
    if not values:
        raise CliValidationError("grid must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CliValidationError("grid values must be strictly increasing")
    return values


def _as_int_grid(values: list[float], name: str) -> list[int]:
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise CliValidationError(f"{name} grid values must be integers, got {v}")
        out.append(int(round(v)))
    return out


def _ns_to_exponents(values: list[float]) -> list[int]:
    """Full-space sizes N must be powers of two; return their exponents."""
    exponents = []
    for v in _as_int_grid(values, "N"):
        if v < 2 or v & (v - 1):
            raise CliValidationError(f"N grid values must be powers of two >= 2, got {v}")
        exponents.append(v.bit_length() - 1)
    return exponents


# ---------------------------------------------------------------------------
# shared model-point evaluation


def _model_row(model: PartitionModel, epsilon: float) -> dict[str, Any]:
    budget = model_time(model, AccuracyTarget(epsilon))
    approx = approx_model_time(model) - math.log2(epsilon)
    return {
        "n": model.n,
        "k": model.k,
        "alpha": model.alpha,
        "x": model.x,
        "epsilon": epsilon,
        "log2_stage1_time": _log2_or_neg_inf(budget.stage1_time),
        "log2_iterations": math.log2(budget.iterations),
        "log2_total_time": _log2_or_neg_inf(budget.total_time),
        "log2_total_time_approx": approx,
        "clamped": budget.clamped,
        "_budget": budget,
    }


def _require_fixed(args: argparse.Namespace, vary: str) -> None:
    for flag in _FIXED_FLAGS[vary]:
        if getattr(args, flag if flag != "N" else "n") is None:
            raise CliValidationError(f"sweep over {vary} requires --{flag}")


# ---------------------------------------------------------------------------
# handlers


def _cmd_time(args: argparse.Namespace) -> int:
    model = PartitionModel(args.n, args.k, args.alpha, args.x)
    row = _model_row(model, args.epsilon)
    budget = row.pop("_budget")
    outputs = dict(row)
    outputs.update(
        stage1_time=budget.stage1_time,
        iterations=budget.iterations,
        total_time=budget.total_time,
    )
    _print_outputs(outputs)
    _write_record(args, _run_record("time", _inputs(args), outputs))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require_fixed(args, args.vary)
    grid = _parse_grid(args.grid)

    if args.vary == "N":
        points = _ns_to_exponents(grid)
    elif args.vary in ("n", "k"):
        points = _as_int_grid(grid, args.vary)
    else:
        points = grid

    rows = []
    for value in points:
        fields = {"n": args.n, "k": args.k, "alpha": args.alpha, "x": args.x}
        fields["n" if args.vary == "N" else args.vary] = value
        model = PartitionModel(**fields)
        row = _model_row(model, args.epsilon)
        row.pop("_budget")
        rows.append(row)

    path = Path(args.out)
    if args.format == "csv":
        _write_rows_csv(path, SWEEP_COLUMNS, rows)
    else:
        record = _run_record("sweep", _inputs(args), {"rows": rows})
        path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_values = _as_int_grid(_parse_grid(args.grid), "n")
    fit = fit_scaling(args.k, args.alpha, args.x, n_values, AccuracyTarget(args.epsilon))
    outputs = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual_rms": fit.residual_rms,
        "slope_approx": fit.slope_approx,
    }
    _print_outputs(outputs)
    if args.out is not None and args.format == "csv":
        rows = [
            {"n": n, "log2_total_time": t, "log2_total_time_approx": a}
            for n, t, a in zip(fit.n_values, fit.log2_total, fit.log2_total_approx)
        ]
        _write_rows_csv(Path(args.out), ("n", "log2_total_time", "log2_total_time_approx"), rows)
        print(f"wrote {args.out}")
    else:
        full = dict(outputs)
        full["n_values"] = list(fit.n_values)
        full["log2_total_time"] = list(fit.log2_total)
        full["log2_total_time_approx"] = list(fit.log2_total_approx)
        _write_record(args, _run_record("scaling", _inputs(args), full))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    x_opt, log2_total = optimize_x(args.n, args.k, args.alpha, AccuracyTarget(args.epsilon))
    outputs = {"x_opt": x_opt, "log2_total_time": log2_total}
    _print_outputs(outputs)
    _write_record(args, _run_record("optimize", _inputs(args), outputs))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = generate(args.n, args.k, args.alpha, args.x, args.seed)
    path = Path(args.out)
    write_instance(instance, path)
    split = classify(instance)
    outputs = {
        "path": str(path),
        "n": instance.n,
        "constraints": len(instance.constraints),
        "partition_a_size": len(instance.partition_a),
        "cross_constraints": len(split.cross),
    }
    _print_outputs(outputs)
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    counts = census(instance)
    outputs = {
        "n": instance.n,
        "n_a": len(instance.partition_a),
        "n_b": len(instance.partition_b),
        "constraints": len(instance.constraints),
        "m_a": counts.m_a,
        "m_b": counts.m_b,
        "m_ab": counts.m_ab,
        "m_a_s": counts.m_a_s,
        "m_a_ns": counts.m_a_ns,
        "m_b_s": counts.m_b_s,
        "m_b_ns": counts.m_b_ns,
        "rectangular": counts.rectangular,
    }
    _print_outputs(outputs)
    _write_record(args, _run_record("census", _inputs(args), outputs))
    return 0


def _parse_shapes(text: str) -> list[SubsystemShape]:
    shapes = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 2:
            raise CliValidationError(f"shapes take the form M:N,M:N, got {text!r}")
        try:
            solutions, dimension = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise CliValidationError(f"could not parse shape {part!r}") from exc
        shapes.append(SubsystemShape(dimension=dimension, solutions=solutions))
    return shapes


def _parse_counts(text: str) -> tuple[int, int, int]:
    fields = text.split(":")
    if len(fields) != 3:
        raise CliValidationError(f"counts take the form M_A:M_B:M_AB, got {text!r}")
    try:
        m_a, m_b, m_ab = (int(f) for f in fields)
    except ValueError as exc:
        raise CliValidationError(f"could not parse counts {text!r}") from exc
    return m_a, m_b, m_ab


def _cmd_simulate(args: argparse.Namespace) -> int:
    sources = [args.instance is not None, args.shapes is not None, args.counts is not None]
    if sum(sources) != 1:
        raise CliValidationError(
            "simulate needs exactly one of an instance path, --shapes, or --counts"
        )
    # resolved defaults go back into args, so that the record echoes them
    if args.counts is None:
        for flag, value in (("--steps", args.steps), ("--step-time", args.step_time)):
            if value is not None:
                raise CliValidationError(f"{flag} applies only to --counts runs")
        if args.time_factor is None:
            args.time_factor = 1.0
        if args.epsilon is None:
            args.epsilon = 1.0
    else:
        for flag, value in (("--time-factor", args.time_factor), ("--epsilon", args.epsilon)):
            if value is not None:
                raise CliValidationError(f"{flag} applies only to instance and --shapes runs")
        if args.step_time is None:
            args.step_time = STAGE2_STEP_TIME

    if args.instance is not None:
        report = run_nested_search(
            read_instance(args.instance),
            AccuracyTarget(args.epsilon),
            time_factor=args.time_factor,
        )
        outputs = {
            "m_a": report.counts.m_a,
            "m_b": report.counts.m_b,
            "m_ab": report.counts.m_ab,
            "stage1_time": report.budget.stage1_time,
            "iterations": report.iterations,
            "total_time": report.total_time,
            "stage1_fidelity": report.stage1.final_fidelity,
            "stage2_success": report.stage2.success_probability,
            "norm_error": max(report.stage1.norm_error, report.stage2.norm_error),
        }
    elif args.shapes is not None:
        shapes = _parse_shapes(args.shapes)
        budget = stage1_time(shapes, AccuracyTarget(args.epsilon))
        total = args.time_factor * budget.stage1_time
        report = simulate_stage1(shapes, EvolutionConfig(total_time=total))
        outputs = {
            "stage1_time": budget.stage1_time,
            "simulated_time": total,
            "per_subsystem_fidelity": list(report.per_subsystem_fidelity),
            "final_fidelity": report.final_fidelity,
            "norm_error": report.norm_error,
        }
    else:
        m_a, m_b, m_ab = _parse_counts(args.counts)
        iterations = stage2_iterations(m_a, m_b, m_ab)
        steps = args.steps if args.steps is not None else STAGE2_STEP_MULTIPLIER * iterations
        report = simulate_stage2(m_a, m_b, m_ab, steps=steps, step_time=args.step_time)
        outputs = {
            "iterations": iterations,
            "steps": steps,
            "step_time": args.step_time,
            "success_probability": report.success_probability,
            "norm_error": report.norm_error,
        }
    _print_outputs(outputs)
    _write_record(args, _run_record("simulate", _inputs(args), outputs))
    return 0


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot {y_column} against {x_column} from {csv_name} (nestedsearch {version})."""

import csv
from pathlib import Path

import matplotlib.pyplot as plt

csv_path = Path(__file__).resolve().parent / {csv_name!r}
with open(csv_path, newline="") as handle:
    rows = [row for row in csv.DictReader(handle)]

xs = [float(row[{x_column!r}]) for row in rows]
ys = [float(row[{y_column!r}]) for row in rows]

fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(xs, ys, marker="o")
ax.set_xlabel({x_column!r})
ax.set_ylabel({y_column!r})
ax.grid(True, alpha=0.3)
fig.tight_layout()
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=150)
print(f"wrote {{out}}")
'''


def _cmd_plot_script(args: argparse.Namespace) -> int:
    csv_path = Path(args.csv)
    out = Path(args.out) if args.out is not None else csv_path.with_suffix(".py")
    script = _PLOT_TEMPLATE.format(
        csv_name=csv_path.name,
        x_column=args.x_column,
        y_column=args.y_column,
        version=__version__,
    )
    out.write_text(script)
    print(f"wrote {out}")
    return 0


def _inputs(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"handler", "out", "format", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(parser: argparse.ArgumentParser, *, required: Sequence[str] = ()) -> None:
    parser.add_argument("--n", type=int, required="n" in required, help="variable count")
    parser.add_argument("--k", type=int, required="k" in required, help="constraint arity")
    parser.add_argument("--alpha", type=float, required="alpha" in required, help="constraint density")
    parser.add_argument("--x", type=float, required="x" in required, help="partition fraction")


def _add_common_flags(parser: argparse.ArgumentParser, *, default_format: str = "json") -> None:
    parser.add_argument("--epsilon", type=float, default=1.0, help="accuracy target (default 1)")
    parser.add_argument("--out", help="optional output file")
    parser.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestedsearch",
        description="Run-time estimates and dynamics for two-stage nested search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("time", help="run time for one model point")
    _add_model_flags(p, required=("n", "k", "alpha", "x"))
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_time)

    p = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p.add_argument("--vary", choices=tuple(_FIXED_FLAGS), required=True)
    p.add_argument("--grid", required=True, help="comma list or lo:hi:steps")
    _add_model_flags(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("scaling", help="fit log2 time against n")
    p.add_argument("--grid", required=True, help="n values, comma list or lo:hi:steps")
    _add_model_flags(p, required=("k", "alpha", "x"))
    _add_common_flags(p, default_format="csv")
    p.set_defaults(handler=_cmd_scaling)

    p = sub.add_parser("optimize", help="best partition fraction")
    _add_model_flags(p, required=("n", "k", "alpha"))
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("generate", help="write a random instance file")
    _add_model_flags(p, required=("n", "k", "alpha", "x"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="instance file path")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("census", help="exact solution counts for an instance")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--out", help="optional output file")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("simulate", help="simulate stage one, stage two, or both")
    p.add_argument("instance", nargs="?", help="instance file for an end-to-end run")
    p.add_argument("--shapes", help="stage-one shapes as M:N,M:N")
    p.add_argument("--counts", help="stage-two counts as M_A:M_B:M_AB")
    p.add_argument(
        "--time-factor", type=float, dest="time_factor",
        help="stage-one run time in units of T1 (default 1; not with --counts)",
    )
    p.add_argument("--steps", type=int, help="override stage-two step count (--counts only)")
    p.add_argument(
        "--step-time", type=float, dest="step_time",
        help=f"stage-two step duration (default {STAGE2_STEP_TIME:.6g}; --counts only)",
    )
    _add_common_flags(p)
    # _cmd_simulate resolves the default, and refuses --epsilon with --counts
    p.set_defaults(handler=_cmd_simulate, epsilon=None)

    p = sub.add_parser("plot-script", help="emit a matplotlib script for a CSV")
    p.add_argument("--csv", required=True, help="sweep or scaling CSV path")
    p.add_argument("--x-column", default="x", dest="x_column")
    p.add_argument("--y-column", default="log2_total_time", dest="y_column")
    p.add_argument("--out", help="script path (default: CSV path with .py)")
    p.set_defaults(handler=_cmd_plot_script)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - catch-all for the exit code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
