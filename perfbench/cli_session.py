"""The README's command lines, each in a fresh `python -m nestedsearch.cli`
process, checked for exit code and against the in-process API result."""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import nestedsearch as ns

# Subcommands timed as cli.cmd_ms.<label>; --version, bad input and the
# over-guard census count only toward cli.commands and the mismatch counters.
COMMANDS = (
    "time",
    "sweep",
    "scaling",
    "optimize",
    "generate",
    "census",
    "simulate_instance",
    "simulate_shapes",
    "simulate_counts",
    "plot-script",
)


def _parse(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _same(text: str | None, value: float) -> bool:
    """CLI prints floats with 12 significant digits."""
    if text is None:
        return False
    got = float(text)
    if math.isnan(value) or math.isinf(value):
        return str(got) == str(float(value)) or (math.isnan(got) and math.isnan(value))
    return abs(got - value) <= 1e-10 * max(1.0, abs(value))


def run(root: Path, workdir_parent: Path, seed: int, tracer) -> dict[str, float]:
    """Run the session; returns the cli.* layer metrics."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir_parent))
    timings: dict[str, float] = {}
    counts = {"commands": 0, "exit_mismatches": 0, "output_mismatches": 0}

    def call(label: str, argv: list[str], expect_exit: int = 0) -> dict[str, str]:
        rec = tracer.begin(f"cli.{label}")
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nestedsearch.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=150,
        )
        timings[label] = (perf_counter() - start) * 1e3
        tracer.end(rec)
        counts["commands"] += 1
        if proc.returncode != expect_exit:
            counts["exit_mismatches"] += 1
        return {"_stdout": proc.stdout, **_parse(proc.stdout)}

    def expect(ok: bool) -> None:
        if not ok:
            counts["output_mismatches"] += 1

    try:
        out = call("version", ["--version"])
        expect(out["_stdout"].split() == ["nestedsearch", ns.__version__])

        out = call("time", ["time", "--n", "32", "--k", "2", "--alpha", "1", "--x", "0.5"])
        b = ns.model_time(ns.PartitionModel(32, 2, 1.0, 0.5))
        expect(_same(out.get("stage1_time"), b.stage1_time) and _same(out.get("total_time"), b.total_time)
               and out.get("iterations") == str(b.iterations))

        call("sweep", ["sweep", "--vary", "x", "--grid", "0.1:0.9:33", "--n", "32", "--k", "2", "--alpha", "1", "--out", "sweep.csv"])
        rows = (work / "sweep.csv").read_text().splitlines() if (work / "sweep.csv").exists() else []
        col = rows[0].split(",").index("log2_total_time") if rows else 0
        xs = [float(v) for v in np.linspace(0.1, 0.9, 33)]
        want = [math.log2(ns.model_time(ns.PartitionModel(32, 2, 1.0, x)).total_time) for x in xs]
        expect(len(rows) == 34 and all(_same(r.split(",")[col], w) for r, w in zip(rows[1:], want)))

        out = call("plot-script", ["plot-script", "--csv", "sweep.csv"])
        expect((work / "sweep.py").is_file())

        out = call("scaling", ["scaling", "--k", "2", "--alpha", "1", "--x", "0.5", "--grid", "16:40:7"])
        fit = ns.fit_scaling(2, 1.0, 0.5, [16, 20, 24, 28, 32, 36, 40])
        expect(_same(out.get("slope"), fit.slope))

        out = call("optimize", ["optimize", "--n", "32", "--k", "2", "--alpha", "1"])
        x_opt, log2_total = ns.optimize_x(32, 2, 1.0)
        expect(_same(out.get("x_opt"), x_opt) and _same(out.get("log2_total_time"), log2_total))

        inst_seed = seed % 100_000
        out = call("generate", ["generate", "--n", "12", "--k", "2", "--alpha", "1", "--x", "0.5", "--seed", str(inst_seed), "--out", "inst.json"])
        inst = ns.generate(12, 2, 1.0, 0.5, inst_seed)
        expect(out.get("constraints") == str(len(inst.constraints))
               and out.get("cross_constraints") == str(len(ns.classify(inst).cross)))

        out = call("census", ["census", "inst.json"])
        c = ns.census(inst)
        expect(all(out.get(k) == str(getattr(c, k)) for k in ("m_a", "m_b", "m_ab", "m_a_s", "m_b_s")))

        try:
            rep = ns.run_nested_search(inst, ns.AccuracyTarget(0.5))
        except ValueError:
            rep = None
        out = call("simulate_instance", ["simulate", "inst.json", "--epsilon", "0.5"], 0 if rep else 2)
        if rep is not None:
            expect(_same(out.get("total_time"), rep.total_time)
                   and _same(out.get("stage1_fidelity"), rep.stage1.final_fidelity)
                   and _same(out.get("stage2_success"), rep.stage2.success_probability))

        out = call("simulate_shapes", ["simulate", "--shapes", "1:16,1:16", "--time-factor", "100"])
        shapes = [ns.SubsystemShape(16, 1), ns.SubsystemShape(16, 1)]
        t = 100 * ns.stage1_time(shapes).stage1_time
        expect(_same(out.get("final_fidelity"), ns.simulate_stage1(shapes, ns.EvolutionConfig(total_time=t)).final_fidelity))

        out = call("simulate_counts", ["simulate", "--counts", "16:16:1"])
        rep2 = ns.simulate_stage2(16, 16, 1, 48, ns.dynamics.STAGE2_STEP_TIME)
        expect(_same(out.get("success_probability"), rep2.success_probability))

        call("bad_input", ["time", "--n", "32", "--k", "2", "--alpha", "1", "--x", "1.5"], 2)
        ns.write_instance(ns.generate(32, 2, 1.0, 0.5, inst_seed), work / "big.json")
        call("over_guard", ["census", "big.json"], 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        "cli.commands": counts["commands"],
        "cli.startup_ms": timings.get("version", 0.0),
    }
    for label in COMMANDS:
        metrics[f"cli.cmd_ms.{label}"] = timings.get(label, 0.0)
    metrics["cli.exit_mismatches"] = counts["exit_mismatches"]
    metrics["cli.output_mismatches"] = counts["output_mismatches"]
    return metrics
