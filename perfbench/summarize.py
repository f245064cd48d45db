"""Run the benchmark over several seeds and write the baseline.

    python3 perfbench/summarize.py --seeds 1-10 --traced-seeds 1,2

For every workload in BENCHMARK.json it runs one untraced run per seed (and
one traced run per traced seed) and reports, per end-to-end metric, the
median, the quartiles from statistics.quantiles(values, n=4), and the
spread: the distance between the quartiles as a share of the median, for
the reported metrics and for their raw values before host-speed scaling.  A
spread above the metric's bound, or above a third of it, is flagged.  The
summary is written to perfbench/baseline.json.  Run it from the repository
root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path[:0] = [str(HERE), str(ROOT / "src")]

DROPPED_WORKLOADS = [{
    "name": "cli-session",
    "reason": "each README command in a fresh process costs 0.7-1.2 s, so the 100 operations a p90 needs "
              "take 70-120 s per run; the cli layer is measured instead in every traced run",
}]
MACHINE_KEYS = ("nproc", "cpu_model", "caches", "python", "numpy", "scipy", "thread_pinning", "clients", "loop")
# The criterion-8 bound check has the same inputs in every simulate-mix run,
# so its latency from run to run measures the host alone.
HOST_PROBE = ("simulate-mix", "criterion8")


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment_line"] = json.loads(lines[-2])
    return result


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def _flag(spread: float | None, bound: float) -> str:
    if spread is None:
        return ""
    if spread > bound:
        return "  ABOVE THE BOUND"
    return "  (above a third of the bound)" if spread > bound / 3 else ""


def _program_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="untraced seeds, e.g. 1-10 or 3,5,8")
    ap.add_argument("--traced-seeds", default="", help="seeds for traced runs")
    args = ap.parse_args()

    import layers

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds, traced_seeds = _seeds(args.seeds), _seeds(args.traced_seeds) if args.traced_seeds else []
    workloads: dict = {}
    machine: dict = {}
    host_probe = None
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [_run(wl, s, bench["run_seconds"], 0) for s in seeds]
        e2e = {name: _stats([r["metrics"][name]["value"] for r in runs]) for name in bounds}
        envs = [r["environment_line"] for r in runs]
        raw = {name: _stats([e["raw_end_to_end"][name]["value"] for e in envs]) for name in bounds}
        for name, st in e2e.items():
            print(f"{wl} {name}: median {st['median']:.5g} spread {st['spread']:.3f} bound {bounds[name]}"
                  f"{_flag(st['spread'], bounds[name])}  (raw: median {raw[name]['median']:.5g} "
                  f"spread {raw[name]['spread']:.3f})", flush=True)
        machine = {k: envs[-1]["environment"][k] for k in MACHINE_KEYS}
        defect_hits: dict[str, int] = {}
        for e in envs:
            for name, count in e["known_defect_hits"].items():
                defect_hits[name] = defect_hits.get(name, 0) + count
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted_median": statistics.median(r["attempted"] for r in runs),
            "failed_median": statistics.median(r["failed"] for r in runs),
            "fail_frac_median": statistics.median(e["fail_frac"] for e in envs),
            "wrong_frac_median": statistics.median(e["wrong_frac"] for e in envs),
            "known_defect_hits_total": defect_hits,
            "end_to_end": e2e,
            "raw_end_to_end": raw,
        }
        if traced_seeds:
            traced = [_run(wl, s, bench["run_seconds"], 1) for s in traced_seeds]
            entry["per_layer_median_of_traced_runs"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced) for name in traced[0]["metrics"]}
        entry["latency_by_class_last_run"] = envs[-1]["environment"]["latency_by_class"]
        workloads[wl] = entry
        if wl == HOST_PROBE[0]:
            host_probe = {
                "what": f"median latency (ms) of the {HOST_PROBE[1]} operations of each {wl} run; their inputs "
                        "are the same in every run, so the spread measures the host, not the seed",
                **_stats([e["environment"]["latency_by_class"][HOST_PROBE[1]]["p50_ms"] for e in envs]),
            }
            print(f"host probe ({HOST_PROBE[1]}): median {host_probe['median']:.5g} ms "
                  f"spread {host_probe['spread']:.3f}", flush=True)

    summary = {
        "description": "Written by perfbench/summarize.py: one untraced run per seed and workload, and "
                       "traced runs on the traced seeds.  Spread is the distance between the quartiles of "
                       "statistics.quantiles(values, n=4) over the median.  end_to_end times are scaled to "
                       "the host at full speed (perfbench/hostspeed.py); raw_end_to_end holds them unscaled.",
        "program_commit": _program_commit(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "traced_seeds": traced_seeds,
        "machine": machine,
        "dropped_workloads": DROPPED_WORKLOADS,
        "layer_map": {layer: [{"metric": m, "workload": w} for m, w in moves] for layer, moves in layers.LAYER_MAP.items()},
        "host_probe": host_probe,
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
