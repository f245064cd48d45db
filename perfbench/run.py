"""Benchmark for the nestedsearch toolkit.

    python3 perfbench/run.py --workload model-grid --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client, one operation at a
time, for --seconds seconds, with numpy/BLAS pinned to one thread.  Inputs
come only from --seed.  Every result is judged against the oracles in
oracles.py after the timed region.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from a traced run.
The line before it is the environment block; the full record (and, when
traced, the spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from itertools import chain, takewhile
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread, set before anything imports numpy; set-up probes
# and CLI processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
PROBE_BURST_REPS = 15
WORKLOADS = ("model-grid", "census-mix", "simulate-mix")
# Share of the traced run's operations replayed to measure the tracing
# overhead, in blocks run traced and untraced back to back.
REPLAY_SHARE = 0.2
REPLAY_BLOCKS = 8


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _require_source() -> Path:
    src = ROOT / "src"
    if not (src / "nestedsearch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/nestedsearch; run from a full checkout")
    return src


def _import_package() -> None:
    """Import nestedsearch from this checkout's src/, and nowhere else."""
    src = _require_source()
    sys.path.insert(0, str(src))
    import nestedsearch

    if Path(nestedsearch.__file__).resolve().parent != (src / "nestedsearch").resolve():
        raise SystemExit(f"perfbench: imported nestedsearch from {nestedsearch.__file__}, not {src}")


def _setup(workload: str, seed: int):
    """Import, generate the first inputs and warm up; returns the op stream."""
    _import_package()
    import workloads as wl

    stream = wl.rounds(workload, seed)
    first = [next(stream) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in wl.WARMUP[workload]:
            wl.run(op)
    return wl, chain(first, stream)


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter until it has set up, and
    the host factor from reference bursts just before and after it."""
    import hostspeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    before = hostspeed.burst(PROBE_BURST_REPS)
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    after = hostspeed.burst(PROBE_BURST_REPS)
    return elapsed, 0.5 * (before + after) / hostspeed.NOMINAL_S


def _timed_loop(wl, rounds, seconds: float, tracer=None, clock=None) -> list[dict]:
    """Closed loop, one operation at a time, over whole rounds until
    `seconds` have elapsed; whole rounds keep the operation mix exact.  With
    a host clock, reference bursts run between operations."""
    records = []
    start = perf_counter()
    deadline = start + seconds
    ops = (op for ops in takewhile(lambda _: perf_counter() < deadline, rounds) for op in ops)
    for op_id, op in enumerate(ops):
        if clock is not None:
            clock.sample(perf_counter() - start)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.op_id = op_id
                rec = tracer.begin(f"op.{op.kind}")
            t0 = perf_counter()
            result = wl.run(op)
            t1 = perf_counter()
            if tracer is not None:
                tracer.end(rec)
        records.append({
            "op": op, "result": result, "latency": t1 - t0, "start": t0 - start,
            "warnings": Counter(type(w.message).__name__ for w in caught),
        })
    return records


def _tracing_overhead(wl, spans, ops: list) -> float:
    """Traced over untraced time of the same operations, minus one.  Blocks
    alternate which mode runs first, so drift in machine speed cancels."""
    size = max(1, -(-len(ops) // REPLAY_BLOCKS))
    totals = {True: 0.0, False: 0.0}
    for b, start in enumerate(range(0, len(ops), size)):
        block = ops[start : start + size]
        for traced in ((True, False) if b % 2 == 0 else (False, True)):
            tracer = spans.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                totals[traced] += sum(r["latency"] for r in _timed_loop(wl, [block], float("inf"), tracer))
            finally:
                if tracer is not None:
                    tracer.uninstall()
    return totals[True] / totals[False] - 1.0


def _quantile(values: list[float], q: float) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def _latency_by(records, key) -> dict:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(key(r["op"]), []).append(r["latency"])
    return {k: {"n": len(v), "sum_s": sum(v), "p50_ms": _quantile(v, 0.5) * 1e3, "p90_ms": _quantile(v, 0.9) * 1e3}
            for k, v in sorted(groups.items())}


def _environment(args, records) -> dict:
    def cache_sizes() -> dict:
        out = {}
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")) if base.exists() else []:
            try:
                level = (idx / "level").read_text().strip()
                kind = (idx / "type").read_text().strip()
                if kind != "Instruction":
                    out[f"L{level}"] = (idx / "size").read_text().strip()
            except OSError:
                continue
        return out

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pinning": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "clients": 1,
        "loop": "closed",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "latency_by_kind": _latency_by(records, lambda op: op.kind),
        "latency_by_class": _latency_by(records, lambda op: op.cls or op.kind),
    }


def _judge(wl, records) -> dict:
    """Oracle verdicts, outside the timed region; returns the tallies."""
    tally = Counter()
    defects = Counter()
    unexpected = []
    for r in records:
        v = wl.check(r["op"], r["result"])
        r["verdict"] = v
        tally[v.status] += 1
        if v.status != "ok":
            if v.defect:
                defects[v.defect] += 1
            else:
                unexpected.append({"kind": r["op"].kind, "params": r["op"].params, "status": v.status,
                                   "result": repr(r["result"])[:300]})
    return {"tally": tally, "defects": dict(defects), "unexpected": unexpected}


def _end_to_end(records, setup_samples, peak_rss_mb, busy_s: float, scaled: bool) -> dict:
    """End-to-end metrics.  Scaled, every time is divided by the host factor
    of its moment (hostspeed.py); otherwise the times are raw."""
    raw = [r["latency"] for r in records]
    lat = [r["latency"] / r["host_factor"] for r in records] if scaled else raw
    setup = [t / f if scaled else t for t, f in setup_samples]
    # the loop's own time around the operations scales like the operations
    busy = busy_s * sum(lat) / sum(raw)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(records) / busy, "unit": "1/s"},
        "op_p50_ms": {"value": _quantile(lat, 0.5) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": _quantile(lat, 0.9) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    _require_source()
    # Set-up time is an end-to-end metric, so a traced run skips the probes.
    # Half of them run before the timed region and half after it, so that a
    # slow spell of the host weighs on only some of them.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_samples = [_probe_setup(args.workload, args.seed) for _ in range(probes)]
    t_setup = perf_counter()
    wl, ops = _setup(args.workload, args.seed)
    own_setup_s = perf_counter() - t_setup
    import layers
    import spans

    tracer = clock = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    else:
        import hostspeed

        clock = hostspeed.HostClock()
    t0 = perf_counter()
    records = _timed_loop(wl, ops, args.seconds, tracer, clock)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if clock is not None:
        for r in records:
            r["host_factor"] = clock.factor(r["start"], r["start"] + r["latency"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [_probe_setup(args.workload, args.seed) for _ in range(probes)]

    judged = _judge(wl, records)
    attempted = len(records)
    # Misses that match a known defect (oracles.KNOWN_DEFECTS) are counted
    # in fail_frac / wrong_frac and known_defect_hits; any other miss fails
    # the operation and makes the run incorrect.
    failed = len(judged["unexpected"])
    correct = not failed

    OUT.mkdir(exist_ok=True)
    if args.trace:
        overhead = _tracing_overhead(wl, spans, [r["op"] for r in records if r["start"] < REPLAY_SHARE * args.seconds])
        import cli_session

        tracer.op_id = None
        cli_metrics = cli_session.run(ROOT, OUT, args.seed, tracer)
        metrics = layers.per_layer(records, tracer, judged, cli_metrics, overhead)
    else:
        metrics = _end_to_end(records, setup_samples, peak_rss_mb, elapsed - clock.spent, scaled=True)

    env = _environment(args, records)
    record = {
        "environment": env,
        "setup_samples_s": [t for t, _ in setup_samples],
        "setup_host_factors": [f for _, f in setup_samples],
        "host_bursts": {"fields": ["start_s", "host_factor"],
                        "rows": [[t, b / hostspeed.NOMINAL_S] for t, b in zip(clock.stamps, clock.times)]} if clock else None,
        "raw_end_to_end": _end_to_end(records, setup_samples, peak_rss_mb, elapsed - clock.spent, scaled=False) if clock else None,
        "op_samples": {"fields": ["class", "start_s", "latency_s", "host_factor"],
                       "rows": [[r["op"].cls or r["op"].kind, r["start"], r["latency"], r["host_factor"]] for r in records]} if clock else None,
        "own_setup_s": own_setup_s,
        "elapsed_s": elapsed,
        "status": dict(judged["tally"]),
        "fail_frac": judged["tally"]["failed"] / max(attempted, 1),
        "wrong_frac": judged["tally"]["wrong"] / max(attempted, 1),
        "known_defect_hits": judged["defects"],
        "known_defects": wl.orc.KNOWN_DEFECTS,
        "unexpected": judged["unexpected"][:20],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"], "spans": tracer.spans}, fh)
    print(json.dumps({"environment": env, "fail_frac": record["fail_frac"], "wrong_frac": record["wrong_frac"],
                      "known_defect_hits": judged["defects"], "raw_end_to_end": record["raw_end_to_end"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
