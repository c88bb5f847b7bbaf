#!/usr/bin/env python3
"""Benchmark of the altdimaps library.

Usage, from the root of the repository:

    python3 bench/run.py --workload tutte --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                    # all four workloads, one process

A run imports the library from ``src/`` and runs one untimed warm-up pass.
It then times the set-up several times: a fresh import plus the workload's
inputs and reference answers, made from the seed.  Then it repeats passes of
the workload's fixed task list until ``--seconds`` have passed, at least the
workload's minimum number of passes is done and the last cycle of its seeded
namings is whole.  Every task's output is checked; a wrong output or an
exception counts as a failed task.  The run is single-threaded, with the
BLAS and OpenMP pools pinned to one thread.  Times are reported in reference
seconds: wall time scaled by the speed of a fixed block of work that a timer
runs every 50 ms (see ``refclock.py``).  The wall times are kept in the full
result.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from the
tracer in ``tracer.py``.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with per-task medians and the
seed, is also written to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import os

# Pin the thread pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy  # noqa: F401  imported before set-up so set-up times the library alone

from refclock import RefClock
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 21
TAIL_MIN_BEYOND = 10
E2E_UNITS = {"setup_s": "s", "run_s": "s", "task_p50_ms": "ms",
             "task_tail_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no library) or broke an invariant of
    its own."""


# -- set-up ---------------------------------------------------------------------

def import_library():
    """Import altdimaps afresh from src/ of this checkout, never from an
    installed copy."""
    if not (SRC / "altdimaps" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'altdimaps'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "altdimaps" or n.startswith("altdimaps.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("altdimaps")
    if Path(lib.__file__).resolve().parent != (SRC / "altdimaps").resolve():
        raise BenchError(f"altdimaps imported from {lib.__file__}, not {SRC}")
    return lib


def set_up(workload, seed: int, clock: RefClock):
    """Import and prepare SETUP_REPEATS times; the last preparation is used.
    Returns the set-up times in reference seconds and in wall seconds."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = import_library()
        state = workload.prepare(lib, seed)
        spans.append((t0, perf_counter()))
    clock.calibrate()
    times = [clock.measure(*span) for span in spans]
    return lib, state, [ref for ref, _ in times], [wall for _, wall in times]


# -- passes ---------------------------------------------------------------------

def run_pass(lib, workload, tasks: list, clock: RefClock) -> list:
    """Run the task list once; returns [(task name, reference seconds, ok,
    wall seconds)].  Only the library calls are timed, not the checks.  A
    task that raises or returns a wrong output is counted as failed; the pass
    goes on."""
    ctx = {"lib": lib}
    out = []
    for name, call, check in tasks:
        failure = None
        t0 = perf_counter()
        try:
            result = call(ctx)
        except Exception as exc:
            failure = exc
        t1 = perf_counter()
        if failure is None:
            try:
                if not check(result):
                    failure = "wrong output"
            except Exception as exc:
                failure = exc
        if failure is not None:
            report_failure(workload, name, failure)
        out.append((name, (t0, t1), failure is None))
    clock.calibrate()
    measured = []
    for name, span, ok in out:
        ref, wall = clock.measure(*span)
        measured.append((name, ref, ok, wall))
    out = measured
    pass_check = getattr(workload, "pass_check", None)
    if pass_check is not None:
        try:
            failure = None if pass_check(ctx) else "pinned pass total differs"
        except Exception as exc:
            failure = exc
        if failure is not None:
            report_failure(workload, "pass check", failure)
            out = [(name, dt, False, wall) for name, dt, _, wall in out]
    return out


def report_failure(workload, task: str, what) -> None:
    print(f"FAILED {workload.name}: {task}: {what!r}", file=sys.stderr)


def pass_seconds(results: list) -> float:
    return sum(r[1] for r in results)


def pass_wall_seconds(results: list) -> float:
    return sum(r[3] for r in results)


def tail_percentile(workload, n_tasks: int) -> float:
    """The highest percentile, in steps of 0.01, that leaves at least
    TAIL_MIN_BEYOND samples beyond it in the smallest run this workload
    makes.  Fixing it per workload keeps the tail comparable between runs
    whose pass counts differ."""
    guaranteed = n_tasks * workload.min_passes
    return math.floor(10000 * (1 - TAIL_MIN_BEYOND / guaranteed)) / 100


def nearest_rank(sorted_values: list, p: float) -> float:
    rank = math.ceil(p * len(sorted_values) / 100 - 1e-9)
    return sorted_values[max(0, rank - 1)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    with RefClock() as clock:
        # Warm-up: one untimed import, preparation and pass, checked like any
        # other, before anything is timed.
        lib = import_library()
        all_passes = [run_pass(lib, workload, workload.tasks(workload.prepare(lib, seed), 0), clock)]
        lib, state, setup_times, setup_walls = set_up(workload, seed, clock)

        namings = getattr(workload, "namings", 1)
        timed, traced, counters = [], [], []
        t_start = perf_counter()
        while True:
            # Traced runs hold the naming fixed, so that every traced iteration
            # makes the same calls and does the work of the untraced passes.
            i = 0 if trace else len(timed)
            timed.append(run_pass(lib, workload, workload.tasks(state, i), clock))
            if trace:
                # A traced iteration is one preparation (set-up without the
                # import) and one pass, so that layers used only in set-up,
                # such as the tutte_poly oracle, are measured too.
                # The clock's blocks must not run inside traced spans: its
                # timer stops, and the pass is scaled by the blocks at its ends.
                clock.pause()
                tracer = Tracer()
                tracer.install()
                try:
                    traced_tasks = workload.tasks(workload.prepare(lib, seed), 0)
                    hook_s = tracer.hook_s
                    traced.append(run_pass(lib, workload, traced_tasks, clock))
                finally:
                    tracer.remove()
                    clock.resume()
                counters.append(dict(tracer.counters(), pass_hook_s=tracer.hook_s - hook_s))
            elapsed = perf_counter() - t_start
            whole = len(timed) >= workload.min_passes and len(timed) % namings == 0
            if elapsed >= seconds and (trace or whole):
                break
    all_passes += timed + traced

    attempted = sum(len(p) for p in all_passes)
    failed = sum(1 for p in all_passes for _, _, ok, _ in p if not ok)
    run_s = statistics.median(pass_seconds(p) for p in timed)
    per_task = {}
    for p in timed:
        for task, dt, _, _ in p:
            per_task.setdefault(task, []).append(dt)
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "tasks_per_pass": len(timed[0]), "passes": len(timed),
        "pass_s": [pass_seconds(p) for p in timed],
        "pass_wall_s": [pass_wall_seconds(p) for p in timed],
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_walls,
        "ref_blocks": len(clock.durations),
        "ref_block_median_s": statistics.median(clock.durations),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "task_median_s": {t: statistics.median(v) for t, v in per_task.items()},
        "setup_detail": state.get("detail", {}),
    }
    if trace:
        record["layers"] = layer_metrics(name, counters, traced, run_s)
        record["traced_pass_s"] = [pass_seconds(p) for p in traced]
    else:
        pooled = sorted(dt for p in timed for _, dt, _, _ in p)
        p = tail_percentile(workload, len(timed[0]))
        tail = nearest_rank(pooled, p)
        record["e2e"] = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "task_p50_ms": statistics.median(pooled) * 1000,
            "task_tail_ms": tail * 1000,
            "peak_rss_mb": peak_rss_mb(),
        }
        record["tail"] = {"percentile": p, "samples": len(pooled),
                          "beyond": sum(1 for v in pooled if v > tail)}
    return record


def layer_metrics(name: str, counters: list, traced: list, run_s: float) -> dict:
    """Per-layer metrics of one traced iteration (a preparation and a pass):
    calls (identical in every iteration, or the run stops), median self time,
    the ratios with their bases, and the tracing overhead of a pass.  Self
    and hook times are scaled to reference seconds by the speed of the
    iteration's pass."""
    first = counters[0]
    for c in counters[1:]:
        if c["calls"] != first["calls"]:
            diff = {k: (first["calls"][k], c["calls"][k])
                    for k in first["calls"] if first["calls"][k] != c["calls"][k]}
            raise BenchError(f"{name}: call counts differ between traced passes: {diff}")
    scales = [pass_seconds(p) / pass_wall_seconds(p) for p in traced]
    # The ratio hooks' time is left out, so the overhead is that of the spans.
    traced_s = statistics.median(pass_seconds(p) - c["pass_hook_s"] * k
                                 for p, c, k in zip(traced, counters, scales))
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (first["calls"][layer], "count")
        out[f"{layer}.self_s"] = (statistics.median(c["self_s"][layer] * k
                                                    for c, k in zip(counters, scales)), "s")

    def ratio(num: int, base: int):
        return (num / base if base else 0.0, "frac", base)

    out["invariants.distinct_state_frac"] = ratio(first["t_distinct_states"], first["t_classify_calls"])
    out["minors.closure_distinct_frac"] = ratio(first["closure_minors"], first["closure_codes"])
    out["catalog.enumerate_distinct_frac"] = ratio(first["enumerate_kept"], first["enumerate_codes"])
    transform_s = out["binfn.transform.self_s"][0]
    out["binfn.transform.flops_computed"] = (first["transform_flops"], "flop")
    out["binfn.transform.bytes_computed"] = (first["transform_bytes"], "B")
    out["binfn.transform.gflop_s"] = (
        first["transform_flops"] / transform_s / 1e9 if transform_s else 0.0, "GFLOP/s")
    out["trace.overhead_frac"] = (traced_s / run_s - 1, "frac")
    return out


# -- output ---------------------------------------------------------------------

def json_metrics(record: dict) -> dict:
    """The metrics of the final JSON line: every end-to-end metric untraced,
    every per-layer metric listed in BENCHMARK.json traced."""
    if "e2e" in record:
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in record["e2e"].items()}
    return {k: {"value": v[0], "unit": v[1]} for k, v in record["layers"].items()}


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['passes']} (+1 warm-up)  "
          f"tasks/pass {record['tasks_per_pass']}")
    if "e2e" in record:
        e, t = record["e2e"], record["tail"]
        print(f"  setup_s       {e['setup_s']:.6f} s    median of {SETUP_REPEATS} set-ups "
              f"(wall {statistics.median(record['setup_wall_s_each']):.6f} s)")
        print(f"  run_s         {e['run_s']:.6f} s    median of {record['passes']} passes "
              f"(wall {statistics.median(record['pass_wall_s']):.6f} s)")
        print(f"  task_p50_ms   {e['task_p50_ms']:.6f} ms   median of {t['samples']} task samples")
        print(f"  task_tail_ms  {e['task_tail_ms']:.6f} ms   p{t['percentile']} of "
              f"{t['samples']} task samples, {t['beyond']} beyond it")
        print(f"  peak_rss_mb   {e['peak_rss_mb']:.3f} MiB")
    else:
        for k, v in record["layers"].items():
            base = f"   (base {v[2]})" if len(v) > 2 else ""
            print(f"  {k:48s} {v[0]:.6g} {v[1]}{base}")
    print(f"  failed_frac   {record['failed_frac']:.6g}    "
          f"{record['failed']} of {record['attempted']} tasks failed")
    print(f"  times in reference seconds; {record['ref_blocks']} reference blocks, "
          f"median {record['ref_block_median_s'] * 1000:.4f} ms")


def write_record(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # String hashing orders the edge sets the library iterates over, and that
    # order changes how much work some calls do (the genus test stops at its
    # first witness).  Tie it to the seed, so that one seed is one workload.
    hash_seed = str(args.seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
        write_record(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = json_metrics(records[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in json_metrics(r).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
