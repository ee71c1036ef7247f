#!/usr/bin/env python
"""Wall-clock smoke benchmark: how long does each workload take to simulate?

Runs every workload on a representative system pair (IO baseline and
O3+EVE-4) at tiny problem sizes by default, timing the host-side cost of
trace building and simulation via the runner's self-profiler, and appends
one ``bench``-kind record to the run store (``.eve-runs/`` by default) —
the same longitudinal history ``repro run --record`` writes, so
``repro history`` and ``repro diff`` read bench results too.

The record carries two ingredient families with different diff policies:
the deterministic per-(system, workload) cycle counts and EVE-4-vs-IO
speedups (gated exactly / direction-aware by ``repro diff``), and the
host wall-clock per workload (noisy, advisory).  ``--golden-out`` also
writes the record to a standalone JSON file suitable for committing as a
golden baseline (see ``benchmarks/golden/``).

This is a *simulator-performance* benchmark, not a paper-results one: CI
runs it to catch host-time and determinism regressions in the hot paths
(the paper's figures live in the ``test_*`` drivers next to this file).

An ``attribution-overhead`` leg additionally times O3+EVE-4 simulations
with the cycle-attribution collector on vs off (min-of-3 each, same
pre-built trace) and warns when the ratio exceeds a 10% budget — the
null-hook pattern is supposed to make observability cheap.  A
``telemetry-overhead`` leg does the same for the campaign event log
(sweep prefetch with events on vs off, 5% budget) and cross-checks that
the instrumented sweep's cycle counts match the uninstrumented one.

Unless ``--skip-sweep`` is given, it also wall-clocks the full systems x
workloads sweep serially, fanned out over ``--jobs`` worker processes,
and warm against the cell cache, cross-checking cycle-count equality —
and writes the whole record (including the sweep speedups) to
``BENCH_<tiny|full>.json`` so the numbers are tracked longitudinally.

Usage::

    python benchmarks/bench_smoke.py                   # tiny inputs
    python benchmarks/bench_smoke.py --full            # paper-scaled inputs
    python benchmarks/bench_smoke.py --store .eve-runs # where to append
    python benchmarks/bench_smoke.py --golden-out benchmarks/golden/baseline-tiny.json
    python benchmarks/bench_smoke.py --full --jobs 4  # full-scale sweep timing
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from repro.analysis import check_trace
from repro.experiments import ExperimentRunner, sweep_pairs
from repro.experiments.systems import build_machine
from repro.obs import AttributionCollector
from repro.obs.runstore import DEFAULT_ROOT, RunStore, make_record
from repro.workloads import REGISTRY

SYSTEMS = ("IO", "O3+EVE-4")

#: Hardware vector length for the dedicated analyzer-timing leg (the
#: EVE trace the simulated systems share).
ANALYSIS_VLMAX = 2048

#: Workloads timed by the attribution-overhead leg, and the host-time
#: ratio (attributed / uninstrumented simulation) it budgets for.
ATTRIBUTION_WORKLOADS = ("backprop", "k-means")
ATTRIBUTION_BUDGET = 1.10

#: Host-time ratio (telemetry-on / telemetry-off prefetch) the campaign
#: event log budgets for — event buffering happens outside the simulated
#: cells, so it should be nearly free.
TELEMETRY_BUDGET = 1.05

#: Systems timed by the compiler-speedup leg (interpreter / compiled
#: host seconds on the compiler-leg workload), and the advisory floor the
#: ratio should clear even at tiny problem sizes.  Full-scale backprop
#: clears 5x; tiny runs are milliseconds, so per-run constant costs
#: leave less headroom.
COMPILER_WORKLOAD = "backprop"
COMPILER_SYSTEMS = ("IO", "O3+EVE-4")
COMPILER_SPEEDUP_MIN = 3.0


def time_attribution(full: bool):
    """Wall-clock the cycle-attribution overhead on O3+EVE-4.

    Three *interleaved* (plain, attributed) measurement pairs on
    pre-built traces, per workload in :data:`ATTRIBUTION_WORKLOADS`,
    with the ratio taken from the paired minima.  Interleaving matters:
    timing all plain rounds first and all attributed rounds after lets
    host-frequency drift (turbo decay, a background process spinning up
    mid-benchmark) land entirely on one side, which once produced a
    nonsensical 0.69x "overhead" for k-means.  The ratio must stay
    within :data:`ATTRIBUTION_BUDGET`; like all wall-clock numbers here
    it is advisory (diffed, not gated), but the benchmark prints a
    WARNING so a hot-loop regression is visible in the CI log.
    """
    override = None if full else _tiny_override()
    out = {}
    for workload in ATTRIBUTION_WORKLOADS:
        runner = ExperimentRunner(params_override=override)
        trace = runner.trace_for("O3+EVE-4", workload)
        # Time the machines directly on the pre-built trace so neither
        # trace construction nor the runner's result cache skews either
        # side of the ratio.
        plain = attributed = float("inf")
        for _ in range(3):
            machine = build_machine("O3+EVE-4")
            start = time.perf_counter()
            machine.run(trace)
            plain = min(plain, time.perf_counter() - start)
            collector = AttributionCollector()
            machine = build_machine("O3+EVE-4", attribution=collector)
            start = time.perf_counter()
            machine.run(trace)
            collector.require_conserved(context=workload)
            attributed = min(attributed, time.perf_counter() - start)
        overhead = attributed / plain
        out[workload] = {
            "plain_seconds": plain,
            "attributed_seconds": attributed,
            "overhead": overhead,
            "within_budget": overhead <= ATTRIBUTION_BUDGET,
        }
    return out


def _tiny_override():
    return {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}


def time_compiler(full: bool):
    """Wall-clock the trace compiler's simulation speedup.

    Interleaved (interpreted, compiled) measurement pairs per system in
    :data:`COMPILER_SYSTEMS` on one pre-built, pre-compiled
    :data:`COMPILER_WORKLOAD` trace, ratio from the paired minima —
    the same protocol as :func:`time_attribution`, for the same
    host-frequency-drift reason.  Compile time is reported separately
    (it is paid once per trace, amortised across every system at that
    vlmax).  Cycle counts and memory statistics are cross-checked: a
    compiled run that drifts from the interpreter is a bug, not a
    benchmark result.
    """
    from repro.compiler import compile_trace

    override = None if full else _tiny_override()
    rounds = 3 if full else 5
    out = {}
    for system in COMPILER_SYSTEMS:
        runner = ExperimentRunner(params_override=override)
        trace = runner.trace_for(system, COMPILER_WORKLOAD)
        start = time.perf_counter()
        compiled_trace = compile_trace(trace)
        compile_seconds = time.perf_counter() - start
        build_machine(system).run(trace)  # warm shared ROM caches
        interpreted = compiled = float("inf")
        interp_result = compiled_result = None
        for _ in range(rounds):
            machine = build_machine(system)
            start = time.perf_counter()
            interp_result = machine.run(trace)
            interpreted = min(interpreted, time.perf_counter() - start)
            machine = build_machine(system)
            start = time.perf_counter()
            compiled_result = machine.run(trace, compiled=compiled_trace)
            compiled = min(compiled, time.perf_counter() - start)
        speedup = interpreted / compiled
        out[system] = {
            "workload": COMPILER_WORKLOAD,
            "compile_seconds": compile_seconds,
            "interpreted_seconds": interpreted,
            "compiled_seconds": compiled,
            "speedup": speedup,
            "meets_advisory": speedup >= COMPILER_SPEEDUP_MIN,
            "cycles_identical": (
                interp_result.cycles == compiled_result.cycles
                and interp_result.mem_stats == compiled_result.mem_stats
                and interp_result.instructions == compiled_result.instructions),
        }
    return out


def time_telemetry(full: bool):
    """Wall-clock the campaign-telemetry overhead on a serial sweep.

    Telemetry-off prefetches vs runs with a full
    :class:`CampaignTelemetry` hub (event log on a temp file) over the
    same cell grid, fresh runners each round so neither side reuses warm
    results (min-of-5: the tiny cells finish in milliseconds, so the
    ratio needs a few rounds to shake off host-clock jitter).  The
    ratio must stay within :data:`TELEMETRY_BUDGET`; the cycle counts
    are cross-checked so an instrumented sweep can never drift from an
    uninstrumented one unnoticed.
    """
    from repro.obs.events import NULL_TELEMETRY, CampaignTelemetry, EventLog

    override = None if full else _tiny_override()
    pairs = [(s, w) for w in ("vvadd", "pathfinder") for s in SYSTEMS]

    def prefetch_once(telemetry_path):
        telemetry = NULL_TELEMETRY
        if telemetry_path is not None:
            telemetry = CampaignTelemetry(
                "bench", log=EventLog(telemetry_path))
        runner = ExperimentRunner(params_override=override,
                                  telemetry=telemetry)
        start = time.perf_counter()
        runner.prefetch(pairs)
        elapsed = time.perf_counter() - start
        if telemetry_path is not None:
            telemetry.finalize()
        return elapsed, {(s, w): runner.run(s, w).cycles for s, w in pairs}

    log_dir = tempfile.mkdtemp(prefix="eve-bench-events-")
    try:
        plain = observed = float("inf")
        plain_cycles = observed_cycles = None
        for i in range(5):
            seconds, plain_cycles = prefetch_once(None)
            plain = min(plain, seconds)
        for i in range(5):
            seconds, observed_cycles = prefetch_once(
                os.path.join(log_dir, f"events-{i}.jsonl"))
            observed = min(observed, seconds)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    overhead = observed / plain
    return {
        "cells": len(pairs),
        "plain_seconds": plain,
        "telemetry_seconds": observed,
        "overhead": overhead,
        "within_budget": overhead <= TELEMETRY_BUDGET,
        "cycles_identical": plain_cycles == observed_cycles,
    }


def time_sweep(full: bool, jobs: int):
    """Wall-clock the full systems x workloads sweep three ways.

    Serial and uncached (the baseline), fanned out over ``jobs`` worker
    processes with a cold cell cache, and a warm re-run against the
    cache the parallel leg just populated — so CI tracks both the
    parallelism speedup and the repeat-invocation cache speedup
    longitudinally.  Also cross-checks that the serial and parallel
    legs produced identical cycle counts.
    """
    override = None if full else _tiny_override()
    pairs = sweep_pairs()
    serial = ExperimentRunner(params_override=override, cache_root=None)
    start = time.perf_counter()
    serial.prefetch(pairs)
    serial_seconds = time.perf_counter() - start

    cache_dir = tempfile.mkdtemp(prefix="eve-bench-cache-")
    try:
        cold = ExperimentRunner(params_override=override, jobs=jobs,
                                cache_root=cache_dir)
        start = time.perf_counter()
        cold.prefetch(pairs)
        parallel_seconds = time.perf_counter() - start
        identical = all(
            serial.run(s, w).cycles == cold.run(s, w).cycles
            for s, w in pairs)

        warm = ExperimentRunner(params_override=override, jobs=jobs,
                                cache_root=cache_dir)
        start = time.perf_counter()
        warm.prefetch(pairs)
        warm_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "cells": len(pairs),
        "jobs": cold.jobs,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "warm_cache_seconds": warm_seconds,
        "warm_cache_speedup": serial_seconds / warm_seconds,
        "serial_parallel_identical": identical,
    }


def run_benchmark(full: bool):
    """Returns a ``bench``-kind RunRecord for every workload on SYSTEMS."""
    override = None if full else _tiny_override()
    record = make_record(
        "bench", label="full" if full else "tiny", tiny=not full,
        command=" ".join(sys.argv),
        fingerprint_extra=None if full else {"params": "tiny"})
    record.speedup_baseline = "IO"
    per_workload = {}
    for workload in sorted(REGISTRY):
        runner = ExperimentRunner(params_override=override)
        start = time.perf_counter()
        results = {system: runner.run(system, workload) for system in SYSTEMS}
        elapsed = time.perf_counter() - start
        profile = runner.profiler.merged()
        # Dedicated analyzer-overhead leg: the static checker suite must
        # stay a small fraction of the vector-trace build it guards.
        # verify=True matches the runner default (strict mode gates that
        # build); the sub-millisecond check takes a min-of-3 so the host
        # clock's jitter doesn't swamp the ratio.
        params = override.get(workload) if override else None
        start = time.perf_counter()
        trace = REGISTRY[workload].vector_trace(ANALYSIS_VLMAX, params)
        vector_build = time.perf_counter() - start
        check_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            findings = check_trace(trace, name=workload)
            check_seconds = min(check_seconds, time.perf_counter() - start)
        per_workload[workload] = {
            "seconds": elapsed,
            "trace_build_seconds": profile.get("trace_build", 0.0),
            "sim_seconds": profile.get("sim", 0.0),
            "vector_trace_build_seconds": vector_build,
            "analysis_check_seconds": check_seconds,
            "analysis_vs_trace_build": check_seconds / vector_build,
            "analysis_findings": len(findings),
        }
        for system, result in results.items():
            record.add_result(system, workload, cycles=result.cycles,
                              time_ns=result.time_ns,
                              instructions=result.instructions)
        record.speedups[workload] = {
            "O3+EVE-4": results["IO"].cycles / results["O3+EVE-4"].cycles}
    record.extra["bench_workloads"] = per_workload
    record.extra["bench_total_seconds"] = sum(
        r["seconds"] for r in per_workload.values())
    record.extra["bench_systems"] = list(SYSTEMS)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="paper-scaled inputs (slow) instead of tiny")
    parser.add_argument("--store", default=DEFAULT_ROOT, metavar="DIR",
                        help=f"run-store directory to append to "
                             f"(default: {DEFAULT_ROOT})")
    parser.add_argument("--no-store", action="store_true",
                        help="skip the run-store append (print only)")
    parser.add_argument("--golden-out", default=None, metavar="FILE",
                        help="also write the record to FILE as a "
                             "standalone golden-baseline JSON")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes for the sweep timing "
                             "(0 = all CPUs; default: 0)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the serial-vs-parallel sweep timing")
    parser.add_argument("--bench-out", default=None, metavar="FILE",
                        help="BENCH json file to write (default: "
                             "BENCH_<tiny|full>.json; 'none' to skip)")
    args = parser.parse_args(argv)

    record = run_benchmark(args.full)
    attribution = time_attribution(args.full)
    record.extra["attribution_overhead"] = attribution
    compiler = time_compiler(args.full)
    record.extra["compiler_speedup"] = compiler
    telemetry = time_telemetry(args.full)
    record.extra["telemetry_overhead"] = telemetry
    if not args.skip_sweep:
        sweep = time_sweep(args.full, args.jobs)
        record.extra["sweep"] = sweep
    bench = record.extra["bench_workloads"]
    width = max(len(name) for name in bench)
    for name, row in sorted(bench.items()):
        print(f"{name:<{width}}  {row['seconds'] * 1e3:9.1f} ms   "
              f"check {row['analysis_check_seconds'] * 1e3:6.2f} ms "
              f"({100 * row['analysis_vs_trace_build']:.1f}% of build, "
              f"{row['analysis_findings']} finding(s))")
    total = record.extra["bench_total_seconds"]
    print(f"{'total':<{width}}  {total * 1e3:9.1f} ms")
    for name, row in sorted(attribution.items()):
        print(f"attribution {name}: plain "
              f"{row['plain_seconds'] * 1e3:.1f} ms, attributed "
              f"{row['attributed_seconds'] * 1e3:.1f} ms "
              f"({row['overhead']:.2f}x, budget {ATTRIBUTION_BUDGET:.2f}x)")
        if not row["within_budget"]:
            print(f"WARNING: attribution overhead for {name} exceeds "
                  f"the {ATTRIBUTION_BUDGET:.2f}x budget", file=sys.stderr)
    for system, row in sorted(compiler.items()):
        print(f"compiler {system}/{row['workload']}: interpreted "
              f"{row['interpreted_seconds'] * 1e3:.1f} ms, compiled "
              f"{row['compiled_seconds'] * 1e3:.1f} ms "
              f"({row['speedup']:.2f}x, advisory floor "
              f"{COMPILER_SPEEDUP_MIN:.1f}x; compile "
              f"{row['compile_seconds'] * 1e3:.1f} ms), "
              f"identical={row['cycles_identical']}")
        if not row["meets_advisory"]:
            print(f"WARNING: compiler speedup for {system} fell below "
                  f"the {COMPILER_SPEEDUP_MIN:.1f}x advisory floor",
                  file=sys.stderr)
        if not row["cycles_identical"]:
            print(f"WARNING: compiled-path results for {system} diverged "
                  "from the interpreter", file=sys.stderr)
    print(f"telemetry ({telemetry['cells']} cells): off "
          f"{telemetry['plain_seconds'] * 1e3:.1f} ms, on "
          f"{telemetry['telemetry_seconds'] * 1e3:.1f} ms "
          f"({telemetry['overhead']:.2f}x, budget {TELEMETRY_BUDGET:.2f}x), "
          f"identical={telemetry['cycles_identical']}")
    if not telemetry["within_budget"]:
        print(f"WARNING: campaign-telemetry overhead exceeds the "
              f"{TELEMETRY_BUDGET:.2f}x budget", file=sys.stderr)
    if not telemetry["cycles_identical"]:
        print("WARNING: telemetry-on sweep cycles diverged from the "
              "telemetry-off sweep", file=sys.stderr)
    sweep = record.extra.get("sweep")
    if sweep:
        print(f"sweep ({sweep['cells']} cells, {sweep['jobs']} worker(s), "
              f"{sweep['cpus']} cpu(s)): "
              f"serial {sweep['serial_seconds']:.2f}s, "
              f"parallel {sweep['parallel_seconds']:.2f}s "
              f"({sweep['speedup']:.2f}x), "
              f"warm cache {sweep['warm_cache_seconds']:.2f}s "
              f"({sweep['warm_cache_speedup']:.2f}x), "
              f"identical={sweep['serial_parallel_identical']}")

    bench_out = args.bench_out or f"BENCH_{record.label}.json"
    if bench_out != "none":
        with open(bench_out, "w") as handle:
            json.dump(record.to_json_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {bench_out}")
    if args.golden_out:
        with open(args.golden_out, "w") as handle:
            json.dump(record.to_json_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote golden baseline {args.golden_out}")
    if not args.no_store:
        store = RunStore(args.store)
        record_id = store.append(record)
        print(f"recorded {record_id} -> {store.runs_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
