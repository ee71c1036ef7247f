"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``systems``
    List the Table III systems with their derived parameters.
``workloads``
    List the Table IV workloads and their (scaled) default inputs.
``run SYSTEM WORKLOAD``
    Simulate one (system, workload) pair and print cycles, time, and the
    execution breakdown.  ``--metrics-out FILE`` also captures the full
    metrics-registry snapshot as JSON.
``compare WORKLOAD``
    Run a workload on every system and print the speedup column.
    ``--json`` emits a machine-readable report (per-system SimResult
    fields + stall breakdown + the simulator's own phase wall-clock);
    ``--metrics-out FILE`` captures per-system registry snapshots.
``sweep``
    Simulate a systems x workloads cross-product (default: the full
    Figure 6 grid) and print per-cell cycles and speedups.
``trace SYSTEM WORKLOAD -o FILE``
    Simulate with the timeline tracer enabled and export Chrome
    trace-event JSON (load it at https://ui.perfetto.dev): one track per
    unit/structure (VSU, VMU, DTU, VRU, DRAM, caches, MSHRs, ...).
``stats SYSTEM WORKLOAD``
    Simulate with the metrics registry enabled and print every counter /
    gauge / histogram (``--json`` or ``--csv`` for machines), plus the
    cycle-attribution bound-by split.
``attribute SYSTEM WORKLOAD``
    Simulate with the cycle-attribution engine enabled: every unit cycle
    is charged to a trace instruction and stall bucket (bit-exact
    conservation against the machine's own accounting is enforced), the
    timed critical path and per-instruction slack are computed over the
    dependence graph, and the top-K bottleneck instructions / macro-op
    families are ranked.  ``--flame-out`` writes a folded-stack
    flamegraph; ``--perfetto-out`` writes stall-bucket counter tracks.
``bottleneck``
    The bound-by taxonomy summary (compute / dep / memory / reconfig)
    across a systems x workloads grid — one conservation-checked
    attribution run per cell.
``uprog MACRO``
    Print the micro-program for a macro-operation (disassembled) and its
    cycle count per parallelization factor.
``lint``
    Statically verify micro-programs (CFG + dataflow analysis): every ROM
    program for every parallelization factor by default, or an assembly
    listing via ``--asm``.  Exits non-zero when errors are found.
``check``
    Statically analyze vector traces (def-use chains, memory footprints,
    hazard checkers, dependence graph): every workload by default, or
    saved fuzz cases via ``--corpus DIR``.  Exits non-zero on ANY
    finding.  ``lint`` and ``check`` share one ``--json`` findings
    schema.
``figure NAME``
    Regenerate a figure/table (fig1, fig2, table3, area).
``fuzz``
    Differentially fuzz the micro-programmed engine against the numpy
    oracle: seeded random RVV programs at every segment width, shrunk to
    minimal repros on mismatch (``--replay FILE`` re-runs a saved case).
    Exits non-zero when any divergence survives.
``faults``
    Run a seeded fault-injection campaign (bit flips, stuck carry
    segments, dropped/latched writebacks) and classify every injection
    as masked / detected / SDC against the oracle.
``history``
    List the run records archived in the run store (``.eve-runs/``),
    filterable by ``--limit`` / ``--kind`` / ``--workload`` /
    ``--system``.
``diff BASELINE [CURRENT]``
    Compare two run records under per-metric tolerance policies (exact
    for cycle counts, relative-epsilon for wall-clock, direction-aware
    for speedups); exits non-zero on a gated regression.
``scorecard``
    Run the Figure 6 / Table IV / Figure 7 / Figure 8 harnesses and
    grade every datapoint against the paper's published values.
``cache``
    Inspect the on-disk cell cache (entry/byte census incl. quarantined
    ``*.corrupt`` files) and prune it least-recently-used-first to a
    byte budget (``--prune --max-bytes N``).

System and workload names are matched case-insensitively (``o3+eve-4``
works), and ``run`` / ``trace`` / ``stats`` accept ``--tiny`` to use the
test-sized problem inputs.  ``run`` / ``compare`` / ``stats`` accept
``--record`` (archive the run into the run store) and ``--baseline REF``
(diff the fresh run against a stored record or golden-baseline file).
``compare`` / ``sweep`` / ``scorecard`` accept ``--jobs N`` to fan the
(system, workload) cells out over N worker processes, and use the
on-disk cell cache (``--cache-dir`` / ``--no-cache``) at any ``--jobs``;
results are bit-identical to a serial, uncached run.  Their only
progress report is the one-line ``sweep:`` tally on stderr once every
cell is produced.  ``run`` / ``compare`` / ``sweep`` accept ``--seed N``
to vary the generated workload inputs; the seed is folded into cache
keys and record fingerprints so seeded runs never collide with the
default-seed results.  Count arguments (``history --limit``, ``fuzz
--seeds``, ``attribute`` / ``bottleneck --top``) must be at least 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import __version__
from .compiler import compiler_descriptor
from .config import all_system_names
from .errors import MicroProgramError, ReproError, RunStoreError
from .experiments import (ExperimentRunner, format_table,
                          sweep_result_payload)
from .experiments.figures import ALL_APPS, area_table, figure2, table3
from .experiments.parallel import (DEFAULT_CACHE_ROOT, cache_stats,
                                   prune_cache, sweep_pairs)
from .experiments.systems import canonical_system as _canonical_system
from .faults.inject import FAULT_MODELS
from .obs import MetricsRegistry, SelfProfiler, SpanTracer
from .obs.diff import DEFAULT_SPEEDUP_BUDGET, diff_records
from .obs.render import emit_csv, emit_json, findings_json, write_json
from .obs.runstore import (DEFAULT_ROOT, RunRecord, RunStore,
                           filter_history, make_record)
from .obs.scorecard import FIGURES, build_scorecard, scorecard_pairs
from .uops import MacroOpRom, assemble, disassemble, lint_program, lint_rom
from .workloads import DEFAULT_SEED, REGISTRY, tiny_overrides
from .workloads import canonical_workload as _canonical_workload

EVE_FACTORS = (1, 2, 4, 8, 16, 32)


def _make_runner(args, collect_metrics: bool = False) -> ExperimentRunner:
    override = tiny_overrides() if getattr(args, "tiny", False) else None
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = DEFAULT_SEED
    # Verbs without --cache-dir (run, trace, stats, ...) stay uncached.
    cache_root = (None if getattr(args, "no_cache", False)
                  else getattr(args, "cache_dir", None))
    return ExperimentRunner(
        params_override=override, seed=seed,
        compile_traces=getattr(args, "compile", True),
        jobs=getattr(args, "jobs", 1), cache_root=cache_root,
        collect_metrics=collect_metrics)


def _fingerprint_extra(runner: ExperimentRunner):
    """Record-fingerprint payload: params override plus any non-default
    input seed, so seeded records are config-distinct from default runs.
    Compiled runs additionally fold in the compiler descriptor (the
    compiler version), so a record produced through the trace
    compiler can never be mistaken for an interpreter baseline."""
    extra = dict(runner.params_override) if runner.params_override else {}
    if runner.seed != DEFAULT_SEED:
        extra["__seed__"] = runner.seed
    descriptor = compiler_descriptor(getattr(runner, "compile_traces", False))
    if descriptor is not None:
        extra["__compiler__"] = descriptor
    return extra or None


def _prefetch(runner: ExperimentRunner, pairs) -> dict:
    """Produce every cell before the (serial) reporting loops run, and
    report the tally on stderr."""
    stats = runner.prefetch(pairs)
    print(f"sweep: {stats['cells']} cells ({stats['simulated']} "
          f"simulated, {stats['cached']} cached) with "
          f"{stats['jobs']} worker(s) in {stats['seconds']:.2f}s",
          file=sys.stderr)
    return stats


def _recording(args) -> bool:
    return bool(getattr(args, "record", False)
                or getattr(args, "baseline", None))


def _finish_record(args, record: Optional[RunRecord]) -> int:
    """Archive and/or baseline-diff a freshly built record.

    Shared tail of ``run`` / ``compare`` / ``stats``: append to the run
    store when ``--record`` was given, and when ``--baseline REF`` was
    given diff the fresh record against the resolved baseline, print the
    regression report, and propagate the differ's exit code.
    """
    if record is None:
        return 0
    store = RunStore(args.store)
    baseline = None
    if args.baseline:
        # Resolve before appending so ``--baseline latest`` means "the
        # previous record", not the one this invocation just archived.
        try:
            baseline = store.resolve(args.baseline)
        except RunStoreError as exc:
            print(f"baseline: {exc}", file=sys.stderr)
            return 2
    if args.record:
        record_id = store.append(record)
        print(f"recorded {record_id} -> {store.runs_path}", file=sys.stderr)
    if baseline is None:
        return 0
    diff = diff_records(baseline, record)
    _print_diff(diff)
    return diff.exit_code()


def _print_diff(diff) -> None:
    rows = diff.table_rows()
    if rows:
        print(format_table(
            ["metric", "baseline", "current", "rel", "status"], rows))
    counts = diff.counts()
    regressions = diff.regressions()
    summary = ", ".join(f"{n} {status}" for status, n in counts.items() if n)
    print(f"diff vs {diff.baseline.record_id or diff.baseline.label or 'baseline'}: "
          f"{summary or 'identical'}")
    if regressions:
        print(f"REGRESSION: {len(regressions)} gated metric(s) regressed "
              f"beyond budget", file=sys.stderr)


def _cmd_systems(_args) -> int:
    rows = [[r["system"], r["l2_kb"], r["hardware_vl"], r["vlmax"],
             r["cycle_time_ns"]] for r in table3()]
    print(format_table(
        ["system", "L2_KB", "hw_VL", "trace_VLMAX", "cycle_ns"], rows))
    return 0


def _cmd_workloads(_args) -> int:
    rows = [[wl.name, wl.suite, str(wl.params)]
            for wl in sorted(REGISTRY.values(), key=lambda w: w.name)]
    print(format_table(["workload", "suite", "default params"], rows))
    return 0


def _single_run_record(kind: str, args, runner: ExperimentRunner, result,
                       metrics: Optional[MetricsRegistry]) -> RunRecord:
    record = make_record(
        kind, label=f"{result.system}:{result.workload}",
        tiny=getattr(args, "tiny", False),
        command=f"repro {kind} {result.system} {result.workload}",
        fingerprint_extra=_fingerprint_extra(runner))
    record.add_result(result.system, result.workload, cycles=result.cycles,
                      time_ns=result.time_ns,
                      instructions=result.instructions)
    if metrics is not None:
        record.metrics = metrics.flat()
    record.self_profile = runner.profiler.as_dict()
    return record


def _cmd_run(args) -> int:
    runner = _make_runner(args)
    metrics = (MetricsRegistry()
               if args.metrics_out or _recording(args) else None)
    result = runner.run(args.system, args.workload, metrics=metrics)
    print(f"system    : {result.system}")
    print(f"workload  : {result.workload}")
    print(f"cycles    : {result.cycles:.0f}")
    print(f"time      : {result.time_ns / 1e3:.1f} us")
    if result.breakdown is not None:
        rows = [[bucket, value, value / result.cycles]
                for bucket, value in result.breakdown.as_dict().items()
                if value > 0]
        print(format_table(["bucket", "cycles", "fraction"], rows))
    if args.metrics_out:
        write_json(args.metrics_out, {
            "system": result.system,
            "workload": result.workload,
            "metrics": metrics.snapshot(),
            "self_profile": runner.profiler.as_dict(),
        })
    record = (_single_run_record("run", args, runner, result, metrics)
              if _recording(args) else None)
    return _finish_record(args, record)


def _cmd_compare(args) -> int:
    want_metrics = bool(args.metrics_out) or _recording(args)
    runner = _make_runner(args, collect_metrics=want_metrics)
    _prefetch(runner, [(system, args.workload)
                       for system in all_system_names()])
    base = runner.run("IO", args.workload)
    per_system = {}
    metrics_out = {}
    metrics_flat = {}
    rows = []
    record = None
    if _recording(args):
        record = make_record(
            "compare", label=args.workload, tiny=args.tiny,
            command=f"repro compare {args.workload}",
            fingerprint_extra=_fingerprint_extra(runner))
        record.speedup_baseline = "IO"
    for system in all_system_names():
        result = runner.run(system, args.workload)
        captured = runner.cell_metrics(system, args.workload)
        speedup = base.time_ns / result.time_ns
        rows.append([system, result.cycles, result.time_ns / 1e3, speedup])
        entry = result.to_json_dict()
        entry.pop("metrics", None)
        entry["speedup_vs_IO"] = speedup
        per_system[system] = entry
        if captured is not None:
            flat, metrics_out[system] = captured
            for name, value in flat.items():
                metrics_flat[f"{system}.{name}"] = value
        if record is not None:
            record.add_result(system, args.workload, cycles=result.cycles,
                              time_ns=result.time_ns,
                              instructions=result.instructions)
            record.speedups.setdefault(args.workload, {})[system] = speedup
    if args.json:
        emit_json({
            "workload": args.workload,
            "baseline": "IO",
            "systems": per_system,
            "self_profile": runner.profiler.as_dict(),
        })
    else:
        print(format_table(
            ["system", "cycles", "time_us", "speedup_vs_IO"], rows))
    if args.metrics_out:
        write_json(args.metrics_out, {
            "workload": args.workload,
            "metrics": metrics_out,
            "self_profile": runner.profiler.as_dict(),
        })
    if record is not None:
        record.metrics = metrics_flat
        record.self_profile = runner.profiler.as_dict()
    return _finish_record(args, record)


def _cmd_sweep(args) -> int:
    runner = _make_runner(args)
    systems = args.systems or all_system_names()
    workloads = args.workloads or sorted(REGISTRY)
    pairs = sweep_pairs(systems, workloads)
    stats = _prefetch(runner, pairs)
    disk_cache = {"hits": stats["cache_hits"],
                  "misses": stats["cache_misses"],
                  "corrupt": stats["cache_corrupt"]}
    if disk_cache["corrupt"]:
        print(f"sweep cache: {disk_cache['corrupt']} corrupt entr(y/ies) "
              f"quarantined (*.corrupt) and re-simulated", file=sys.stderr)
    # The deterministic document core; the run-dependent "cache" block
    # is appended only to the --json output below.
    payload = sweep_result_payload(runner, systems, workloads)
    cells = payload["cells"]
    speedups = payload["speedups"]
    rows = []
    for system, workload in pairs:
        cell = cells[workload][system]
        row = [workload, system, cell["cycles"], cell["time_ns"] / 1e3]
        if payload["baseline"]:
            row.append(speedups[workload][system])
        rows.append(row)
    if args.json:
        emit_json(dict(payload, cache=disk_cache))
    else:
        headers = ["workload", "system", "cycles", "time_us"]
        if payload["baseline"]:
            headers.append("speedup_vs_IO")
        print(format_table(headers, rows))
    record = None
    if _recording(args):
        record = make_record(
            "sweep", label=f"{len(workloads)}x{len(systems)}",
            tiny=args.tiny, command="repro sweep",
            fingerprint_extra=_fingerprint_extra(runner))
        for workload, per_system in cells.items():
            for system, cell in per_system.items():
                record.add_result(system, workload, cycles=cell["cycles"],
                                  time_ns=cell["time_ns"],
                                  instructions=cell["instructions"])
        if payload["baseline"]:
            record.speedup_baseline = "IO"
            record.speedups = {workload: dict(per_system)
                               for workload, per_system in speedups.items()}
        record.self_profile = runner.profiler.as_dict()
        record.extra["sweep"] = {k: stats[k] for k in
                                 ("cells", "simulated", "cached", "jobs",
                                  "seconds", "cache_hits", "cache_misses",
                                  "cache_corrupt")}
    return _finish_record(args, record)


def _cmd_trace(args) -> int:
    runner = _make_runner(args)
    tracer = SpanTracer(process=f"repro:{args.system}:{args.workload}")
    result = runner.run(args.system, args.workload, tracer=tracer)
    with runner.profiler.phase("report"):
        tracer.export(args.output)
    tracks = ", ".join(tracer.track_names())
    print(f"system    : {result.system}")
    print(f"workload  : {result.workload}")
    print(f"cycles    : {result.cycles:.0f}")
    print(f"events    : {tracer.num_events}")
    print(f"tracks    : {tracks}")
    print(f"trace     : {args.output}  (open in https://ui.perfetto.dev)")
    return 0


def _attribution_cell(runner: ExperimentRunner, system: str, workload: str,
                      metrics: Optional[MetricsRegistry] = None,
                      top: int = 10):
    """Run one attributed cell and build its bottleneck report.

    Returns ``(result, collector, nodes, report)``; raises
    :class:`~repro.errors.AttributionError` when the conservation gate
    fails.  Scalar traces have no dependence graph — the report
    degenerates to the single heaviest node.
    """
    from .analysis import build_depgraph
    from .obs import (AttributionCollector, build_bottleneck_report,
                      collect_nodes)
    attr = AttributionCollector()
    result = runner.run(system, workload, metrics=metrics, attribution=attr)
    attr.require_conserved(context=f"{result.system}/{result.workload}")
    trace = runner.trace_for(system, workload)
    nodes = collect_nodes(attr, trace)
    graph = build_depgraph(trace) if trace.vlmax is not None else None
    report = build_bottleneck_report(attr, nodes, graph, result.system,
                                     result.workload, top=top)
    return result, attr, nodes, report


def _print_bottleneck_report(report, max_rows: int = 10) -> None:
    from .obs.critpath import TAXONOMY_CLASSES
    shares = "  ".join(f"{cls}:{report.bound_by.get(cls, 0.0):.1%}"
                       for cls in TAXONOMY_CLASSES)
    print(f"bound by  : {report.dominant}   ({shares})")
    cp = report.critical_path
    print(f"crit path : {cp.cycles:.0f} cycles over {len(cp.path)} "
          f"instruction(s) "
          f"({cp.cycles / report.cycles:.1%} of execution)"
          if report.cycles else "crit path : empty")
    print(f"stall     : {report.total_stall:.0f} recoverable cycle(s); "
          f"top {len(report.instructions)} instructions cover "
          f"{report.instruction_coverage:.1%}")
    if report.instructions:
        shown = report.instructions[:max_rows]
        rows = [[e.rank, e.label, f"{e.weight:.0f}", f"{e.stall:.0f}",
                 f"{e.slack:.0f}", "*" if e.on_critical_path else "",
                 e.bound_by] for e in shown]
        print(format_table(
            ["#", "instruction", "cycles", "stall", "slack", "cp",
             "bound_by"], rows))
        hidden = len(report.instructions) - len(shown)
        if hidden > 0:
            print(f"  (+{hidden} more ranked instruction(s) to reach "
                  f"{report.instruction_coverage:.1%} stall coverage; "
                  f"see --json)")
    if report.families:
        rows = [[e.rank, e.label, e.count, f"{e.weight:.0f}",
                 f"{e.stall:.0f}", "*" if e.on_critical_path else "",
                 e.bound_by] for e in report.families]
        print(format_table(
            ["#", "macro family", "n", "cycles", "stall", "cp",
             "bound_by"], rows))


def _cmd_attribute(args) -> int:
    from .obs import (attribution_record_payload, counter_trace_dict,
                      folded_stacks, write_folded)
    runner = _make_runner(args)
    metrics = MetricsRegistry() if _recording(args) else None
    result, attr, nodes, report = _attribution_cell(
        runner, args.system, args.workload, metrics=metrics, top=args.top)
    attributed, total = attr.coverage()
    payload = report.to_json_dict()
    payload["conservation"] = {
        "attributed_cycles": attributed, "total_cycles": total,
        "units": {unit: sum(buckets.values())
                  for unit, buckets in sorted(attr.unit_totals().items())},
    }
    payload["attribution"] = attribution_record_payload(attr, report)
    if args.flame_out:
        write_folded(args.flame_out, folded_stacks(nodes, result.workload))
    if args.perfetto_out:
        write_json(args.perfetto_out, counter_trace_dict(
            nodes, process=f"repro:{result.system}:{result.workload}"))
    if args.json:
        emit_json(payload)
    else:
        print(f"system    : {result.system}")
        print(f"workload  : {result.workload}")
        print(f"cycles    : {result.cycles:.0f}")
        print(f"conserved : {attributed:.0f} cycle(s) attributed across "
              f"{len(attr.unit_totals())} unit(s) [bit-exact]")
        _print_bottleneck_report(report, max_rows=args.top)
        if args.flame_out:
            print(f"flame     : {args.flame_out}  (render with "
                  f"flamegraph.pl or speedscope)")
        if args.perfetto_out:
            print(f"perfetto  : {args.perfetto_out}  (open in "
                  f"https://ui.perfetto.dev)")
    if args.json_out:
        write_json(args.json_out, payload)
    record = None
    if _recording(args):
        record = _single_run_record("attribute", args, runner, result,
                                    metrics)
        record.extra["attribution"] = payload["attribution"]
    return _finish_record(args, record)


def _cmd_bottleneck(args) -> int:
    systems = args.systems or all_system_names()
    workloads = args.workloads or sorted(REGISTRY)
    runner = _make_runner(args)
    rows = []
    cells: dict = {}
    for workload in workloads:
        for system in systems:
            result, attr, nodes, report = _attribution_cell(
                runner, system, workload, top=args.top)
            cells.setdefault(result.workload, {})[result.system] = (
                report.to_json_dict())
            cp_share = (report.critical_path.cycles / report.cycles
                        if report.cycles else 0.0)
            top_family = (report.families[0].label if report.families
                          else "-")
            rows.append([
                result.workload, result.system, f"{result.cycles:.0f}",
                report.dominant,
                f"{report.bound_by.get('memory', 0.0):.1%}",
                f"{cp_share:.1%}", top_family])
    if args.json:
        emit_json({"systems": list(systems), "workloads": list(workloads),
                   "cells": cells})
    else:
        print(format_table(
            ["workload", "system", "cycles", "bound_by", "mem_share",
             "cp_share", "top_family"], rows))
    return 0


def _cmd_stats(args) -> int:
    from .analysis import analyze_trace
    from .obs import attribution_record_payload
    runner = _make_runner(args)
    metrics = MetricsRegistry()
    result, attr, _nodes, attr_report = _attribution_cell(
        runner, args.system, args.workload, metrics=metrics)
    metrics.assert_schema()
    # The simulated trace is already cached, so the characterisation and
    # (for vector traces) the static-analyzer summary come for free.
    trace = runner.trace_for(args.system, args.workload)
    tstats = trace.stats()
    analysis = (analyze_trace(trace, name=args.workload).summary
                if trace.vlmax is not None else None)
    payload = result.to_json_dict()
    payload["metrics"] = metrics.snapshot()
    payload["attribution"] = attribution_record_payload(attr, attr_report)
    payload["trace_stats"] = {
        "dynamic_instrs": tstats.dynamic_instrs,
        "vector_instrs": tstats.vector_instrs,
        "scalar_instrs": tstats.scalar_instrs,
        "total_ops": tstats.total_ops,
        "vector_ops": tstats.vector_ops,
        "vi_pct": tstats.vi_pct, "vo_pct": tstats.vo_pct,
        "vpar": tstats.vpar, "prd_pct": tstats.prd_pct,
        "arith_intensity": tstats.arith_intensity,
        "by_category": {cat.name: count
                        for cat, count in tstats.by_category.items()},
    }
    if analysis is not None:
        payload["analysis"] = analysis.to_json()
    payload["self_profile"] = runner.profiler.as_dict()
    if args.json:
        emit_json(payload)
    elif args.csv:
        # Per-vector-instruction ratios divide by the vector-instruction
        # count; scalar cells (vector_instrs == 0) emit "n/a" instead of
        # crashing.
        ilp_rows = [
            ["trace.dynamic_instrs", tstats.dynamic_instrs],
            ["trace.vector_instrs", tstats.vector_instrs],
            ["trace.vpar", tstats.vpar],
            ["trace.ops_per_vinstr",
             (tstats.vector_ops / tstats.vector_instrs
              if tstats.vector_instrs else "n/a")],
            ["analysis.ilp_width",
             analysis.ilp_width if analysis is not None else "n/a"],
        ]
        emit_csv(["metric", "value"],
                 [["sim.system", result.system],
                  ["sim.workload", result.workload],
                  *ilp_rows,
                  *((f"attribution.{key}", value) for key, value
                    in sorted(payload["attribution"]["shares"].items())),
                  *metrics.flat().items()])
    else:
        print(f"system    : {result.system}")
        print(f"workload  : {result.workload}")
        print(f"cycles    : {result.cycles:.0f}")
        print(f"time      : {result.time_ns / 1e3:.1f} us")
        print(f"trace     : {tstats.dynamic_instrs} instrs, "
              f"VI% {tstats.vi_pct:.1f}, VPar {tstats.vpar:.1f}, "
              f"ArInt {tstats.arith_intensity:.2f}")
        if analysis is not None:
            print(f"analysis  : dead_writes={analysis.dead_writes}, "
                  f"live_hwm={analysis.live_high_water}, "
                  f"dep depth={analysis.dep_depth} "
                  f"width={analysis.dep_width}, "
                  f"ilp={analysis.ilp_width:.1f}")
        from .obs.critpath import TAXONOMY_CLASSES
        shares = "  ".join(
            f"{cls}:{attr_report.bound_by.get(cls, 0.0):.1%}"
            for cls in TAXONOMY_CLASSES)
        print(f"bound by  : {attr_report.dominant}   ({shares})")
        rows = list(metrics.flat().items())
        print(format_table(["metric", "value"], rows))
        prof = runner.profiler.merged()
        prof_rows = [[phase, f"{seconds * 1e3:.1f} ms"]
                     for phase, seconds in sorted(prof.items())]
        print()
        print(format_table(["host phase", "wall-clock"], prof_rows))
    record = None
    if _recording(args):
        record = _single_run_record("stats", args, runner, result, metrics)
        record.extra["attribution"] = payload["attribution"]
    return _finish_record(args, record)


def _cmd_history(args) -> int:
    store = RunStore(args.store)
    rows_data = filter_history(store, kind=args.kind,
                               workload=args.workload, system=args.system,
                               limit=args.limit)
    if args.json:
        emit_json(rows_data)
        return 0
    if not rows_data:
        filtered = args.kind or args.workload or args.system
        print(f"run store {store.root} is empty"
              + (" for these filters" if filtered else "")
              + " (record one with: repro run SYSTEM WORKLOAD --record)")
        return 0
    rows = [[r["record_id"], r["kind"], r["label"] or "-", r["created"],
             r["git_sha"] + ("*" if r.get("dirty") else ""),
             "tiny" if r.get("tiny") else "full", r.get("fingerprint", "")]
            for r in rows_data]
    print(format_table(
        ["record", "kind", "label", "created", "git", "inputs", "config"],
        rows))
    return 0


def _cmd_diff(args) -> int:
    store = RunStore(args.store)
    try:
        baseline = store.resolve(args.baseline_ref)
        current = store.resolve(args.current_ref)
    except RunStoreError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_records(baseline, current, speedup_budget=args.budget)
    payload = diff.to_json_dict()
    if args.json:
        emit_json(payload)
    else:
        _print_diff(diff)
    if args.json_out:
        write_json(args.json_out, payload)
    return diff.exit_code(strict=args.strict)


def _cmd_scorecard(args) -> int:
    runner = _make_runner(args)
    figures = args.figures or FIGURES
    apps = args.apps or ALL_APPS
    _prefetch(runner, scorecard_pairs(figures, apps))
    card = build_scorecard(runner=runner, figures=figures,
                           apps=apps, tiny=args.tiny)
    payload = card.to_json_dict()
    if args.json:
        emit_json(payload)
    else:
        rows = [[e.figure, e.kernel, e.metric, e.paper, e.measured,
                 "inf" if e.error == float("inf") else f"{e.error:.2f}x",
                 e.grade + ("(dev)" if e.known_deviation else "")]
                for e in card.entries]
        print(format_table(
            ["figure", "kernel", "metric", "paper", "ours", "error",
             "grade"], rows))
        print()
        check_rows = [[c.figure, c.name,
                       "ok" if c.ok
                       else ("FAIL" if c.gate else "FAIL(dev)"), c.detail]
                      for c in card.checks]
        print(format_table(["figure", "shape claim", "verdict", "detail"],
                           check_rows))
        print()
        counts = card.grade_counts()
        grades = "  ".join(f"{g}:{counts[g]}" for g in "ABCF")
        print(f"grades          : {grades}   ((dev) = known deviation, "
              f"not gated)")
        print(f"geomean error   : {card.geomean_error():.2f}x all, "
              f"{card.geomean_error(core_only=True):.2f}x core "
              f"(budget {payload['geomean_error_budget']:.2f}x)")
        print(f"fidelity verdict: {'PASS' if card.passed else 'FAIL'}"
              + (" [tiny inputs - grades not meaningful vs the paper]"
                 if args.tiny else ""))
    if args.record:
        record = make_record(
            "scorecard", label=",".join(card.figures), tiny=args.tiny,
            command="repro scorecard",
            fingerprint_extra=runner.params_override or None)
        record.self_profile = runner.profiler.as_dict()
        record.extra = {"scorecard": payload}
        store = RunStore(args.store)
        record_id = store.append(record)
        print(f"recorded {record_id} -> {store.runs_path}", file=sys.stderr)
    if args.json_out:
        write_json(args.json_out, payload)
    return (0 if card.passed else 1) if args.gate else 0


def _cmd_uprog(args) -> int:
    params = {}
    if args.macro in ("logic",):
        params["op"] = args.op or "xor"
    elif args.macro in ("compare",):
        params["op"] = args.op or "lt"
    elif args.macro in ("minmax",):
        params["op"] = args.op or "min"
    elif args.macro == "div":
        params["op"] = args.op or "divu"
    elif args.macro.startswith("shift"):
        params["op"] = args.op or "sll"
        if args.macro == "shift_scalar":
            params["amount"] = 5
    rom = MacroOpRom(args.factor)
    program = rom.program(args.macro, **params)
    print(disassemble(program))
    print()
    rows = [[n, MacroOpRom(n).cycles(args.macro, **params)]
            for n in (1, 2, 4, 8, 16, 32)]
    print(format_table(["factor", "cycles"], rows))
    return 0


def _cmd_lint(args) -> int:
    factors = args.factor or list(EVE_FACTORS)
    if args.asm is not None:
        try:
            with open(args.asm) as handle:
                source = handle.read()
        except OSError as exc:
            print(f"lint: cannot read {args.asm}: {exc}", file=sys.stderr)
            return 2
        findings = []
        count = 0
        for factor in factors:
            try:
                program = assemble(source, name=f"{args.asm}@n{factor}")
            except MicroProgramError as exc:
                print(f"lint: {args.asm} (n={factor}): {exc}", file=sys.stderr)
                return 2
            findings += lint_program(program, factor)
            count += 1
    else:
        count, findings = lint_rom(factors, macro=args.macro)
        if count == 0:
            print(f"lint: no ROM program named {args.macro!r}", file=sys.stderr)
            return 2
    if args.json:
        emit_json(findings_json(findings, count))
        return 1 if any(f.severity == "error" for f in findings) else 0
    if findings:
        rows = [[f.program, f.index if f.index >= 0 else "-", f.rule,
                 f.severity, f.message] for f in findings]
        print(format_table(["program", "tuple", "rule", "severity", "message"],
                           rows))
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    print(f"{count} program(s) linted: {errors} error(s), "
          f"{warnings} warning(s)")
    return 1 if errors else 0


def _check_traces(args):
    """(name, trace) pairs for ``repro check``: workloads or a corpus."""
    if args.corpus:
        import glob
        import os
        from .faults.fuzz import load_case, run_case
        from .isa.intrinsics import VectorContext
        paths = sorted(glob.glob(os.path.join(args.corpus, "*.json")))
        if not paths:
            raise ReproError(f"no case JSONs under {args.corpus!r}")
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            case = load_case(path)
            ctx = VectorContext(case.vlmax, name=name)
            run_case(case, ctx)
            yield name, ctx.finalize_trace()
        return
    for name in (args.workload or sorted(REGISTRY)):
        workload = REGISTRY[name]
        params = dict(workload.tiny_params) if args.tiny else None
        yield name, workload.vector_trace(args.vlmax, params, verify=False,
                                          seed=args.seed)


def _cmd_check(args) -> int:
    from .analysis import analyze_trace
    findings = []
    summaries = {}
    for name, trace in _check_traces(args):
        report = analyze_trace(trace, name=name)
        findings += report.findings
        summaries[name] = report.summary
    if args.json or args.json_out:
        payload = findings_json(findings, len(summaries))
        payload["programs_detail"] = {name: summary.to_json()
                                      for name, summary in summaries.items()}
        if args.json:
            emit_json(payload)
        if args.json_out:
            write_json(args.json_out, payload)
    if not args.json:
        if findings:
            rows = [[f.program, f.index, f.rule, f.severity, f.message]
                    for f in findings]
            print(format_table(
                ["program", "instr", "rule", "severity", "message"], rows))
            print()
        rows = [[name, s.events, s.vector_instrs, s.dead_writes,
                 s.live_high_water, s.dep_edges, s.dep_depth, s.dep_width]
                for name, s in summaries.items()]
        print(format_table(
            ["program", "events", "vector", "dead_writes", "live_hwm",
             "dep_edges", "depth", "width"], rows))
        errors = sum(1 for f in findings if f.severity == "error")
        print(f"{len(summaries)} trace(s) checked: {errors} error(s), "
              f"{len(findings) - errors} warning(s)")
    # CI gates on ANY finding (warnings included), unlike lint.
    return 1 if findings else 0


def _cmd_figure(args) -> int:
    if args.name == "fig2":
        rows = figure2(measured=True)
        print(format_table(
            ["factor", "alus", "add_lat", "mul_lat", "add_tput", "mul_tput"],
            [[r["factor"], r["alus"], r["add_latency_rel"],
              r["mul_latency_rel"], r["add_throughput_rel"],
              r["mul_throughput_rel"]] for r in rows]))
    elif args.name == "table3":
        return _cmd_systems(args)
    elif args.name == "area":
        rows = [[r["system"], r["area_factor"]] for r in area_table()]
        print(format_table(["system", "area_factor_vs_O3"], rows))
    else:
        print(f"unknown figure {args.name!r} (try: fig2, table3, area); the "
              "full evaluation lives in benchmarks/", file=sys.stderr)
        return 2
    return 0


def _cmd_fuzz(args) -> int:
    from .faults.fuzz import FUZZ_WIDTHS, fuzz_many, load_case, replay_case
    widths = tuple(args.n_widths) if args.n_widths else FUZZ_WIDTHS

    if args.replay:
        case = load_case(args.replay)
        failures = replay_case(case, widths)
        if args.json:
            emit_json({"replay": args.replay, "seed": case.seed,
                       "widths": list(widths),
                       "divergences": [{"factor": factor, "divergence": div}
                                       for factor, div in failures]})
        else:
            for factor, div in failures:
                print(f"n={factor}: DIVERGES ({div.get('kind', '?')})")
            verdict = ("OK" if not failures
                       else f"{len(failures)} diverging width(s)")
            print(f"replay {args.replay} (seed {case.seed}, "
                  f"{len(case.ops)} ops) at n in {list(widths)}: {verdict}")
        return 1 if failures else 0

    def progress(done: int, total: int, found: int) -> None:
        if done % 50 == 0 or done == total:
            print(f"fuzz: {done}/{total} seeds checked, "
                  f"{found} mismatch(es)", file=sys.stderr)

    mismatches = fuzz_many(args.seeds, master_seed=args.seed,
                           widths=widths, vlmax=args.vlmax,
                           num_ops=args.ops, out_dir=args.out_dir,
                           progress=progress)
    if args.json:
        emit_json({"seeds": args.seeds, "master_seed": args.seed,
                   "widths": list(widths),
                   "mismatches": [m.to_json_dict() for m in mismatches]})
    else:
        for mismatch in mismatches:
            kind = (mismatch.divergence or {}).get("kind", "?")
            print(f"seed {mismatch.case.seed} n={mismatch.factor}: "
                  f"{kind} divergence ({len(mismatch.case.ops)}-op repro)")
        verdict = ("OK" if not mismatches
                   else f"{len(mismatches)} mismatch(es)")
        print(f"fuzz: {args.seeds} seed(s) x {len(widths)} width(s): "
              f"{verdict}")
    return 1 if mismatches else 0


def _bucket_sort_key(item):
    bucket = item[0]
    return (0, int(bucket), "") if bucket.isdigit() else (1, 0, bucket)


def _cmd_faults(args) -> int:
    from .faults.campaign import OUTCOMES, run_campaign
    from .faults.fuzz import FUZZ_WIDTHS
    factors = tuple(args.n_widths) if args.n_widths else FUZZ_WIDTHS
    models = None if args.model == "all" else [args.model]
    metrics = MetricsRegistry() if _recording(args) else None
    profiler = SelfProfiler()
    report = run_campaign(args.count, models=models, factors=factors,
                          seed=args.seed, jobs=args.jobs,
                          profiler=profiler, metrics=metrics)
    payload = report.to_json_dict()
    if args.json:
        emit_json(payload)
    else:
        total = max(1, len(report.outcomes))
        print(f"campaign  : {report.count} injection(s), seed {report.seed}")
        print(f"models    : {', '.join(report.models)}")
        print(f"widths    : n in {list(report.factors)}")
        print(format_table(
            ["outcome", "count", "fraction"],
            [[name, report.counts[name], report.counts[name] / total]
             for name in OUTCOMES]))
        for title, table in (("n", report.by_factor()),
                             ("model", report.by_model()),
                             ("family", report.by_family())):
            rows = [[bucket, cell["injections"], cell["sdc"],
                     cell["sdc_rate"]]
                    for bucket, cell in sorted(table.items(),
                                               key=_bucket_sort_key)]
            print()
            print(format_table([title, "injections", "sdc", "sdc_rate"],
                               rows))
    if args.json_out:
        write_json(args.json_out, payload)
    record = None
    if _recording(args):
        record = make_record(
            "faults", label=f"{args.count}x{args.model}", tiny=False,
            command=f"repro faults --model {args.model} "
                    f"--count {args.count} --seed {args.seed}",
            fingerprint_extra={"faults": {"seed": args.seed,
                                          "model": args.model,
                                          "count": args.count}})
        compact = dict(payload)
        compact.pop("outcomes", None)
        record.extra["campaign"] = compact
        record.metrics = metrics.flat()
        record.self_profile = profiler.as_dict()
    return _finish_record(args, record)


def _cmd_cache(args) -> int:
    stats = cache_stats(args.cache_dir)
    pruned = None
    if args.prune:
        pruned = prune_cache(args.cache_dir,
                             max_bytes=args.max_bytes or 0)
        stats = cache_stats(args.cache_dir)  # post-prune census
    if args.json:
        payload = dict(stats)
        if pruned is not None:
            payload["pruned"] = pruned
        emit_json(payload)
        return 0
    print(f"cache     : {stats['root']}"
          + ("" if stats["exists"] else "  (missing)"))
    for kind in ("trace", "result", "corrupt"):
        entry = stats[kind]
        print(f"{kind:<10}: {entry['count']} entr(y/ies), "
              f"{entry['bytes']} bytes")
    print(f"total     : {stats['total_bytes']} bytes")
    if pruned is not None:
        print(f"pruned    : {pruned['removed']} entr(y/ies), "
              f"{pruned['freed_bytes']} bytes freed "
              f"(budget {pruned['max_bytes']} bytes, "
              f"{pruned['remaining_bytes']} remaining)")
    return 0


def _worker_count(text: str) -> int:
    """argparse type of ``--jobs``: a non-negative worker count."""
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be 0 (all CPUs) or a positive count, got {count}")
    return count


def _positive_count(text: str) -> int:
    """argparse type of a count that must be at least 1 (``--limit``,
    ``--seeds``, ``--top``)."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_jobs_arguments(sub) -> None:
    sub.add_argument("--jobs", type=_worker_count, default=1, metavar="N",
                     help="simulate (system, workload) cells on N worker "
                          "processes (0 = all CPUs; default: 1, serial)")
    sub.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk trace/result cell cache")
    sub.add_argument("--cache-dir", default=DEFAULT_CACHE_ROOT, metavar="DIR",
                     help=f"cell-cache directory, used at any --jobs "
                          f"(default: {DEFAULT_CACHE_ROOT})")


def _add_record_arguments(sub) -> None:
    sub.add_argument("--record", action="store_true",
                     help="archive this run into the run store")
    sub.add_argument("--baseline", default=None, metavar="REF",
                     help="diff this run against REF (a record id, "
                          "'latest', 'latest~N', or a record JSON file); "
                          "exits non-zero on regression")
    sub.add_argument("--store", default=DEFAULT_ROOT, metavar="DIR",
                     help=f"run-store directory (default: {DEFAULT_ROOT})")


def _add_compile_argument(sub) -> None:
    sub.add_argument("--compile", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="run uninstrumented simulations on hoisted "
                          "request lines and the fast memory model "
                          "(cycle-identical to the interpreter; "
                          "--no-compile forces the reference interpreter)")


def _add_seed_argument(sub) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N",
                     help="workload input-generation seed, folded into "
                          "cache keys and record fingerprints "
                          f"(default: {DEFAULT_SEED})")


def _add_pair_arguments(sub, tiny_help: bool = True) -> None:
    sub.add_argument("system", type=_canonical_system,
                     choices=all_system_names())
    sub.add_argument("workload", type=_canonical_workload,
                     choices=sorted(REGISTRY))
    if tiny_help:
        sub.add_argument("--tiny", action="store_true",
                         help="use the test-sized problem inputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EVE (HPCA 2023) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list Table III systems")
    sub.add_parser("workloads", help="list Table IV workloads")

    run = sub.add_parser("run", help="simulate one system x workload")
    _add_pair_arguments(run)
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write the metrics-registry snapshot as JSON "
                          "('-' for stdout)")
    _add_compile_argument(run)
    _add_seed_argument(run)
    _add_record_arguments(run)

    compare = sub.add_parser("compare", help="one workload on every system")
    compare.add_argument("workload", type=_canonical_workload,
                         choices=sorted(REGISTRY))
    compare.add_argument("--tiny", action="store_true",
                         help="use the test-sized problem inputs")
    compare.add_argument("--json", action="store_true",
                         help="machine-readable output (per-system SimResult "
                              "fields + stall breakdown)")
    compare.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="write per-system metrics snapshots as JSON")
    _add_compile_argument(compare)
    _add_seed_argument(compare)
    _add_jobs_arguments(compare)
    _add_record_arguments(compare)

    sweep = sub.add_parser(
        "sweep", help="simulate a systems x workloads cross-product, "
                      "optionally fanned out over worker processes")
    sweep.add_argument("--systems", nargs="+", type=_canonical_system,
                       choices=all_system_names(), default=None,
                       metavar="SYSTEM",
                       help="restrict to these systems (default: all)")
    sweep.add_argument("--workloads", nargs="+", type=_canonical_workload,
                       choices=sorted(REGISTRY), default=None,
                       metavar="WORKLOAD",
                       help="restrict to these workloads (default: all)")
    sweep.add_argument("--tiny", action="store_true",
                       help="use the test-sized problem inputs")
    sweep.add_argument("--json", action="store_true",
                       help="machine-readable per-cell cycles/time and "
                            "speedups (deterministic: no wall-clock)")
    _add_compile_argument(sweep)
    _add_seed_argument(sweep)
    _add_jobs_arguments(sweep)
    _add_record_arguments(sweep)

    trace = sub.add_parser(
        "trace", help="export a Perfetto/Chrome timeline trace of one run")
    _add_pair_arguments(trace)
    trace.add_argument("-o", "--output", default="trace.json", metavar="FILE",
                       help="trace file to write (default: trace.json)")

    stats = sub.add_parser(
        "stats", help="simulate with metrics enabled and dump the registry")
    _add_pair_arguments(stats)
    fmt = stats.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="full snapshot (histograms included) as JSON")
    fmt.add_argument("--csv", action="store_true",
                     help="flattened metric,value rows as CSV")
    _add_record_arguments(stats)

    attribute = sub.add_parser(
        "attribute", help="cycle-attribution report for one run: "
                          "per-instruction accounting (conservation-"
                          "checked), timed critical path, and ranked "
                          "bottlenecks")
    _add_pair_arguments(attribute)
    attribute.add_argument("--top", type=_positive_count, default=10,
                           metavar="K",
                           help="instructions / families to rank "
                                "(default: 10)")
    attribute.add_argument("--flame-out", default=None, metavar="FILE",
                           help="write a folded-stack flamegraph "
                                "(workload;macro;opcode;bucket lines)")
    attribute.add_argument("--perfetto-out", default=None, metavar="FILE",
                           help="write cumulative stall-bucket counter "
                                "tracks as Chrome trace-event JSON")
    attribute.add_argument("--json", action="store_true",
                           help="machine-readable report (conservation + "
                                "taxonomy + critical path + rankings)")
    attribute.add_argument("--json-out", default=None, metavar="FILE",
                           help="also write the JSON report to FILE")
    _add_seed_argument(attribute)
    _add_record_arguments(attribute)

    bottleneck = sub.add_parser(
        "bottleneck", help="bound-by summary across a systems x "
                           "workloads grid (conservation-checked)")
    bottleneck.add_argument("--systems", nargs="+", type=_canonical_system,
                            choices=all_system_names(), default=None,
                            metavar="SYSTEM",
                            help="restrict to these systems (default: all)")
    bottleneck.add_argument("--workloads", nargs="+",
                            type=_canonical_workload,
                            choices=sorted(REGISTRY), default=None,
                            metavar="WORKLOAD",
                            help="restrict to these workloads "
                                 "(default: all)")
    bottleneck.add_argument("--tiny", action="store_true",
                            help="use the test-sized problem inputs")
    bottleneck.add_argument("--top", type=_positive_count, default=5,
                            metavar="K",
                            help="rank depth per cell in --json output "
                                 "(default: 5)")
    bottleneck.add_argument("--json", action="store_true",
                            help="machine-readable per-cell reports")
    _add_seed_argument(bottleneck)

    history = sub.add_parser(
        "history", help="list the archived run records")
    history.add_argument("-n", "--limit", type=_positive_count, default=None,
                         help="show only the N most recent records")
    history.add_argument("--kind", default=None,
                         help="restrict to one record kind "
                              "(run/compare/stats/bench/scorecard)")
    history.add_argument("--workload", default=None, metavar="WORKLOAD",
                         type=_canonical_workload, choices=sorted(REGISTRY),
                         help="only records carrying results or speedups "
                              "for this workload")
    history.add_argument("--system", default=None, metavar="SYSTEM",
                         type=_canonical_system, choices=all_system_names(),
                         help="only records carrying results or speedups "
                              "for this system")
    history.add_argument("--json", action="store_true",
                         help="machine-readable record summaries")
    history.add_argument("--store", default=DEFAULT_ROOT, metavar="DIR",
                         help=f"run-store directory (default: {DEFAULT_ROOT})")

    diff = sub.add_parser(
        "diff", help="compare two run records (exits non-zero on a gated "
                     "regression)")
    diff.add_argument("baseline_ref", metavar="BASELINE",
                      help="record id, 'latest', 'latest~N', or a record "
                           "JSON file (e.g. the committed golden baseline)")
    diff.add_argument("current_ref", metavar="CURRENT", nargs="?",
                      default="latest", help="record to compare against "
                                             "BASELINE (default: latest)")
    diff.add_argument("--budget", type=float,
                      default=DEFAULT_SPEEDUP_BUDGET, metavar="FRAC",
                      help="relative speedup loss tolerated before the "
                           "direction-aware gate calls a regression "
                           f"(default: {DEFAULT_SPEEDUP_BUDGET})")
    diff.add_argument("--strict", action="store_true",
                      help="fail on ANY gated change (golden-file "
                           "discipline), not just regressions")
    diff.add_argument("--json", action="store_true",
                      help="machine-readable diff report")
    diff.add_argument("--json-out", default=None, metavar="FILE",
                      help="also write the JSON report to FILE")
    diff.add_argument("--store", default=DEFAULT_ROOT, metavar="DIR",
                      help=f"run-store directory (default: {DEFAULT_ROOT})")

    scorecard = sub.add_parser(
        "scorecard", help="grade the reproduction against the paper's "
                          "published numbers")
    scorecard.add_argument("--tiny", action="store_true",
                           help="use the test-sized problem inputs (fast "
                                "smoke; grades are not paper-meaningful)")
    scorecard.add_argument("--figures", nargs="+", choices=list(FIGURES),
                           default=None, metavar="FIG",
                           help=f"restrict to some of {', '.join(FIGURES)}")
    scorecard.add_argument("--apps", nargs="+", default=None,
                           type=_canonical_workload,
                           choices=sorted(ALL_APPS), metavar="APP",
                           help="restrict to some Table IV kernels")
    scorecard.add_argument("--json", action="store_true",
                           help="machine-readable scorecard")
    scorecard.add_argument("--json-out", default=None, metavar="FILE",
                           help="also write the JSON scorecard to FILE")
    scorecard.add_argument("--record", action="store_true",
                           help="archive the scorecard into the run store")
    scorecard.add_argument("--gate", action="store_true",
                           help="exit non-zero when the fidelity verdict "
                                "is FAIL")
    scorecard.add_argument("--store", default=DEFAULT_ROOT, metavar="DIR",
                           help=f"run-store directory "
                                f"(default: {DEFAULT_ROOT})")
    _add_jobs_arguments(scorecard)

    uprog = sub.add_parser("uprog", help="show a macro-op micro-program")
    uprog.add_argument("macro")
    uprog.add_argument("--factor", type=int, default=8,
                       choices=list(EVE_FACTORS))
    uprog.add_argument("--op", default=None)

    lint = sub.add_parser(
        "lint", help="statically verify micro-programs (CFG + dataflow)")
    lint.add_argument("--factor", type=int, action="append",
                      choices=list(EVE_FACTORS), default=None,
                      help="parallelization factor(s) to lint for "
                           "(repeatable; default: all)")
    lint.add_argument("--macro", default=None,
                      help="restrict the ROM sweep to one macro-operation")
    lint.add_argument("--asm", default=None, metavar="FILE",
                      help="lint an assembly listing instead of the ROM")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings (same schema as "
                           "'repro check --json')")

    check = sub.add_parser(
        "check", help="statically analyze vector traces (def-use, memory "
                      "footprint, hazards, dependence graph); exits "
                      "non-zero on any finding")
    check.add_argument("--workload", nargs="+", type=_canonical_workload,
                       choices=sorted(REGISTRY), default=None,
                       metavar="WORKLOAD",
                       help="restrict to these workloads (default: all)")
    check.add_argument("--vlmax", type=int, default=2048, metavar="VL",
                       help="hardware vector length for the generated "
                            "traces (default: 2048)")
    check.add_argument("--tiny", action="store_true",
                       help="use the test-sized problem inputs")
    check.add_argument("--corpus", default=None, metavar="DIR",
                       help="check saved fuzz-case JSONs under DIR instead "
                            "of workload traces")
    check.add_argument("--json", action="store_true",
                       help="machine-readable findings + per-trace "
                            "analyzer summaries")
    check.add_argument("--json-out", default=None, metavar="FILE",
                       help="also write the JSON report to FILE")
    _add_seed_argument(check)

    figure = sub.add_parser("figure", help="regenerate a static figure")
    figure.add_argument("name")

    fuzz = sub.add_parser(
        "fuzz", help="differentially fuzz the micro-programmed engine "
                     "against the numpy oracle at every segment width")
    fuzz.add_argument("--seeds", type=_positive_count, default=200,
                      metavar="N",
                      help="number of generated cases (default: 200)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="master seed the per-case seeds derive from "
                           "(default: 0)")
    fuzz.add_argument("--n-widths", type=int, nargs="+", default=None,
                      choices=list(EVE_FACTORS), metavar="N",
                      help="segment widths to check (default: all six)")
    fuzz.add_argument("--vlmax", type=int, default=None, metavar="VL",
                      help="fix the hardware vector length (default: vary "
                           "per case)")
    fuzz.add_argument("--ops", type=int, default=12, metavar="N",
                      help="operations per generated case (default: 12)")
    fuzz.add_argument("--replay", default=None, metavar="FILE",
                      help="replay one saved case/mismatch JSON instead of "
                           "generating new cases")
    fuzz.add_argument("--out-dir", default=None, metavar="DIR",
                      help="write shrunk mismatch repros as replayable "
                           "JSON under DIR")
    fuzz.add_argument("--json", action="store_true",
                      help="machine-readable mismatch report")

    faults = sub.add_parser(
        "faults", help="run a seeded fault-injection campaign and "
                       "classify outcomes (masked/detected/SDC)")
    faults.add_argument("--count", type=int, default=100, metavar="N",
                        help="number of injections (default: 100)")
    faults.add_argument("--model", default="all",
                        choices=list(FAULT_MODELS) + ["all"],
                        help="fault model to inject (default: round-robin "
                             "over all models)")
    faults.add_argument("--seed", type=int, default=0, metavar="N",
                        help="campaign seed; fixes every case and "
                             "injection site (default: 0)")
    faults.add_argument("--n-widths", type=int, nargs="+", default=None,
                        choices=list(EVE_FACTORS), metavar="N",
                        help="segment widths to round-robin over "
                             "(default: all six)")
    faults.add_argument("--jobs", type=_worker_count, default=1, metavar="N",
                        help="fan injections out over N worker processes "
                             "(default: 1, serial)")
    faults.add_argument("--json", action="store_true",
                        help="machine-readable campaign report (includes "
                             "every classified outcome)")
    faults.add_argument("--json-out", default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    _add_record_arguments(faults)

    cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk cell cache")
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_ROOT,
                       metavar="DIR",
                       help=f"cell-cache directory "
                            f"(default: {DEFAULT_CACHE_ROOT})")
    cache.add_argument("--stats", action="store_true",
                       help="print the cache census (the default action)")
    cache.add_argument("--prune", action="store_true",
                       help="evict least-recently-used entries until the "
                            "cache fits --max-bytes (default budget: 0, "
                            "i.e. remove everything; quarantined *.corrupt "
                            "files are never pruned)")
    cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="byte budget for --prune (default: 0)")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable census (+ prune summary)")

    return parser


_COMMANDS = {
    "systems": _cmd_systems,
    "workloads": _cmd_workloads,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "attribute": _cmd_attribute,
    "bottleneck": _cmd_bottleneck,
    "history": _cmd_history,
    "diff": _cmd_diff,
    "scorecard": _cmd_scorecard,
    "uprog": _cmd_uprog,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "figure": _cmd_figure,
    "fuzz": _cmd_fuzz,
    "faults": _cmd_faults,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print(f"repro {args.command}: interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        # Library errors (bad workload params, malformed records, broken
        # replay files, ...) are user-facing diagnostics, not tracebacks.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
