"""The experiment runner: one path for every (system, workload) cell,
serial or fanned out over ``--jobs N`` worker processes.

:meth:`ExperimentRunner.cell` produces one cell.  It serves the
in-memory result, then the on-disk result cache (only when the runner
was given a ``cache_root``), and otherwise simulates over a trace taken
from memory, the on-disk trace cache or a fresh build (strict-checked
when asked), plus a :class:`~repro.compiler.CompiledTrace` (the
trace's hoisted request lines) shared per ``(workload, vlmax)``.  Both
disk keys fold in the strict-check flag, so a strict runner never loads
what a non-strict one published.  Traces depend only on (workload,
vlmax), so EVE-1/2/4 — all with a 2048 hardware vector length — share
one trace, and the IV/DV machines share the VL=64 trace and its
compiled form.
Scalar systems run the workload's scalar trace.

:meth:`ExperimentRunner.prefetch` maps that method over a cell list with
:func:`~repro.experiments.parallel.fan_out`: in-process for
``jobs == 1``, otherwise over a process pool whose workers each run the
same method on a per-process runner.  Cache use therefore depends only
on ``cache_root``, never on ``jobs``.

The runner also carries the observability plumbing: a
:class:`~repro.obs.SelfProfiler` attributes the simulator's own host
wall-clock time to ``trace_build`` / ``compile`` / ``sim:<system>``
phases, and :meth:`~ExperimentRunner.run` accepts a tracer, metrics
registry and/or attribution collector to instrument a single simulation
(instrumented runs bypass the result caches and the compiler so the
instruments observe a real execution).
"""

from __future__ import annotations

import functools
import os
import time
from typing import Dict, Optional, Tuple

from ..cores.result import SimResult
from ..isa.trace import Trace
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.selfprof import SelfProfiler
from ..obs.tracer import SpanTracer
from ..workloads import DEFAULT_SEED, canonical_workload, get_workload
from .parallel import (CellCache, fan_out, params_fingerprint,
                       sweep_config_fingerprint)
from .systems import build_machine, canonical_system, trace_vlmax

#: Environment switch for strict-mode static checking; CI sets it so every
#: freshly built vector trace must pass ``repro check`` before simulating.
STRICT_CHECK_ENV = "EVE_STRICT_CHECK"


def strict_check_enabled() -> bool:
    """Whether the environment requests strict-mode trace checking."""
    return os.environ.get(STRICT_CHECK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def canonical_pairs(pairs) -> list:
    """Canonicalize (system, workload) pairs and drop duplicates,
    preserving first-seen order, so every caller agrees on what "the
    same cell" means."""
    ordered = []
    seen = set()
    for system, workload in pairs:
        key = (canonical_system(system), canonical_workload(workload))
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


class ExperimentRunner:
    """Runs (system, workload) cells, caching traces, compiled traces and
    results in memory and, given a ``cache_root``, on disk."""

    def __init__(self, params_override: Optional[Dict[str, dict]] = None,
                 verify: bool = True,
                 profiler: Optional[SelfProfiler] = None,
                 seed: int = DEFAULT_SEED,
                 strict_check: Optional[bool] = None,
                 telemetry=NULL_TELEMETRY,
                 compile_traces: bool = True,
                 jobs: int = 1,
                 cache_root: Optional[str] = None,
                 collect_metrics: bool = False) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
        #: workload name -> params override (benchmarks use smaller inputs).
        self.params_override = params_override or {}
        self.verify = verify
        self.seed = seed
        self.profiler = profiler or SelfProfiler()
        #: Campaign telemetry hub (:data:`~repro.obs.events.NULL_TELEMETRY`
        #: by default — the zero-cost null-hook pattern; pass a
        #: :class:`~repro.obs.events.CampaignTelemetry` to stream
        #: per-cell lifecycle events from :meth:`prefetch`).
        self.telemetry = telemetry
        #: Run the static hazard checkers on every freshly built vector
        #: trace and refuse to simulate a failing one.  ``None`` defers to
        #: the ``EVE_STRICT_CHECK`` environment variable (off by default
        #: in sweeps, on in CI).
        self.strict_check = (strict_check_enabled() if strict_check is None
                             else strict_check)
        #: Run uninstrumented simulations through the trace compiler
        #: (``--no-compile`` turns this off; instrumented runs always take
        #: the reference interpreter path regardless).
        self.compile_traces = compile_traces
        #: Worker processes :meth:`prefetch` fans out over (0 resolves to
        #: one per CPU; 1 runs every cell in this process).
        self.jobs = jobs or os.cpu_count() or 1
        #: Root of the on-disk trace/result cache; ``None`` keeps every
        #: cache in memory.
        self.cache_root = cache_root
        self.cache = CellCache(cache_root) if cache_root else None
        #: Capture a metrics registry for every cell (:meth:`cell_metrics`);
        #: such cells run on the reference interpreter, like any other
        #: instrumented run, and occupy their own result-cache entries.
        self.collect_metrics = collect_metrics
        self._traces: Dict[Tuple[str, int], Trace] = {}
        self._compiled: Dict[Tuple[str, int], object] = {}
        self._results: Dict[Tuple[str, str], SimResult] = {}
        self._metrics: Dict[Tuple[str, str], tuple] = {}

    # -- the cell path ---------------------------------------------------------

    def _load(self, path: Optional[str], tier: str, info: Optional[dict]):
        """Load one disk-cache entry (``None`` on a miss or without a
        cache), noting its status under ``info[tier]``."""
        if path is None:
            return None
        obj, status = self.cache.load_entry(path)
        if info is not None:
            info[tier] = status
            if status == "corrupt":
                info["corrupt_paths"].append(path)
        return obj

    def _trace(self, workload_name: str, vlmax: int,
               info: Optional[dict] = None) -> Trace:
        key = (workload_name, vlmax)
        trace = self._traces.get(key)
        if trace is not None:
            return trace
        path = None
        if self.cache is not None:
            # Traces are compiler-independent, so the trace cache keys on
            # the bare params fingerprint and is shared across compile
            # modes; strict runs key apart, so a trace that a non-strict
            # run built unchecked is never served to a strict one.
            path = self.cache.trace_path(
                workload_name, vlmax,
                params_fingerprint(workload_name, self.params_override,
                                   seed=self.seed,
                                   strict=self.strict_check))
        trace = self._load(path, "trace", info)
        if trace is None:
            workload = get_workload(workload_name)
            params = self.params_override.get(workload_name)
            with self.profiler.phase("trace_build"):
                if vlmax == 0:
                    trace = workload.scalar_trace(params)
                else:
                    trace = workload.vector_trace(
                        vlmax, params, verify=self.verify, seed=self.seed)
                    if self.strict_check:
                        from ..analysis import require_clean
                        require_clean(trace,
                                      context=f"strict check, vlmax={vlmax}")
            if path is not None:
                self.cache.store(path, trace)
        self._traces[key] = trace
        return trace

    def _compiled_for(self, workload_name: str, vlmax: int):
        """The :class:`~repro.compiler.CompiledTrace` for one trace-cache
        cell, built once and shared by every system at that vlmax."""
        key = (workload_name, vlmax)
        if key not in self._compiled:
            # Looked up at call time, so a patched compile_trace (the
            # benchmark probe's) sees every compile.
            from ..compiler import compile_trace
            trace = self._trace(workload_name, vlmax)
            with self.profiler.phase("compile"):
                self._compiled[key] = compile_trace(trace)
        return self._compiled[key]

    def _result_path(self, system: str, workload: str,
                     compiles: bool) -> Optional[str]:
        if self.cache is None:
            return None
        from ..compiler import compiler_descriptor
        params_fp = params_fingerprint(workload, self.params_override,
                                       seed=self.seed,
                                       compiler=compiler_descriptor(compiles),
                                       strict=self.strict_check)
        return self.cache.result_path(system, workload, params_fp,
                                      sweep_config_fingerprint(),
                                      instrumented=self.collect_metrics)

    def _publish(self, key: Tuple[str, str], entry: Dict[str, object]) -> None:
        self._results[key] = entry["result"]
        if entry["metrics_flat"] is not None:
            self._metrics[key] = (entry["metrics_flat"],
                                  entry["metrics_snapshot"])

    def cell(self, system_name: str, workload_name: str) -> Dict[str, object]:
        """Produce one uninstrumented cell — the only way a result enters
        the runner.

        Serves the in-memory result, then the disk result cache; otherwise
        simulates (capturing metrics when ``collect_metrics``) and
        publishes to both.  Returns a picklable payload: ``system``,
        ``workload``, ``result``, ``metrics_flat`` / ``metrics_snapshot``
        (``None`` unless captured), ``cached`` (served without
        simulating) and ``cache`` (the disk statuses and quarantined
        paths :func:`describe_cell` reports).
        """
        system = canonical_system(system_name)
        workload = canonical_workload(workload_name)
        key = (system, workload)
        info: Dict[str, object] = {"result": None, "trace": None,
                                   "corrupt_paths": []}
        cached = key in self._results
        if not cached:
            # Metrics cells run on the interpreter, so they carry no
            # compiler descriptor in their cache key either.
            compiles = self.compile_traces and not self.collect_metrics
            path = self._result_path(system, workload, compiles)
            entry = self._load(path, "result", info)
            cached = entry is not None
            if entry is None:
                metrics = MetricsRegistry() if self.collect_metrics else None
                machine = build_machine(system, metrics=metrics)
                vlmax = trace_vlmax(machine.config)
                trace = self._trace(workload, vlmax, info)
                compiled = (self._compiled_for(workload, vlmax)
                            if compiles else None)
                with self.profiler.phase(f"sim:{system}"):
                    result = machine.run(trace, compiled=compiled)
                entry = {"result": result,
                         "metrics_flat": (metrics.flat()
                                          if metrics is not None else None),
                         "metrics_snapshot": (metrics.snapshot()
                                              if metrics is not None
                                              else None)}
                if path is not None:
                    self.cache.store(path, entry)
            self._publish(key, entry)
        flat, snapshot = self._metrics.get(key, (None, None))
        return {"system": system, "workload": workload,
                "result": self._results[key], "metrics_flat": flat,
                "metrics_snapshot": snapshot, "cached": cached,
                "cache": info}

    def cell_metrics(self, system_name: str, workload_name: str):
        """The ``(flat, snapshot)`` metrics captured for one cell, or
        ``None`` (always ``None`` unless ``collect_metrics``)."""
        return self._metrics.get((canonical_system(system_name),
                                  canonical_workload(workload_name)))

    def _worker_config(self) -> Dict[str, object]:
        """Constructor arguments of a pool worker's runner: picklable
        inputs only (telemetry and the profiler stay in this process)."""
        return {"params_override": self.params_override,
                "verify": self.verify, "seed": self.seed,
                "strict_check": self.strict_check,
                "compile_traces": self.compile_traces,
                "cache_root": self.cache_root,
                "collect_metrics": self.collect_metrics}

    def prefetch(self, pairs) -> Dict[str, object]:
        """Produce every requested cell through :meth:`cell`, fanned out
        over ``jobs`` worker processes (in-process for ``jobs == 1``).

        Returns ``{"cells", "simulated", "cached", "jobs", "seconds",
        "cache_hits", "cache_misses", "cache_corrupt"}``: ``cached``
        counts cells served from memory or disk, the ``cache_*`` counters
        the disk cache alone.  Results are merged in input order (never
        completion order) and pool workers' self-profiler phases are
        absorbed under a ``worker:`` namespace, so repeated prefetches are
        deterministic.
        """
        start = time.perf_counter()
        ordered = canonical_pairs(pairs)
        todo = [key for key in ordered if key not in self._results]
        monitor = None
        if self.telemetry.enabled and todo:
            units = [f"{system}/{workload}" for system, workload in todo]
            self.telemetry.begin(units)
            monitor = TelemetryMonitor(self.telemetry, units,
                                       describe=describe_cell,
                                       jobs=self.jobs)
        # fan_out runs jobs == 1 and single-cell lists in this process,
        # where this runner's own caches serve; only a pool needs the
        # picklable worker entry point.
        if self.jobs > 1 and len(todo) > 1:
            produce = functools.partial(_worker_cell, self._worker_config())
        else:
            def produce(pair):
                return self.cell(*pair)
        outs = fan_out(produce, todo, self.jobs, profiler=self.profiler,
                       phase="sweep", monitor=monitor)
        hits = corrupt = 0
        for out in outs:  # input order: the merge is deterministic
            self._publish((out["system"], out["workload"]), out)
            if "profile" in out:
                self.profiler.absorb(out["profile"], prefix="worker:")
            hits += out["cached"]
            corrupt += len(out["cache"]["corrupt_paths"])
        return {"cells": len(ordered), "simulated": len(todo) - hits,
                "cached": len(ordered) - len(todo) + hits,
                "jobs": self.jobs, "seconds": time.perf_counter() - start,
                "cache_hits": hits, "cache_misses": len(todo) - hits,
                "cache_corrupt": corrupt}

    # -- single runs -----------------------------------------------------------

    def trace_for(self, system_name: str, workload_name: str) -> Trace:
        """The trace ``system_name`` would simulate for ``workload_name``
        (built and cached on first request; scalar systems get the
        workload's scalar trace)."""
        system_name = canonical_system(system_name)
        workload_name = canonical_workload(workload_name)
        machine = build_machine(system_name)
        return self._trace(workload_name, trace_vlmax(machine.config))

    def run(self, system_name: str, workload_name: str,
            tracer: Optional[SpanTracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            attribution=None) -> SimResult:
        """Simulate one cell.  Uninstrumented calls go through
        :meth:`cell` (and its caches); instrumented ones always simulate,
        on the reference interpreter, and are never cached."""
        if tracer is None and metrics is None and attribution is None:
            return self.cell(system_name, workload_name)["result"]
        # Canonicalize so programmatic callers spelling "io" and "IO"
        # share one trace entry (and do not crash in make_system).
        system_name = canonical_system(system_name)
        workload_name = canonical_workload(workload_name)
        machine = build_machine(system_name, tracer=tracer, metrics=metrics,
                                attribution=attribution)
        trace = self._trace(workload_name, trace_vlmax(machine.config))
        with self.profiler.phase(f"sim:{system_name}"):
            return machine.run(trace)

    def speedup(self, system_name: str, workload_name: str,
                baseline: str = "IO") -> float:
        """Wall-clock speedup of ``system_name`` over ``baseline``."""
        return self.run(system_name, workload_name).speedup_over(
            self.run(baseline, workload_name))


#: A pool worker's own runner and the config it was built from (set only
#: inside pool worker processes).  Built on the worker's first cell and
#: kept for the pool's lifetime, so cells that land in one worker share
#: traces and compiled traces exactly as the in-process path does.
_WORKER: Optional[Tuple[Dict[str, object], ExperimentRunner]] = None


def _worker_cell(config: Dict[str, object],
                 pair: Tuple[str, str]) -> Dict[str, object]:
    """:meth:`ExperimentRunner.cell` inside a pool worker; the payload
    also carries the cell's self-profile for the parent to absorb."""
    global _WORKER
    if _WORKER is None or _WORKER[0] != config:
        _WORKER = (config, ExperimentRunner(**config))
    runner = _WORKER[1]
    runner.profiler = SelfProfiler()
    payload = runner.cell(*pair)
    payload["profile"] = runner.profiler.as_dict()
    return payload


def describe_cell(payload: Dict[str, object]):
    """Telemetry view of one :meth:`ExperimentRunner.cell` payload:
    ``(cached, extra_events, detail)`` for
    :meth:`repro.obs.events.CampaignTelemetry.unit_finished`."""
    extra = tuple(("cache_corrupt", {"path": path})
                  for path in payload["cache"]["corrupt_paths"])
    detail = {"system": payload["system"], "workload": payload["workload"],
              "cycles": payload["result"].cycles}
    return payload["cached"], extra, detail
