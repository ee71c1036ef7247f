"""In-process probe for one benchmarked ``repro`` CLI invocation.

Usage::

    python3 evebench/probe.py MODE SIDEFILE -- REPRO_ARGS...

The probe wraps public entry points of the ``repro`` package from the
outside (no program code changes), runs ``repro.cli.main(REPRO_ARGS)``
and writes what it saw to ``SIDEFILE`` as JSON.  ``MODE`` is one of:

``setup``
    Exit as soon as the first layer call (the first trace build) starts.
    The recorded ``t_first`` is the end of the invocation's set-up.
``plain``
    The untraced run.  Only O(cells) hooks are installed: the first-layer
    timestamp, each machine's ``SimResult`` and each attribution
    collector's conservation totals.
``trace``
    The traced run.  Every layer call is a span (name, start, end,
    parent); self time is duration minus children.  Memory time is taken
    outside-in: each ``FastMemorySystem.access`` call is recorded and
    replayed into a fresh model after the machine returns (the replay
    must reproduce ``level_stats()`` exactly), and each reference
    ``MemorySystem.access`` call is timed inline.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from array import array
from time import perf_counter
from types import MethodType

#: Port codes for the recorded access stream (bit 0 is ``is_store``).
PORTS = ("l1", "l2", "llc")
_PORT_CODE = {port: index << 1 for index, port in enumerate(PORTS)}

#: Machine class -> layer name.
MACHINE_LAYERS = {
    "ScalarCore": "cores.scalar",
    "IntegratedVectorMachine": "cores.iv",
    "DecoupledVectorMachine": "cores.dv",
    "EveMachine": "core.eve",
}


def _machine_classes():
    from repro.core.engine import EveMachine
    from repro.cores.dv import DecoupledVectorMachine
    from repro.cores.iv import IntegratedVectorMachine
    from repro.cores.scalar import ScalarCore
    return (ScalarCore, IntegratedVectorMachine, DecoupledVectorMachine,
            EveMachine)


def _trace_methods():
    """Every (class, method name) that builds a workload trace."""
    from repro.workloads import REGISTRY, Workload
    classes = {Workload} | {type(w) for w in REGISTRY.values()}
    return sorted(((cls, name) for cls in classes
                   for name in ("vector_trace", "scalar_trace")
                   if name in vars(cls)),
                  key=lambda pair: (pair[0].__name__, pair[1]))


def _patch(owner, name, make_wrapper):
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))


def cell_record(result) -> dict:
    """The deterministic per-cell output checked against the golden."""
    return {"system": result.system, "workload": result.workload,
            "cycles": result.cycles, "time_ns": result.time_ns,
            "instructions": result.instructions,
            "mem_stats": result.mem_stats}


class Probe:
    """Hooks shared by every mode: first-layer time, results, totals."""

    def __init__(self, mode: str, side_path: str) -> None:
        self.mode = mode
        self.side_path = side_path
        self.t_first = None
        self.cells = []
        self.conservation = {}
        self.errors = []

    def install(self) -> None:
        for cls, name in _trace_methods():
            _patch(cls, name, self._wrap_first)
        for cls in _machine_classes():
            _patch(cls, "run", self._wrap_machine)
        import repro.obs
        _patch(repro.obs, "build_bottleneck_report", self._wrap_report)

    # -- hooks -------------------------------------------------------------

    def first_layer_call(self) -> None:
        if self.t_first is not None:
            return
        self.t_first = time.monotonic()
        if self.mode == "setup":
            self.write({"t_first": self.t_first})
            os._exit(0)

    def _wrap_first(self, original):
        def wrapper(*args, **kwargs):
            self.first_layer_call()
            return original(*args, **kwargs)
        return wrapper

    def _wrap_machine(self, original):
        def run(machine, *args, **kwargs):
            result = original(machine, *args, **kwargs)
            self.cells.append(cell_record(result))
            return result
        return run

    def _wrap_report(self, original):
        def build(collector, *args, **kwargs):
            report = original(collector, *args, **kwargs)
            attributed, total = collector.coverage()
            self.conservation[f"{report.system}/{report.workload}"] = {
                "attributed": attributed, "total": total}
            return report
        return build

    # -- output ------------------------------------------------------------

    def payload(self, exit_code) -> dict:
        return {"mode": self.mode, "exit": exit_code,
                "t_first": self.t_first, "cells": self.cells,
                "conservation": self.conservation, "errors": self.errors}

    def write(self, payload: dict) -> None:
        tmp = self.side_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.side_path)


class _Stream:
    """One memory model's recorded ``access`` calls."""

    __slots__ = ("mem", "nows", "lines", "codes", "spawns")

    def __init__(self, mem) -> None:
        self.mem = mem
        self.nows = array("d")
        self.lines = array("q")
        self.codes = bytearray()
        #: Access counts at which an EVE spawn walked this model's L2.
        self.spawns = []

    def __len__(self) -> int:
        return len(self.codes)


class _Inline:
    """A reference memory model's inline-timed ``access`` calls."""

    __slots__ = ("mem", "seconds", "calls")

    def __init__(self, mem) -> None:
        self.mem = mem
        self.seconds = 0.0
        self.calls = 0


def _median_seconds(fn, reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _iterate(iterable) -> None:
    for _ in iterable:
        pass


class TracingProbe(Probe):
    """The traced run: layer spans, memory record/replay, work counts."""

    CALIBRATION_CALLS = 100_000

    def __init__(self, mode: str, side_path: str) -> None:
        super().__init__(mode, side_path)
        #: [layer, start, end, parent, child_seconds, extra]
        self.spans = []
        self._stack = []
        self._machines = []
        self._streams = {}
        self._inline = {}
        self.counts = {"workloads.traces": 0, "workloads.events": 0,
                       "compiler.events": 0, "compiler.eliminated": 0,
                       "compiler.blocks": 0, "memengine.accesses": 0,
                       "mem.accesses": 0, "cores.instructions": 0,
                       "core.eve.instructions": 0,
                       "memengine.dram_requests": 0,
                       "obs.attributed_cycles": 0.0}
        self.level_totals = {"l1d": [0, 0], "l2": [0, 0], "llc": [0, 0]}
        self.memengine_s = 0.0
        self.mem_s = 0.0
        #: Seconds the probe itself spends outside every span (replays,
        #: equality checks); excluded from the glue estimate.
        self.harness_s = 0.0
        self.replays = 0
        self.orphans = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from repro.compiler.memengine import FastMemorySystem
        from repro.mem.hierarchy import MemorySystem
        import repro.analysis
        import repro.cli
        import repro.compiler
        import repro.core.engine
        import repro.obs

        self._calibrate()
        for cls, name in _trace_methods():
            _patch(cls, name, self._wrap_build)
        for cls in _machine_classes():
            _patch(cls, "run", lambda fn, cls=cls: self._wrap_machine_span(
                MACHINE_LAYERS[cls.__name__], fn))
        _patch(repro.compiler, "compile_trace", self._wrap_compile)
        _patch(repro.analysis, "build_depgraph",
               lambda fn: self._span("analysis.depgraph", fn))
        _patch(repro.obs, "collect_nodes",
               lambda fn: self._span("obs.report", fn))
        _patch(repro.obs, "build_bottleneck_report",
               lambda fn: self._span("obs.report", self._wrap_report(fn)))
        _patch(repro.cli, "emit_json", lambda fn: self._span("obs.report", fn))
        _patch(repro.core.engine, "spawn_cost", self._wrap_spawn)
        # Replays call the unhooked method, so they are neither recorded
        # nor charged the hook cost.
        self._fast_class = FastMemorySystem
        self._fast_access = FastMemorySystem.access
        _patch(FastMemorySystem, "access", self._recording_access)
        _patch(MemorySystem, "access", self._timed_access)

    def _calibrate(self) -> None:
        """Per-call cost of the two access hooks, measured on a no-op
        ``access`` so it can be taken back out of the layer times."""
        class Bare:
            def access(self, now, line_addr, is_store, port="l1"):
                return None

        class Recorded(Bare):
            access = self._recording_access(Bare.access)

        class Timed(Bare):
            access = self._timed_access(Bare.access)

        n = self.CALIBRATION_CALLS

        def calls(obj):
            def run():
                access = obj.access
                for i in range(n):
                    access(0.0, i, False, "l1")
            return run

        timed = Timed()
        base = _median_seconds(calls(Bare()))
        self.record_cost = max(
            0.0, (_median_seconds(calls(Recorded())) - base) / n)
        total = _median_seconds(calls(timed))
        inline = self._inline[id(timed)]
        self.inline_inner_cost = inline.seconds / inline.calls
        self.inline_outer_cost = max(
            0.0, (total - base) / n - self.inline_inner_cost)
        self._streams.clear()
        self._inline.clear()

    # -- spans -------------------------------------------------------------

    def _open(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent, 0.0, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[index]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def _span(self, layer: str, original):
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _wrap_build(self, original):
        def wrapper(*args, **kwargs):
            self.first_layer_call()
            index = self._open("workloads.build")
            try:
                trace = original(*args, **kwargs)
            finally:
                self._close(index)
            # A nested trace call (a subclass calling the base) counts once.
            if self.spans[index][3] < 0 or (
                    self.spans[self.spans[index][3]][0] != "workloads.build"):
                self.counts["workloads.traces"] += 1
                self.counts["workloads.events"] += len(trace.events)
            return trace
        return wrapper

    def _wrap_compile(self, original):
        def wrapper(*args, **kwargs):
            index = self._open("compiler.compile")
            try:
                compiled = original(*args, **kwargs)
            finally:
                self._close(index)
            summary = compiled.summary()
            for key in ("events", "eliminated", "blocks"):
                self.counts[f"compiler.{key}"] += summary[key]
            return compiled
        return wrapper

    def _wrap_report(self, original):
        build = super()._wrap_report(original)

        def wrapper(collector, *args, **kwargs):
            report = build(collector, *args, **kwargs)
            self.counts["obs.attributed_cycles"] += collector.coverage()[0]
            return report
        return wrapper

    def _wrap_machine_span(self, layer: str, original):
        def run(machine, *args, **kwargs):
            index = self._open(layer)
            self._machines.append(machine)
            try:
                result = original(machine, *args, **kwargs)
            finally:
                self._machines.pop()
                self._close(index)
            start = perf_counter()
            try:
                self._settle_memory(machine, index, result)
            finally:
                self.harness_s += perf_counter() - start
            self.cells.append(cell_record(result))
            key = ("core.eve.instructions" if layer == "core.eve"
                   else "cores.instructions")
            self.counts[key] += result.instructions
            return result
        return run

    def _wrap_spawn(self, original):
        def spawn_cost(l2, *args, **kwargs):
            mem = self._machines[-1].mem if self._machines else None
            if isinstance(mem, self._fast_class) and mem.l2 is l2:
                stream = self._stream(mem)
                stream.spawns.append(len(stream))
            return original(l2, *args, **kwargs)
        return spawn_cost

    # -- memory hooks --------------------------------------------------------

    def _stream(self, mem) -> _Stream:
        stream = self._streams.get(id(mem))
        if stream is None:
            stream = self._streams[id(mem)] = _Stream(mem)
        return stream

    def _recording_access(self, original):
        streams = self._streams
        codes = _PORT_CODE

        def access(mem, now, line_addr, is_store, port="l1"):
            # The model rejects an unknown port before anything is recorded.
            completion = original(mem, now, line_addr, is_store, port)
            stream = streams.get(id(mem))
            if stream is None:
                stream = streams[id(mem)] = _Stream(mem)
            stream.nows.append(now)
            stream.lines.append(line_addr)
            stream.codes.append(codes[port] | bool(is_store))
            return completion
        return access

    def _timed_access(self, original):
        inline = self._inline

        def access(mem, now, line_addr, is_store, port="l1"):
            record = inline.get(id(mem))
            if record is None:
                record = inline[id(mem)] = _Inline(mem)
            start = perf_counter()
            completion = original(mem, now, line_addr, is_store, port)
            record.seconds += perf_counter() - start
            record.calls += 1
            return completion
        return access

    def _settle_memory(self, machine, index: int, result) -> None:
        """Charge the machine's memory time and check the replay."""
        mem = machine.mem
        span = self.spans[index]
        stream = self._streams.pop(id(mem), None)
        inline = self._inline.pop(id(mem), None)
        mem_seconds = 0.0
        hook_seconds = 0.0
        if stream is None and isinstance(mem, self._fast_class):
            self.errors.append(f"no memory accesses recorded for "
                               f"{result.system}/{result.workload}")
        if stream is not None:
            replay_s = self._replay(stream, result)
            mem_seconds = replay_s
            hook_seconds = len(stream) * self.record_cost
            self.memengine_s += replay_s
            self.counts["memengine.accesses"] += len(stream)
            stats = mem.level_stats(0.0)
            for level, totals in self.level_totals.items():
                totals[0] += stats[level][0]
                totals[1] += stats[level][1]
            self.counts["memengine.dram_requests"] += stats["dram"][
                "requests"]
        if inline is not None:
            mem_seconds = max(0.0, inline.seconds
                              - inline.calls * self.inline_inner_cost)
            hook_seconds = inline.calls * self.inline_outer_cost
            self.mem_s += mem_seconds
            self.counts["mem.accesses"] += inline.calls
        span[5] = mem_seconds + hook_seconds
        # Any other recorded model belongs to no finished machine.
        for leftovers in (self._streams, self._inline):
            for key in [k for k, v in leftovers.items() if v.mem is not mem]:
                self.orphans += 1
                del leftovers[key]

    def _replay(self, stream: _Stream, result) -> float:
        """Replay ``stream`` into a fresh model of the same class; return
        the replay's memory seconds and check ``level_stats`` equality."""
        from repro.mem.reconfig import spawn_cost
        mem = stream.mem
        fresh = type(mem)(mem.config)
        stores = [bool(code & 1) for code in stream.codes]
        ports = [PORTS[code >> 1] for code in stream.codes]
        # Segments between EVE spawns; a spawn walks the fresh L2 first.
        cuts = sorted(set(stream.spawns) | {0, len(stream)})
        segments = [(lo in stream.spawns,
                     (stream.nows[lo:hi], stream.lines[lo:hi],
                      stores[lo:hi], ports[lo:hi]))
                    for lo, hi in zip(cuts, cuts[1:])]
        if len(stream) in stream.spawns:
            segments.append((True, ((), (), (), ())))
        del stores, ports
        access = MethodType(self._fast_access, fresh)
        seconds = loop_s = 0.0
        for spawn, columns in segments:
            start = perf_counter()
            if spawn:
                spawn_cost(fresh.l2)
            for args in zip(*columns):
                access(*args)
            seconds += perf_counter() - start
            # The loop itself is not memory work; take its cost back out.
            loop_s += _median_seconds(
                lambda cols=columns: _iterate(zip(*cols)), reps=3)
        self.replays += 1
        if fresh.level_stats(0.0) != mem.level_stats(0.0):
            self.errors.append(
                f"replay mismatch: {result.system}/{result.workload} "
                f"level_stats differ after replaying {len(stream)} accesses")
        return max(0.0, seconds - loop_s)

    # -- output --------------------------------------------------------------

    def payload(self, exit_code) -> dict:
        payload = super().payload(exit_code)
        layers = {}
        top_level = 0.0
        for layer, start, end, parent, children, mem_seconds in self.spans:
            seconds = end - start - children - (mem_seconds or 0.0)
            layers[layer] = layers.get(layer, 0.0) + seconds
            if parent < 0:
                top_level += end - start
        if self._streams or self._inline:
            self.orphans += len(self._streams) + len(self._inline)
        if self.orphans:
            self.errors.append(
                f"{self.orphans} memory model(s) were accessed outside "
                f"any machine run")
        payload.update({
            "layers": layers, "counts": self.counts,
            "levels": self.level_totals,
            "memengine_s": self.memengine_s, "mem_s": self.mem_s,
            "top_level_s": top_level, "harness_s": self.harness_s,
            "replays": self.replays,
            "hook_costs": {"record": self.record_cost,
                           "inline_inner": self.inline_inner_cost,
                           "inline_outer": self.inline_outer_cost},
        })
        return payload


def main(argv) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[1] not in (
            "setup", "plain", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, side_path = argv[1], argv[2]
    probe = (TracingProbe if mode == "trace" else Probe)(mode, side_path)
    probe.install()
    from repro.cli import main as cli_main
    exit_code = 1
    try:
        exit_code = cli_main(argv[4:])
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        probe.write(probe.payload(exit_code))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
