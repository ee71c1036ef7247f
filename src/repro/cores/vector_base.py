"""Shared machinery for the vector machine models (IV / DV / EVE).

Vector traces interleave scalar bookkeeping blocks with vector
instructions.  All three vector machines run their scalar blocks on the
same embedded out-of-order control-processor model and track per-register
ready times for dependencies; they differ in how vector instructions are
timed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..isa.instructions import MemAccess, ScalarBlock, VectorInstr
from ..mem.hierarchy import MemorySystem
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer


class VectorMachineBase:
    """Common state: memory system, register scoreboard, scalar blocks."""

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = (attribution if attribution is not None
                     else NULL_ATTRIBUTION)
        # Claim the machine-level metric namespaces up front so another
        # unit sharing this registry cannot silently collide with them.
        owner = type(self).__name__
        self.metrics.reserve("sim", owner)
        self.metrics.reserve("breakdown", owner)
        self.mem = MemorySystem(config, tracer=self.tracer,
                                metrics=self.metrics, attribution=self.attr)
        #: vector register -> time its value is ready
        self.reg_ready: Dict[int, float] = {}
        #: Control-processor attribution totals ("core" unit); reset per
        #: run by the subclasses, accumulated in run_scalar_block.
        self._core_busy = 0.0
        self._core_stall = 0.0

    # -- compiled-trace support ------------------------------------------

    def _prepare_compiled(self, compiled):
        """Gate a compiled trace on instrumentation and install the fast
        memory model.

        Instrumented runs (tracer, metrics, attribution, fault
        injection) always take the reference interpreter path — the
        observability stack hooks the layered hierarchy, and equivalence
        there is guaranteed by running identical code, not by argument.
        Returns the compiled trace to use, or ``None``.
        """
        if compiled is None:
            return None
        faults = getattr(self, "faults", None)
        if (self.tracer.enabled or self.metrics.enabled
                or self.attr.enabled
                or (faults is not None and faults.enabled)):
            return None
        from ..compiler.memengine import FastMemorySystem
        self.mem = FastMemorySystem(self.config)
        return compiled

    # -- scoreboard ------------------------------------------------------

    def deps_ready(self, instr: VectorInstr) -> float:
        return max((self.reg_ready.get(r, 0.0) for r in instr.sources),
                   default=0.0)

    def set_ready(self, reg: int, at: float) -> None:
        if reg >= 0:
            self.reg_ready[reg] = at

    def reset(self) -> None:
        self.reg_ready.clear()

    # -- scalar control blocks -----------------------------------------------

    def run_scalar_block(self, now: float, block: ScalarBlock,
                         lines=None) -> float:
        """Out-of-order control processor running bookkeeping code.

        ``lines`` is the compiled path's hoisted per-pattern line lists;
        ``None`` derives them from the patterns as usual.
        """
        core = self.config.core
        issue_cycles = block.n_instr * core.base_cpi
        end = now + issue_cycles
        t = now
        if lines is None:
            lines = [[int(line) for line in pattern.line_addresses()]
                     for pattern in block.accesses]
        unhidden = 1.0 - core.miss_overlap
        access = self.mem.access
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            for line in pattern_lines:
                retire = t + (access(t, line, is_store).done - t) * unhidden
                if retire > end:
                    end = retire
                t += 1.0
        if self.attr.enabled:
            # Charge the block's issue slots as busy and any exposed miss
            # latency beyond them as memory stall, to the current trace
            # event (the machine loop set the context to this block).
            stall = max(0.0, (end - now) - issue_cycles)
            self.attr.charge("core", "busy", issue_cycles)
            self._core_busy += issue_cycles
            self.attr.charge("core", "mem_stall", stall)
            self._core_stall += stall
            self.attr.span(now, end)
        if self.tracer.enabled and end > now:
            self.tracer.span("Core", "scalar_block", now, end,
                             n_instr=block.n_instr)
        return end

    # -- memory streams ---------------------------------------------------------

    def stream_lines(self, start: float, pattern: MemAccess, port: str,
                     per_element: bool, issue_interval: float = 1.0,
                     lines=None) -> Tuple[float, float, float]:
        """Issue a memory pattern as a pipelined request stream.

        ``per_element`` issues one request per element (strided / indexed
        decomposition); otherwise one request per distinct cache line.
        ``lines`` is the compiled path's hoisted request list; ``None``
        derives it from the pattern.  Returns
        ``(first_done, last_done, mshr_stall_total)``.
        """
        if lines is None:
            if per_element:
                # One request per element, at the line its address falls
                # in (duplicates intentionally kept: each element is a
                # request).
                raw = pattern.element_addresses() // 64 * 64
            else:
                raw = pattern.line_addresses()
            lines = [int(line) for line in np.asarray(raw, dtype=np.int64)]
        if len(lines) == 0:
            return start, start, 0.0
        t = start
        first_done = None
        last_done = start
        stall_total = 0.0
        is_store = pattern.is_store
        access = self.mem.access
        for line in lines:
            completion = access(t, line, is_store, port)
            done = completion.done
            if first_done is None:
                first_done = done
            if done > last_done:
                last_done = done
            stall_total += completion.mshr_stall
            # The next request leaves once this one was accepted.
            after_grant = completion.grant + issue_interval
            t += issue_interval
            if after_grant > t:
                t = after_grant
        if self.tracer.enabled:
            self.tracer.span(
                "VMU", f"stream:{'st' if pattern.is_store else 'ld'}",
                start, t, n_requests=len(lines), mshr_stall=stall_total)
        return float(first_done), float(last_done), stall_total
