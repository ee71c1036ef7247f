"""Shared machinery for the vector machine models (IV / DV / EVE).

Vector traces interleave scalar bookkeeping blocks with vector
instructions.  All three vector machines run their scalar blocks on the
same embedded out-of-order control-processor model and track per-register
ready times for dependencies; they differ in how vector instructions are
timed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..isa.instructions import (MemAccess, ScalarBlock, VectorInstr,
                                request_lines)
from .machine import MachineBase


class VectorMachineBase(MachineBase):
    """Common state: register scoreboard, scalar blocks, line streams."""

    def __init__(self, config, tracer=None, metrics=None,
                 attribution=None) -> None:
        super().__init__(config, tracer=tracer, metrics=metrics,
                         attribution=attribution)
        self.metrics.reserve("breakdown", type(self).__name__)
        #: vector register -> time its value is ready
        self.reg_ready: Dict[int, float] = {}
        #: Control-processor attribution totals ("core" unit); reset per
        #: run by the subclasses, accumulated in run_scalar_block.
        self._core_busy = 0.0
        self._core_stall = 0.0

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
            lines = [request_lines(pattern, False)
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
            lines = request_lines(pattern, per_element)
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
