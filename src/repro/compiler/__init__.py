"""Trace compiler: request-line hoisting plus the fast memory model.

Values are computed when a trace is built; each machine then times the
events in program order (the paper's function/timing split).  The one
per-event cost a compile can take out of that timing loop is deriving
every memory event's cache-line request stream from its
:class:`~repro.isa.instructions.MemAccess` pattern.  So the compiler is
one pass:

* :mod:`passes` — memory-line hoisting: every memory-touching event's
  request list, precomputed once per trace to plain ints;
* :mod:`memengine` — the flattened memory hierarchy the machines swap
  in for uninstrumented compiled runs.

Cycle accounting is byte-identical to the interpreted path by
construction: the machines iterate ``enumerate(trace)`` in both modes
and the hoisted lists are the very lists the interpreter derives
(:func:`~repro.isa.instructions.request_lines`).  Instrumented runs
(tracer, metrics, attribution, fault injection) always take the
reference interpreter path.

:data:`COMPILER_VERSION` is folded into experiment fingerprints (see
:func:`compiler_descriptor`) so compiled and uncompiled results can
never collide in the result cache.
"""

from __future__ import annotations

from typing import Dict

from ..isa.trace import Trace
from .passes import LinesTable, hoist_memory_lines

#: Bumped whenever compilation changes observable behaviour; part of
#: every compiled run's fingerprint.
COMPILER_VERSION = 2


class CompiledTrace:
    """One trace, compiled: the trace plus its hoisted request lines.

    The machines read :meth:`lines_for` (the hoisted request list, or
    ``None`` for non-memory events) while iterating the trace itself.
    """

    def __init__(self, trace: Trace, lines: LinesTable) -> None:
        self.trace = trace
        self.lines = lines

    def lines_for(self, index: int):
        return self.lines.get(index)

    def descriptor(self) -> Dict[str, object]:
        return compiler_descriptor(True)

    def summary(self) -> Dict[str, object]:
        # ``eliminated`` and ``blocks`` stay for the benchmark probe's
        # per-layer counters; the compiler neither eliminates nor packs.
        return {"events": len(self.trace.events), "eliminated": 0,
                "blocks": 0, "hoisted_events": len(self.lines)}


def compile_trace(trace: Trace) -> CompiledTrace:
    """Hoist ``trace``'s request lines into a :class:`CompiledTrace`."""
    return CompiledTrace(trace, hoist_memory_lines(trace))


def compiler_descriptor(enabled: bool):
    """The fingerprint ingredient for a run: a descriptor dict when the
    compiled path is on, ``None`` when interpreted."""
    if not enabled:
        return None
    return {"compiler_version": COMPILER_VERSION}


__all__ = [
    "COMPILER_VERSION", "CompiledTrace", "compile_trace",
    "compiler_descriptor", "hoist_memory_lines",
]
