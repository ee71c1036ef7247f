"""The trace compiler's one pass: memory-line hoisting.

:func:`hoist_memory_lines` precomputes, once per trace, the cache-line
request list of every memory-touching event.  The interpreted machines
derive the same lists per run from each :class:`MemAccess` pattern
(``np.unique`` on every event of every run); hoisting turns the hot
per-event loops into plain-int iteration over a shared table.  It is
pre-computation, not re-timing: both paths take their lists from
:func:`~repro.isa.instructions.request_lines`, so cycle accounting stays
byte-identical to the interpreted path (the acceptance oracle for the
whole compiler).
"""

from __future__ import annotations

from typing import Dict

from ..isa.instructions import ScalarBlock, VectorInstr, request_lines
from ..isa.trace import Trace

#: Line-request table: event index -> list of line addresses (vector
#: memory ops) or list of per-pattern line lists (scalar blocks).
LinesTable = Dict[int, object]


def hoist_memory_lines(trace: Trace) -> LinesTable:
    """Precompute every event's cache-line request list.

    Vector memory ops get the exact stream the machines would derive at
    run time; scalar blocks get one distinct-line list per access
    pattern.
    """
    table: LinesTable = {}
    for index, event in enumerate(trace.events):
        if isinstance(event, ScalarBlock):
            if event.accesses:
                table[index] = [request_lines(pattern, False)
                                for pattern in event.accesses]
        elif isinstance(event, VectorInstr) and event.mem is not None:
            table[index] = request_lines(event.mem,
                                         event.category.per_element)
    return table
