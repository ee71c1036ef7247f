"""Plain-text table rendering and the sweep JSON payload builder.

:func:`sweep_result_payload` builds the deterministic part of the
``repro sweep --json`` document from a (possibly prefetched) runner, so
serial and ``--jobs N`` sweeps emit it through one code path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows as an aligned ASCII table (first column left-aligned)."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cells[i].rjust(widths[i]) for i in range(1, len(cells))]
        return "  ".join(parts)

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out += [line(row) for row in str_rows]
    return "\n".join(out)


def sweep_result_payload(runner, systems: Sequence[str],
                         workloads: Sequence[str]) -> Dict[str, object]:
    """The deterministic core of a sweep document.

    ``{"systems", "workloads", "baseline", "cells", "speedups"}`` —
    exactly the ``repro sweep --json`` payload minus its wall-clock
    ``cache`` block, built by running every (system, workload) cell
    through ``runner`` (warm after a prefetch) in grid order.
    """
    from .parallel import sweep_pairs
    pairs = sweep_pairs(systems, workloads)
    base_results = ({workload: runner.run("IO", workload)
                     for workload in workloads} if "IO" in systems else {})
    cells: Dict[str, Dict[str, dict]] = {}
    speedups: Dict[str, Dict[str, float]] = {}
    for system, workload in pairs:
        result = runner.run(system, workload)
        cells.setdefault(workload, {})[system] = {
            "cycles": result.cycles, "time_ns": result.time_ns,
            "instructions": result.instructions}
        if base_results:
            speedups.setdefault(workload, {})[system] = (
                base_results[workload].time_ns / result.time_ns)
    return {"systems": list(systems), "workloads": list(workloads),
            "baseline": "IO" if base_results else None,
            "cells": cells, "speedups": speedups}

