"""What every machine model shares: instruments, the memory hierarchy,
and the one gate between the compiled and the interpreted path."""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..mem.hierarchy import MemorySystem
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer


def no_lines(index):
    """Interpreted path: no hoisted line list for any event."""
    return None


class MachineBase:
    """Config, instruments and memory system of one machine model."""

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = (attribution if attribution is not None
                     else NULL_ATTRIBUTION)
        # Claim the machine-level metric namespace up front so another
        # unit sharing this registry cannot silently collide with it.
        self.metrics.reserve("sim", type(self).__name__)
        self.mem = MemorySystem(config, tracer=self.tracer,
                                metrics=self.metrics, attribution=self.attr)

    def _prepare_compiled(self, compiled):
        """Gate a compiled trace on instrumentation and install the fast
        memory model.

        Instrumented runs (tracer, metrics, attribution, fault
        injection) always take the reference interpreter path — the
        observability stack hooks the layered hierarchy, and equivalence
        there is guaranteed by running identical code, not by argument.
        Returns the per-event line lookup: the compiled trace's
        ``lines_for``, or :func:`no_lines` on the interpreted path.
        """
        if compiled is None:
            return no_lines
        faults = getattr(self, "faults", None)
        if (self.tracer.enabled or self.metrics.enabled
                or self.attr.enabled
                or (faults is not None and faults.enabled)):
            return no_lines
        from ..compiler.memengine import FastMemorySystem
        self.mem = FastMemorySystem(self.config)
        return compiled.lines_for
