"""Unified instrumentation layer: metrics, tracing, profiling, history.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of hierarchically
  named counters, high-water-mark gauges, and log2 histograms, with
  reserved-prefix collision detection (:meth:`MetricsRegistry.reserve` /
  :meth:`MetricsRegistry.assert_schema`).
* :mod:`repro.obs.tracer` — :class:`SpanTracer` recording begin/end spans
  and instant events on the simulated timeline, exported as Chrome
  trace-event JSON (Perfetto-loadable), one track per unit/structure.
* :mod:`repro.obs.selfprof` — :class:`SelfProfiler` attributing the
  simulator's own host wall-clock time per phase.
* :mod:`repro.obs.runstore` — :class:`RunStore` archiving every run as a
  schema-versioned :class:`RunRecord` (append-only JSONL under
  ``.eve-runs/``), so results form a longitudinal time series;
  :func:`filter_history` selects the records ``repro history`` lists.
* :mod:`repro.obs.diff` — record differ with per-metric tolerance
  policies (exact / relative / direction-aware) for regression gating.
* :mod:`repro.obs.scorecard` — paper-fidelity scorecard grading the
  reproduction against the paper's published numbers.
* :mod:`repro.obs.render` — shared JSON/CSV emission for the CLI.
* :mod:`repro.obs.attribution` — :class:`AttributionCollector` charging
  every simulated cycle of every unit to a trace instruction and stall
  bucket, with a bit-exact conservation gate
  (:meth:`AttributionCollector.require_conserved`).
* :mod:`repro.obs.critpath` — timed critical path, per-instruction
  slack, and ranked bottleneck reports over the attributed timeline.
* :mod:`repro.obs.flame` — folded-stack flamegraph / Perfetto counter
  exports and the flattened record payload for drift gating.

Everything is zero-cost when disabled: machine models hold the
:data:`NULL_TRACER` / :data:`NULL_METRICS` singletons by default and guard
hot hook sites with their ``enabled`` flags.
"""

from .attribution import (AttributionCollector, NULL_ATTRIBUTION,
                          NodeAttribution, NullAttribution, ROOT_NODE,
                          collect_nodes)
from .critpath import (BottleneckEntry, BottleneckReport, CriticalPath,
                       build_bottleneck_report, classify_bucket,
                       timed_critical_path)
from .diff import (DiffEntry, RecordDiff, TolerancePolicy, default_policies,
                   diff_records, policy_for)
from .flame import (attribution_record_payload, counter_trace_dict,
                    folded_stacks, write_folded)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NULL_METRICS, NullMetricsRegistry, bucket_index)
from .runstore import (RunRecord, RunStore, SCHEMA_VERSION, filter_history,
                       flatten_record, load_record_file, make_record,
                       record_matches)
from .selfprof import SelfProfiler
from .tracer import CANONICAL_TRACKS, NULL_TRACER, NullTracer, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "bucket_index",
    "SelfProfiler",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "CANONICAL_TRACKS",
    "RunRecord",
    "RunStore",
    "SCHEMA_VERSION",
    "filter_history",
    "flatten_record",
    "load_record_file",
    "make_record",
    "record_matches",
    "AttributionCollector",
    "NullAttribution",
    "NULL_ATTRIBUTION",
    "NodeAttribution",
    "ROOT_NODE",
    "collect_nodes",
    "BottleneckEntry",
    "BottleneckReport",
    "CriticalPath",
    "build_bottleneck_report",
    "classify_bucket",
    "timed_critical_path",
    "attribution_record_payload",
    "counter_trace_dict",
    "folded_stacks",
    "write_folded",
    "DiffEntry",
    "RecordDiff",
    "TolerancePolicy",
    "default_policies",
    "diff_records",
    "policy_for",
    "Scorecard",
    "build_scorecard",
]


def __getattr__(name):
    # The scorecard sits *above* the experiments layer (it drives the
    # figure harnesses), so importing it eagerly here would close an
    # import cycle: obs -> scorecard -> experiments -> machines -> obs.
    # PEP 562 lazy loading keeps ``from repro.obs import build_scorecard``
    # working without the cycle.
    if name in ("Scorecard", "build_scorecard"):
        from .scorecard import Scorecard, build_scorecard
        return {"Scorecard": Scorecard,
                "build_scorecard": build_scorecard}[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
