"""Experiment harness: builds Table III systems, runs workloads, and
regenerates every table and figure of the paper's evaluation.

* :mod:`repro.experiments.systems` — machine construction by name.
* :mod:`repro.experiments.runner` — the one cell path: trace and
  compiled-trace sharing, the result caches, serial or ``--jobs N``
  prefetch.
* :mod:`repro.experiments.parallel` — the on-disk trace/result cache and
  the process-pool fan-out the runner maps cells with.
* :mod:`repro.experiments.figures` — per-figure/table data generators
  (Figure 2, Figure 6, Figure 7, Figure 8, Table IV, area efficiency).
* :mod:`repro.experiments.report` — plain-text table rendering.
"""

from .systems import build_machine, canonical_system, trace_vlmax
from .runner import ExperimentRunner, canonical_pairs
from .parallel import DEFAULT_CACHE_ROOT, cache_stats, prune_cache, sweep_pairs
from .report import format_table, sweep_result_payload
from . import figures

__all__ = ["build_machine", "canonical_system", "trace_vlmax",
           "ExperimentRunner", "canonical_pairs",
           "cache_stats", "prune_cache", "DEFAULT_CACHE_ROOT",
           "sweep_pairs", "format_table",
           "sweep_result_payload", "figures"]
