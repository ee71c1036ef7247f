"""The on-disk cell cache and the process-pool fan-out behind every sweep.

:class:`~repro.experiments.runner.ExperimentRunner` produces each
(system, workload) cell through one method and maps it over a cell list
with :func:`fan_out` — in-process for ``jobs == 1``, over
``multiprocessing`` workers otherwise.  This module holds the two pieces
that path shares with the fault-injection campaign and ``repro cache``:

* a **trace cache** keyed by ``(workload, vlmax, params-fingerprint)``
  — EVE-1/2/4 all decode the same VL=2048 trace, so the first process
  to build it publishes it (atomic ``os.replace``) and the rest load the
  pickle instead of re-running the workload kernel;
* a **result cache** keyed by ``(system, workload, params-fingerprint,
  config-fingerprint)`` — the config fingerprint digests every Table
  III system config plus the toolkit version, so a config or parameter
  change invalidates the cache while a repeat invocation skips
  already-simulated cells entirely.

Both keys fold in the params fingerprint, which carries a digest of the
package's own source (:func:`source_fingerprint`): any edit to the model
code misses every entry a previous version published.

Both caches are advisory and used only when the runner is given a
``cache_root``: deleting ``.eve-cache/`` simply re-simulates.  Writes go
to a unique temp file followed by ``os.replace``, so a crashed worker
can never publish a torn pickle; concurrent builders of the same key
both publish identical content and the last rename wins.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import all_system_names
from ..obs.selfprof import SelfProfiler
from ..workloads import DEFAULT_SEED, REGISTRY, canonical_workload, get_workload
from .systems import canonical_system

#: Default on-disk cache directory (sibling of ``.eve-runs/``).
DEFAULT_CACHE_ROOT = ".eve-cache"

#: ``fork`` keeps worker start-up cheap where the OS offers it; spawn is
#: the portable fallback (all cell inputs are picklable primitives).
START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")


# -- cache keys ----------------------------------------------------------------

#: The ``repro`` package directory whose ``.py`` files
#: :func:`source_fingerprint` digests.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SOURCE_FP: Optional[str] = None


def source_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the ``repro`` package (relative
    path and content digest, in sorted order), computed once per process.

    A cached trace or result is a function of the model code as well as
    its inputs, so both cache keys fold this in: an edited timing model
    is never served its own pre-change results.  A cache layout change
    is a source change too.
    """
    global _SOURCE_FP
    if _SOURCE_FP is None:
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(_PACKAGE_ROOT):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, _PACKAGE_ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(hashlib.sha256(handle.read()).digest())
        _SOURCE_FP = digest.hexdigest()
    return _SOURCE_FP


def params_fingerprint(workload_name: str,
                       params_override: Optional[Dict[str, dict]],
                       seed: int = DEFAULT_SEED,
                       compiler: Optional[dict] = None,
                       strict: bool = False) -> str:
    """Digest of the workload's *resolved* parameters plus the input
    seed, so tiny and paper-scale runs of the same kernel — and runs of
    the same kernel with different ``--seed`` inputs — occupy distinct
    cache cells.  The :func:`source_fingerprint` is folded in too, so
    both the trace and the result key change with the model code.

    ``compiler`` is the :func:`repro.compiler.compiler_descriptor` of the
    execution path (``None`` for the reference interpreter): folding it in
    keeps compiled and ``--no-compile`` results on distinct cells, so a
    compiler bug can never poison an interpreter baseline (or vice versa).
    ``strict`` (strict-mode static checking) is folded in the same way:
    a strict run never loads a trace or result that a non-strict run
    published without checking its trace.
    """
    workload = get_workload(canonical_workload(workload_name))
    resolved = workload.resolve(
        (params_override or {}).get(workload.name))
    resolved["__seed__"] = seed
    resolved["__source__"] = source_fingerprint()
    if compiler is not None:
        resolved["__compiler__"] = compiler
    if strict:
        resolved["__strict__"] = True
    blob = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


_CONFIG_FP: Optional[str] = None


def sweep_config_fingerprint() -> str:
    """Digest of every Table III system config plus the toolkit version
    — the result-cache directory and the campaign event fingerprint.
    Computed once per process (configs are fixed at import time)."""
    global _CONFIG_FP
    if _CONFIG_FP is None:
        from .. import __version__
        from ..obs.runstore import config_fingerprint
        _CONFIG_FP = config_fingerprint(
            {"toolkit": __version__})
    return _CONFIG_FP


def _slug(name: str) -> str:
    return name.replace(os.sep, "_").replace(" ", "_")


# -- the on-disk cache ---------------------------------------------------------

class CellCache:
    """Pickle cache of built traces and simulated cells under ``root``.

    Layout::

        <root>/traces/<workload>-vl<N>-<params_fp>.pkl
        <root>/results/<config_fp>/<system>--<workload>-<params_fp>[-m].pkl

    Loads tolerate missing files (a miss, never an error); *corrupt*
    entries — present but unreadable pickles — are distinguished from
    misses, quarantined in place (renamed to ``<path>.corrupt``, never
    deleted, so the evidence survives for a post-mortem), and reported
    to the caller so the sweep's cache telemetry can count them.
    Stores are atomic (unique temp + ``os.replace``).
    """

    #: A present-but-unreadable pickle raises one of these.
    _CORRUPT_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                       ImportError, IndexError, ValueError)

    def __init__(self, root: str = DEFAULT_CACHE_ROOT) -> None:
        self.root = root

    def trace_path(self, workload: str, vlmax: int, params_fp: str) -> str:
        return os.path.join(self.root, "traces",
                            f"{_slug(workload)}-vl{vlmax}-{params_fp}.pkl")

    def result_path(self, system: str, workload: str, params_fp: str,
                    config_fp: str, instrumented: bool = False) -> str:
        suffix = "-m" if instrumented else ""
        return os.path.join(
            self.root, "results", config_fp,
            f"{_slug(system)}--{_slug(workload)}-{params_fp}{suffix}.pkl")

    def load_entry(self, path: str) -> Tuple[object, str]:
        """Load one entry: ``(obj, status)`` with status ``hit`` /
        ``miss`` / ``corrupt``.  Corrupt entries come back as a miss
        (``obj is None``) after being quarantined.  A hit refreshes the
        entry's mtime, so mtime order is last-use order and
        :func:`prune_cache` evicts least-recently-used entries first."""
        try:
            with open(path, "rb") as handle:
                obj = pickle.load(handle)
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - read-only cache mounts
                pass
            return obj, "hit"
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            # Unreadable for environmental reasons (permissions, I/O):
            # a miss, not corruption — do not quarantine.
            return None, "miss"
        except self._CORRUPT_ERRORS:
            self.quarantine(path)
            return None, "corrupt"

    def quarantine(self, path: str) -> str:
        """Move a corrupt entry aside (rename, don't delete) so the next
        run re-simulates instead of tripping over it again."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another worker
            pass
        return target

    def store(self, path: str, obj) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{id(obj):x}.tmp"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)


# -- cache accounting ----------------------------------------------------------

def _cache_entries(root: str) -> List[Tuple[float, int, str, str]]:
    """Every live cache entry under ``root`` as ``(mtime, bytes, kind,
    path)`` — kind is ``trace`` / ``result`` by subdirectory.  Quarantined
    ``*.corrupt`` files and stray temp files are not live entries."""
    entries: List[Tuple[float, int, str, str]] = []
    for kind, subdir in (("trace", "traces"), ("result", "results")):
        top = os.path.join(root, subdir)
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:  # pragma: no cover - raced with a pruner
                    continue
                entries.append((stat.st_mtime, stat.st_size, kind, path))
    return entries


def cache_stats(root: str = DEFAULT_CACHE_ROOT) -> Dict[str, object]:
    """Entry counts and byte totals of the cell cache, by kind, plus the
    census of quarantined ``*.corrupt`` files (``repro cache --stats``)."""
    stats: Dict[str, object] = {
        "root": root,
        "exists": os.path.isdir(root),
        "trace": {"count": 0, "bytes": 0},
        "result": {"count": 0, "bytes": 0},
        "corrupt": {"count": 0, "bytes": 0},
        "total_bytes": 0,
    }
    for _mtime, size, kind, _path in _cache_entries(root):
        stats[kind]["count"] += 1
        stats[kind]["bytes"] += size
        stats["total_bytes"] += size
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".corrupt"):
                try:
                    size = os.stat(os.path.join(dirpath, name)).st_size
                except OSError:  # pragma: no cover - raced with cleanup
                    continue
                stats["corrupt"]["count"] += 1
                stats["corrupt"]["bytes"] += size
    return stats


def prune_cache(root: str = DEFAULT_CACHE_ROOT,
                max_bytes: int = 0) -> Dict[str, object]:
    """Evict least-recently-used cache entries until the live entries fit
    ``max_bytes`` (0 empties the cache).

    mtime is last-use time — :meth:`CellCache.load_entry` touches every
    hit — so eviction order is true LRU.  Quarantined ``*.corrupt`` files
    are evidence, not cache: they are never pruned and do not count
    against the budget.
    """
    entries = sorted(_cache_entries(root))  # oldest (least recent) first
    total = sum(size for _mtime, size, _kind, _path in entries)
    removed = freed = 0
    for _mtime, size, _kind, path in entries:
        if total - freed <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with another pruner
            continue
        removed += 1
        freed += size
    return {"root": root, "max_bytes": max_bytes, "removed": removed,
            "freed_bytes": freed, "remaining_bytes": total - freed}


# -- the generic fan-out -------------------------------------------------------

def _observed_call(func: Callable, spec) -> Dict[str, object]:
    """Run one unit inside a worker, capturing what telemetry needs.

    This is the "workers stream events over the pool's result channel"
    half of the telemetry design: rather than opening a side channel,
    each worker wraps its return value with raw monotonic start/end
    timestamps (system-wide on the hosts we target, so directly
    comparable to the parent's clock), its pid, and any exception — the
    parent replays these as ``started`` / terminal events.  Exceptions
    are captured, not raised, so one failed unit cannot tear down the
    pool before its siblings report.
    """
    t0 = time.monotonic()
    value = error = None
    try:
        value = func(spec)
    except Exception as exc:  # replayed + re-raised by the parent
        error = exc
    return {"value": value, "error": error, "t0": t0,
            "t1": time.monotonic(), "pid": os.getpid()}


def _drain_observed(results: List, monitor,
                    poll_seconds: float = 0.05) -> List[Dict[str, object]]:
    """Collect ``apply_async`` observations, feeding the monitor live.

    Completions are reported to ``monitor.on_complete`` *as they land*
    (completion order — only live progress/heartbeat state depends on
    it); the returned list is input-ordered, so the downstream merge
    stays deterministic.
    """
    observed: List[Optional[Dict[str, object]]] = [None] * len(results)
    pending = set(range(len(results)))
    while pending:
        landed = [i for i in sorted(pending) if results[i].ready()]
        for i in landed:
            pending.discard(i)
            observed[i] = results[i].get()
            monitor.on_complete(i, observed[i])
        monitor.poll()
        if pending and not landed:
            time.sleep(poll_seconds)
    return observed


def fan_out(func: Callable, specs: Sequence, jobs: int,
            profiler: Optional[SelfProfiler] = None,
            phase: str = "fan_out", monitor=None) -> List:
    """Map a picklable ``func`` over ``specs`` with a process pool.

    The shared executor behind :meth:`ExperimentRunner.prefetch` and the
    fault-injection campaign runner: results come back in *input* order
    (never completion order), ``jobs=1`` or a single spec runs in-process
    with no pool, and ``chunksize=1`` deals work finely because specs can
    differ in cost by orders of magnitude.  Each call starts a fresh pool
    and always reaps it: closed and joined on success, terminated and
    joined on any error (KeyboardInterrupt included), so no worker
    outlives the fan-out.

    ``monitor`` (e.g. :class:`repro.obs.events.TelemetryMonitor`) opts a
    call into observed execution: every unit is wrapped by
    :func:`_observed_call`, ``monitor.on_dispatch(i)`` fires as specs
    are submitted, ``monitor.on_complete(i, observation)`` as results
    land, and ``monitor.poll()`` between completion checks (heartbeats,
    stall detection).  Worker exceptions are re-raised parent-side after
    the monitor has seen every unit's fate, preserving the unmonitored
    path's error semantics.  With ``monitor=None`` the pre-telemetry
    code path runs unchanged (``pool.map``) — the zero-cost guarantee.
    """
    if not specs:
        return []
    span = (profiler.phase(phase) if profiler is not None
            else contextlib.nullcontext())
    wrapped = functools.partial(_observed_call, func)
    with span:
        if jobs <= 1 or len(specs) == 1:
            if monitor is None:
                return [func(spec) for spec in specs]
            observed = []
            for i, spec in enumerate(specs):
                monitor.on_dispatch(i)
                obs = wrapped(spec)
                observed.append(obs)
                monitor.on_complete(i, obs)
                monitor.poll()
        else:
            ctx = multiprocessing.get_context(START_METHOD)
            pool = ctx.Pool(processes=min(jobs, len(specs)))
            try:
                if monitor is None:
                    values = pool.map(func, specs, chunksize=1)
                else:
                    handles = []
                    for i, spec in enumerate(specs):
                        handles.append(pool.apply_async(wrapped, (spec,)))
                        monitor.on_dispatch(i)
                    observed = _drain_observed(handles, monitor)
                pool.close()
            except BaseException:
                pool.terminate()
                raise
            finally:
                pool.join()
            if monitor is None:
                return values
    for obs in observed:  # first failure wins, in input order
        if obs["error"] is not None:
            raise obs["error"]
    return [obs["value"] for obs in observed]


# -- sweep cells ---------------------------------------------------------------

def sweep_pairs(systems: Optional[Iterable[str]] = None,
                workloads: Optional[Iterable[str]] = None
                ) -> List[Tuple[str, str]]:
    """The ordered (system, workload) cross-product, canonicalized.

    Workloads vary in the outer loop (matching the figure harnesses'
    reading order) and defaults cover the full Figure 6 grid.
    """
    systems = [canonical_system(s) for s in (systems or all_system_names())]
    workloads = [canonical_workload(w)
                 for w in (workloads or sorted(REGISTRY))]
    return [(s, w) for w in workloads for s in systems]
