"""Pure-Python replica of the memory hierarchy for the compiled path.

The interpreter's :class:`~repro.mem.hierarchy.MemorySystem` keeps its tag
arrays in numpy, which is the right shape for bulk state queries (the
reconfiguration FSM walks ways with slices) but a terrible shape for the
hot path: every ``access()`` call pays numpy scalar dispatch several times
over (``np.nonzero`` on an 8-wide row, ``np.argmin``, fancy indexing), and
backprop alone issues ~557k line requests per cell.  The compiled
evaluator swaps in this module's :class:`FastMemorySystem`, which
reproduces the numpy model's behaviour *exactly*:

* identical LRU clocks, tie-breaks (first matching way, first invalid way,
  first-minimum stamp — the ``np.argmin`` convention), and dirty-bit
  updates, via per-set ``{line: way << 1 | dirty}`` dicts ordered
  oldest-first plus sorted free-way lists.  A packed int entry means a
  fill or a hit allocates nothing;
* identical timing: :meth:`FastMemorySystem.access` is one method body
  that walks L1 → L2 → LLC → DRAM and back (MSHR heaps, the L2 bank
  slot, DRAM service and writebacks, the inclusive invalidation of LLC
  victims, the L2 and L1 fills and their dirty-victim writebacks) in
  the reference model's order, with its float operations in the same
  order, and allocates one :class:`FastCompletion`;
* identical statistics (``level_stats`` / per-cache hit/miss counters /
  Figure 8 vector-port counters).

All arithmetic is double precision either way (``np.float64`` *is* a C
double), so completion times — and therefore total cycle counts — come
out byte-identical.  ``tests/test_compiler.py`` locks this with
differential tests against :class:`MemorySystem`: random address streams
over all three ports, plus targeted streams that reach every branch of
the kernel.

``access`` deliberately stays a per-line entry point on the class (no
per-stream variant, no per-instance closure): it is the boundary at which
the benchmark probe records and replays every request, and the machines'
per-line loops are the only callers.

The fast model supports no instrumentation: it is only ever constructed
for uninstrumented runs (tracer/metrics/attribution all disabled), where
the interpreter's per-access ``if self.tracer.enabled`` guards are dead
code anyway.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig, DramConfig, SystemConfig
from ..errors import MemoryModelError
from ..mem.hierarchy import PORTS
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER


class FastCompletion:
    """Attribute-compatible stand-in for :class:`~repro.mem.hierarchy.Completion`.

    A ``__slots__`` class instantiates several times faster than the
    frozen dataclass; the field set and meaning are identical.
    """

    __slots__ = ("grant", "done", "level", "mshr_stall")

    def __init__(self, grant: float, done: float, level: str,
                 mshr_stall: float) -> None:
        self.grant = grant
        self.done = done
        self.level = level
        self.mshr_stall = mshr_stall


class FastCacheArray:
    """Replica of :class:`~repro.mem.cache.CacheArray` built for probes.

    Per-set ``{line: way << 1 | dirty}`` dicts make tag matching O(1)
    (tags are unique within a set: ``fill_fast`` refreshes instead of
    duplicating) and double as the recency order: valid ways always
    carry *unique* LRU stamps in the numpy model (every touch advances
    the clock), so "first minimum stamp" is simply the
    least-recently-touched line — the dict's first key, when touches
    move entries to the end.  A sorted free-way list keeps the "first
    invalid way" rule.

    Both per-set structures materialise lazily (``None`` until the set
    is first filled): constructing the model costs two ``[None] * sets``
    lists instead of thousands of dicts, which matters because the
    compiled path builds a fresh FastMemorySystem per simulation and
    tiny-workload runs take single-digit milliseconds.

    :meth:`FastMemorySystem.access` inlines ``lookup``, ``fill_fast``
    and ``invalidate``; these methods are the readable statement of the
    same operations on the packed encoding.
    """

    __slots__ = ("config", "sets", "ways", "line_bytes", "_lru", "_free",
                 "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.sets = config.sets
        self.ways = config.ways
        self.line_bytes = config.line_bytes
        #: Per set: resident line -> ``way << 1 | dirty``, ordered
        #: oldest-first; ``None`` until the set is first filled.
        self._lru: List[Optional[Dict[int, int]]] = [None] * self.sets
        #: Per set: invalid way indices, ascending; ``None`` = all free.
        self._free: List[Optional[List[int]]] = [None] * self.sets
        self.hits = 0
        self.misses = 0

    # -- operations ---------------------------------------------------------

    def lookup(self, line_addr: int, is_store: bool = False) -> bool:
        """Probe; on a hit, updates LRU (and dirty for stores)."""
        line = line_addr // self.line_bytes
        lru = self._lru[line % self.sets]
        if lru is not None:
            entry = lru.pop(line, None)
            if entry is not None:
                # reinsert at the end: most recent
                lru[line] = entry | 1 if is_store else entry
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill_fast(self, line_addr: int,
                  dirty: bool) -> Optional[Tuple[int, bool]]:
        """Install a line, evicting the LRU way if the set is full:
        returns ``(victim line address, victim dirty)`` or ``None``."""
        line = line_addr // self.line_bytes
        s = line % self.sets
        lru = self._lru[s]
        if lru is None:
            lru = self._lru[s] = {}
            free = self._free[s] = list(range(self.ways))
        else:
            entry = lru.pop(line, None)
            if entry is not None:
                # already present (e.g. racing fills) — refresh
                lru[line] = entry | 1 if dirty else entry
                return None
            free = self._free[s]
        evicted = None
        if free:
            way = free.pop(0)    # lowest invalid index, as the scan
        else:
            old_line = next(iter(lru))  # oldest touch
            old = lru.pop(old_line)
            way = old >> 1
            evicted = (old_line * self.line_bytes, bool(old & 1))
        lru[line] = way << 1 | 1 if dirty else way << 1
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was dirty.

        Like the numpy model, invalidation does not advance the LRU clock.
        """
        line = line_addr // self.line_bytes
        s = line % self.sets
        lru = self._lru[s]
        if lru is None:
            return False
        entry = lru.pop(line, None)
        if entry is None:
            return False
        # A resident line implies fill ran on this set, so _free exists.
        insort(self._free[s], entry >> 1)
        return bool(entry & 1)

    # -- bulk state used by reconfiguration ---------------------------------

    def resident_lines(self, ways: Optional[slice] = None) -> Tuple[int, int]:
        """(valid lines, dirty lines) resident in the selected ways."""
        cols = (range(self.ways) if ways is None
                else range(*ways.indices(self.ways)))
        wanted = frozenset(cols)
        total = dirty = 0
        for lru in self._lru:
            if not lru:
                continue
            for entry in lru.values():
                if entry >> 1 in wanted:
                    total += 1
                    dirty += entry & 1
        return total, dirty

    def flush_ways(self, ways: slice) -> Tuple[int, int]:
        """Invalidate the selected ways; returns (lines walked, dirty).

        This is the EVE spawn walk: the freed ways go back on each set's
        free list in ascending order, so later fills reissue them in way
        order exactly as the numpy model's first-invalid-way scan does.
        """
        total, dirty = self.resident_lines(ways)
        wanted = frozenset(range(*ways.indices(self.ways)))
        for s, lru in enumerate(self._lru):
            if not lru:
                continue
            doomed = [(line, entry >> 1) for line, entry in lru.items()
                      if entry >> 1 in wanted]
            if doomed:
                free = self._free[s]
                for line, way in doomed:
                    del lru[line]
                    free.append(way)
                free.sort()
        return total, dirty

    def warm_fraction(self) -> float:
        resident = sum(len(lru) for lru in self._lru if lru)
        return resident / (self.sets * self.ways)

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict:
        accesses = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.misses / accesses if accesses else 0.0,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class FastMshrPool:
    """State and statistics of :class:`~repro.mem.mshr.MshrPool` without
    the attribution hook.  :meth:`FastMemorySystem.access` runs the
    token-heap acquire/release on ``_busy`` inline."""

    __slots__ = ("size", "name", "_busy", "acquires", "stall_cycles",
                 "stalled_acquires", "occupancy_hwm")

    def __init__(self, size: int, name: str = "mshr") -> None:
        if size <= 0:
            raise MemoryModelError(f"{name}: pool size must be positive")
        self.size = size
        self.name = name
        self._busy: List[float] = []  # heap of release times
        self.acquires = 0
        self.stall_cycles = 0.0
        self.stalled_acquires = 0
        self.occupancy_hwm = 0

    def stats(self) -> dict:
        return {
            "size": self.size,
            "acquires": self.acquires,
            "stalled_acquires": self.stalled_acquires,
            "stall_cycles": self.stall_cycles,
            "occupancy_hwm": self.occupancy_hwm,
        }

    def reset_stats(self) -> None:
        self.acquires = 0
        self.stall_cycles = 0.0
        self.stalled_acquires = 0
        self.occupancy_hwm = 0


class FastDramChannel:
    """State and statistics of :class:`~repro.mem.dram.DramChannel`
    without tracer/attribution branches; ``transfer_cycles`` is
    precomputed and :meth:`FastMemorySystem.access` runs the service and
    writeback recurrences inline."""

    __slots__ = ("config", "line_bytes", "transfer_cycles", "access_latency",
                 "_next_free", "requests", "writebacks", "busy_cycles")

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        self.transfer_cycles = line_bytes / (config.bytes_per_cycle
                                             * config.channels)
        self.access_latency = config.access_latency
        self._next_free = 0.0
        self.requests = 0
        self.writebacks = 0
        self.busy_cycles = 0.0

    def utilisation(self, elapsed: float) -> float:
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0

    def stats(self, elapsed: float = 0.0) -> dict:
        return {
            "requests": self.requests,
            "writebacks": self.writebacks,
            "busy_cycles": self.busy_cycles,
            "utilisation": self.utilisation(elapsed),
        }

    def reset_stats(self) -> None:
        self.requests = 0
        self.writebacks = 0
        self.busy_cycles = 0.0
        self._next_free = 0.0


class FastMemorySystem:
    """Drop-in, uninstrumented replica of :class:`MemorySystem`.

    ``access`` is a one-frame transcription of the numpy model's
    ``_from_l1`` → ``_from_l2`` → ``_from_llc`` → ``_from_dram`` chain
    with the always-false ``tracer.enabled`` / ``metrics.enabled``
    branches removed.  All three levels must share one line size (every
    shipped configuration does; the trace compiler's hoisted line lists
    assume it too), so the walk keys every level by one line number.
    """

    def __init__(self, config: SystemConfig, tracer=None, metrics=None,
                 attribution=None) -> None:
        if any(hook is not None and getattr(hook, "enabled", True)
               for hook in (tracer, metrics, attribution)):
            raise MemoryModelError(
                "FastMemorySystem does not support instrumentation; "
                "use MemorySystem for traced/metered/attributed runs")
        line_sizes = {config.l1d.line_bytes, config.l2.line_bytes,
                      config.llc.line_bytes}
        if len(line_sizes) != 1:
            raise MemoryModelError(
                "FastMemorySystem needs one line size across L1D/L2/LLC, "
                f"got {sorted(line_sizes)}")
        self.config = config
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.attr = NULL_ATTRIBUTION
        self.l1d = FastCacheArray(config.l1d)
        self.l2 = FastCacheArray(config.l2)
        self.llc = FastCacheArray(config.llc)
        self.l1d_mshrs = FastMshrPool(config.l1d.mshrs, "l1d")
        self.l2_mshrs = FastMshrPool(config.l2.mshrs, "l2")
        self.llc_mshrs = FastMshrPool(config.llc.mshrs, "llc")
        self.dram = FastDramChannel(config.dram, config.llc.line_bytes)
        self._l2_bank_free = [0.0] * config.l2.banks
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
        # Hoisted hot constants (attribute loads add up at ~2M calls).
        self._line_bytes = config.l1d.line_bytes
        self._l2_banks = config.l2.banks
        self._l1_hit = config.l1d.hit_latency
        self._l2_hit = config.l2.hit_latency
        self._llc_hit = config.llc.hit_latency

    # -- public port ----------------------------------------------------------

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> FastCompletion:
        """Issue one cache-line request on the given port.

        The walk runs outward-in (probe, MSHR acquire, next level) and
        then inward-out (fill, release), so ``grant``/``stall`` of the
        outermost missing level wrap the inner ones exactly as the
        reference chain's return values do.  Every fill below installs a
        line its own level just missed on: nothing between that probe
        and the fill inserts into the level (LLC victims only leave
        inner levels), so the fills skip ``fill_fast``'s refresh check.
        """
        line = line_addr // self._line_bytes
        l1_missed = l2_missed = False
        if port == "l1":
            l1d = self.l1d
            lru = l1d._lru[line % l1d.sets]
            if lru is not None:
                entry = lru.pop(line, None)
                if entry is not None:
                    lru[line] = entry | 1 if is_store else entry
                    l1d.hits += 1
                    return FastCompletion(now, now + self._l1_hit, "l1", 0.0)
            l1d.misses += 1
            l1_missed = True
            pool = self.l1d_mshrs
            busy = pool._busy
            while busy and busy[0] <= now:
                heappop(busy)
            if len(busy) < pool.size:
                grant1 = now
                stall1 = 0.0
            else:
                grant1 = busy[0]
                while busy and busy[0] <= grant1:
                    heappop(busy)
                stall1 = grant1 - now
                pool.stall_cycles += stall1
                pool.stalled_acquires += 1
            pool.acquires += 1
            held = len(busy) + 1
            if held > pool.occupancy_hwm:
                pool.occupancy_hwm = held
            at2 = grant1 + self._l1_hit
            store2 = False
        elif port == "l2":
            at2 = now
            store2 = is_store
        elif port == "llc":
            at3 = now
            store3 = is_store
        else:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})")

        l2 = self.l2
        if port != "llc":
            # L2 bank slot: pipelined, 1-cycle occupancy.
            bank_free = self._l2_bank_free
            bank = line % self._l2_banks
            start = bank_free[bank]
            if at2 > start:
                start = at2
            bank_free[bank] = start + 1.0
            hit = False
            lru = l2._lru[line % l2.sets]
            if lru is not None:
                entry = lru.pop(line, None)
                if entry is not None:
                    lru[line] = entry | 1 if store2 else entry
                    l2.hits += 1
                    hit = True
            if hit:
                grant = at2
                done = start + self._l2_hit
                level = "l2"
                stall = start - at2
            else:
                l2.misses += 1
                l2_missed = True
                pool = self.l2_mshrs
                busy = pool._busy
                while busy and busy[0] <= start:
                    heappop(busy)
                if len(busy) < pool.size:
                    grant2 = start
                    stall2 = 0.0
                else:
                    grant2 = busy[0]
                    while busy and busy[0] <= grant2:
                        heappop(busy)
                    stall2 = grant2 - start
                    pool.stall_cycles += stall2
                    pool.stalled_acquires += 1
                pool.acquires += 1
                held = len(busy) + 1
                if held > pool.occupancy_hwm:
                    pool.occupancy_hwm = held
                at3 = grant2 + self._l2_hit
                store3 = False

        llc = self.llc
        if l2_missed or port == "llc":
            hit = False
            lru = llc._lru[line % llc.sets]
            if lru is not None:
                entry = lru.pop(line, None)
                if entry is not None:
                    lru[line] = entry | 1 if store3 else entry
                    llc.hits += 1
                    hit = True
            if hit:
                grant = at3
                done = at3 + self._llc_hit
                level = "llc"
                stall = 0.0
            else:
                llc.misses += 1
                pool = self.llc_mshrs
                busy = pool._busy
                while busy and busy[0] <= at3:
                    heappop(busy)
                if len(busy) < pool.size:
                    grant = at3
                    stall = 0.0
                else:
                    grant = busy[0]
                    while busy and busy[0] <= grant:
                        heappop(busy)
                    stall = grant - at3
                    pool.stall_cycles += stall
                    pool.stalled_acquires += 1
                pool.acquires += 1
                held = len(busy) + 1
                if held > pool.occupancy_hwm:
                    pool.occupancy_hwm = held
                # DRAM service of the demand line.
                dram = self.dram
                transfer = dram.transfer_cycles
                next_free = dram._next_free
                busy_cycles = dram.busy_cycles
                at = grant + self._llc_hit
                begin = at if at > next_free else next_free
                next_free = begin + transfer
                dram.requests += 1
                busy_cycles += transfer
                done = begin + dram.access_latency
                level = "dram"
                # LLC fill; a victim leaves the inner levels too
                # (inclusive), and dirty copies write back to DRAM.
                s = line % llc.sets
                lru = llc._lru[s]
                if lru is None:
                    lru = llc._lru[s] = {}
                    free = llc._free[s] = list(range(llc.ways))
                else:
                    free = llc._free[s]
                if free:
                    lru[line] = free.pop(0) << 1 | store3
                else:
                    victim = next(iter(lru))
                    old = lru.pop(victim)
                    lru[line] = old & -2 | store3
                    writebacks = old & 1
                    inner = l2._lru[victim % l2.sets]
                    if inner is not None:
                        entry = inner.pop(victim, None)
                        if entry is not None:
                            insort(l2._free[victim % l2.sets], entry >> 1)
                            writebacks += entry & 1
                    l1d = self.l1d
                    inner = l1d._lru[victim % l1d.sets]
                    if inner is not None:
                        entry = inner.pop(victim, None)
                        if entry is not None:
                            insort(l1d._free[victim % l1d.sets], entry >> 1)
                    while writebacks:
                        begin = done if done > next_free else next_free
                        next_free = begin + transfer
                        dram.requests += 1
                        dram.writebacks += 1
                        busy_cycles += transfer
                        writebacks -= 1
                dram._next_free = next_free
                dram.busy_cycles = busy_cycles
                heappush(busy, done)

            if l2_missed:
                # L2 fill; a dirty victim writes back into the LLC.
                s = line % l2.sets
                lru = l2._lru[s]
                if lru is None:
                    lru = l2._lru[s] = {}
                    free = l2._free[s] = list(range(l2.ways))
                else:
                    free = l2._free[s]
                if free:
                    lru[line] = free.pop(0) << 1 | store2
                else:
                    victim = next(iter(lru))
                    old = lru.pop(victim)
                    lru[line] = old & -2 | store2
                    if old & 1:
                        s = victim % llc.sets
                        lru = llc._lru[s]
                        entry = lru.pop(victim, None) if lru else None
                        if entry is not None:
                            lru[victim] = entry | 1
                            llc.hits += 1
                        else:
                            llc.misses += 1
                            if lru is None:
                                lru = llc._lru[s] = {}
                                free = llc._free[s] = list(range(llc.ways))
                            else:
                                free = llc._free[s]
                            if free:
                                lru[victim] = free.pop(0) << 1 | 1
                            else:
                                way = lru.pop(next(iter(lru))) >> 1
                                lru[victim] = way << 1 | 1
                heappush(self.l2_mshrs._busy, done)
                grant = grant2
                stall = stall2 + stall

        if l1_missed:
            # L1 fill; a dirty victim writes back into the L2.
            s = line % l1d.sets
            lru = l1d._lru[s]
            if lru is None:
                lru = l1d._lru[s] = {}
                free = l1d._free[s] = list(range(l1d.ways))
            else:
                free = l1d._free[s]
            if free:
                lru[line] = free.pop(0) << 1 | is_store
            else:
                victim = next(iter(lru))
                old = lru.pop(victim)
                lru[line] = old & -2 | is_store
                if old & 1:
                    s = victim % l2.sets
                    lru = l2._lru[s]
                    entry = lru.pop(victim, None) if lru else None
                    if entry is not None:
                        lru[victim] = entry | 1
                        l2.hits += 1
                    else:
                        l2.misses += 1
                        if lru is None:
                            lru = l2._lru[s] = {}
                            free = l2._free[s] = list(range(l2.ways))
                        else:
                            free = l2._free[s]
                        if free:
                            lru[victim] = free.pop(0) << 1 | 1
                        else:
                            way = lru.pop(next(iter(lru))) >> 1
                            lru[victim] = way << 1 | 1
            heappush(self.l1d_mshrs._busy, done)
            return FastCompletion(grant1, done, level, stall1 + stall)
        if port == "llc":
            self.vector_requests += 1
            self.vector_mshr_stall += stall
            if stall > 0:
                self.vector_stalled_requests += 1
        return FastCompletion(grant, done, level, stall)

    # -- statistics -----------------------------------------------------------

    def level_stats(self, elapsed: float = 0.0) -> dict:
        stats = {
            "l1d": (self.l1d.hits, self.l1d.misses),
            "l2": (self.l2.hits, self.l2.misses),
            "llc": (self.llc.hits, self.llc.misses),
            "dram": self.dram.stats(elapsed),
        }
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            stats[f"{pool.name}_mshr"] = pool.stats()
        return stats

    def populate_metrics(self, elapsed: float = 0.0) -> None:
        """No-op: the fast model only runs uninstrumented."""

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.llc):
            cache.reset_stats()
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            pool.reset_stats()
        self.dram.reset_stats()
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
