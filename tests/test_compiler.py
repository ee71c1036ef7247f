"""Trace-compiler equivalence suite.

The compiler's contract is that it is invisible in the results.  A
compiled run iterates the same events in the same order as the
interpreter and only takes each memory event's request lines from the
hoisted table, so cycles, instruction counts, and memory-system
statistics must be byte-identical to the interpreted path — across every
workload x system cell, and at the component level for
:class:`FastMemorySystem` against the reference
:class:`~repro.mem.hierarchy.MemorySystem`.  Compiled and uncompiled
results must also never collide in the sweep cache.
"""

import glob
import os

import numpy as np
import pytest

from repro.compiler import compile_trace, compiler_descriptor
from repro.compiler.memengine import FastMemorySystem
from repro.config import make_system
from repro.errors import MemoryModelError
from repro.experiments import ExperimentRunner
from repro.experiments.parallel import params_fingerprint
from repro.isa.instructions import MemAccess, request_lines
from repro.mem.hierarchy import MemorySystem
from repro.workloads import REGISTRY

#: Tiny problem sizes, same shape the conftest `tiny_runner` uses.
TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}


# -- compiled vs interpreted machine equivalence ------------------------------


@pytest.fixture(scope="module")
def interpreted_runner():
    return ExperimentRunner(params_override=TINY_PARAMS,
                            compile_traces=False)


@pytest.fixture(scope="module")
def compiled_runner():
    return ExperimentRunner(params_override=TINY_PARAMS,
                            compile_traces=True)


class TestCompiledMachineEquivalence:
    @pytest.mark.parametrize("system", ["IO", "O3+EVE-4"])
    @pytest.mark.parametrize("workload", sorted(REGISTRY))
    def test_cycles_and_stats_are_byte_identical(self, system, workload,
                                                 interpreted_runner,
                                                 compiled_runner):
        reference = interpreted_runner.run(system, workload)
        compiled = compiled_runner.run(system, workload)
        assert compiled.cycles == reference.cycles
        assert compiled.instructions == reference.instructions
        assert compiled.mem_stats == reference.mem_stats

    def test_instrumented_runs_fall_back_to_the_interpreter(self,
                                                            compiled_runner):
        from repro.obs import MetricsRegistry
        plain = compiled_runner.run("O3+EVE-4", "vvadd")
        metrics = MetricsRegistry()
        instrumented = compiled_runner.run("O3+EVE-4", "vvadd",
                                           metrics=metrics)
        assert instrumented.cycles == plain.cycles
        assert metrics.flat()


# -- FastMemorySystem differential --------------------------------------------


def _stream(seed, count=3000):
    """A deterministic access stream with enough reuse to exercise hits,
    evictions, dirty writebacks, and MSHR contention on every port."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 256, size=count) * 64
    cold = rng.integers(0, 1 << 18, size=count) * 64
    lines = np.where(rng.random(count) < 0.6, hot, cold)
    stores = rng.random(count) < 0.3
    ports = rng.choice(["l1", "l2", "llc"], size=count)
    gaps = rng.integers(0, 3, size=count)
    return lines.tolist(), stores.tolist(), ports.tolist(), gaps.tolist()


class TestFastMemorySystem:
    @pytest.mark.parametrize("system,seed", [("IO", 3), ("O3+EVE-4", 4)])
    def test_matches_the_reference_model_access_for_access(self, system,
                                                           seed):
        config = make_system(system)
        reference = MemorySystem(config)
        fast = FastMemorySystem(config)
        lines, stores, ports, gaps = _stream(seed)
        now = 0.0
        for line, store, port, gap in zip(lines, stores, ports, gaps):
            expect = reference.access(now, line, store, port)
            got = fast.access(now, line, store, port)
            assert (got.grant, got.done, got.level, got.mshr_stall) == \
                (expect.grant, expect.done, expect.level, expect.mshr_stall)
            now = max(now + gap, expect.done - 40.0)
        assert fast.level_stats(elapsed=now) == \
            reference.level_stats(elapsed=now)
        assert fast.vector_requests == reference.vector_requests
        assert fast.vector_mshr_stall == reference.vector_mshr_stall
        assert fast.vector_stalled_requests == \
            reference.vector_stalled_requests

    def test_matches_reconfiguration_views_and_flush(self):
        config = make_system("O3+EVE-4")
        reference = MemorySystem(config)
        fast = FastMemorySystem(config)
        lines, stores, ports, gaps = _stream(seed=7, count=2000)
        now = 0.0
        for line, store, port, gap in zip(lines, stores, ports, gaps):
            expect = reference.access(now, line, store, port)
            fast.access(now, line, store, port)
            now = max(now + gap, expect.done - 40.0)

        doomed = slice(config.llc.ways // 2, config.llc.ways)
        assert fast.llc.resident_lines(doomed) == \
            reference.llc.resident_lines(doomed)
        assert fast.llc.warm_fraction() == reference.llc.warm_fraction()
        assert fast.llc.flush_ways(doomed) == reference.llc.flush_ways(doomed)

        # Behaviour after the flush must track too (victim selection
        # depends on the freed ways being reissued in way order).
        for line, store, port, gap in zip(*_stream(seed=8, count=1000)):
            expect = reference.access(now, line, store, port)
            got = fast.access(now, line, store, port)
            assert (got.done, got.level) == (expect.done, expect.level)
            now = max(now + gap, expect.done - 40.0)
        assert fast.level_stats(now) == reference.level_stats(now)

    def test_reset_stats_matches_the_reference(self):
        config = make_system("IO")
        reference = MemorySystem(config)
        fast = FastMemorySystem(config)
        for line, store, port, _ in zip(*_stream(seed=9, count=500)):
            reference.access(0.0, line, store, port)
            fast.access(0.0, line, store, port)
        reference.reset_stats()
        fast.reset_stats()
        assert fast.level_stats(0.0) == reference.level_stats(0.0)

    def test_refuses_instrumentation_hooks(self):
        from repro.obs import MetricsRegistry
        config = make_system("IO")
        with pytest.raises(MemoryModelError):
            FastMemorySystem(config, metrics=MetricsRegistry())

    def test_refuses_mixed_line_sizes(self):
        from dataclasses import replace
        config = make_system("IO")
        mixed = replace(config, l2=replace(config.l2, line_bytes=128))
        with pytest.raises(MemoryModelError, match="line size"):
            FastMemorySystem(mixed)

    # -- targeted streams: every branch of the one-frame kernel ---------------
    #
    # Geometry of "IO" (and "O3+EVE-4" apart from its 4-way L2): L1D 128
    # sets x 4 ways, 16 MSHRs; L2 1024 sets x 8 ways, 8 banks, 32 MSHRs;
    # LLC 2048 sets x 16 ways, 32 MSHRs.  Lines are numbered, not
    # addressed: ``_lockstep`` multiplies by the 64-byte line size.

    @staticmethod
    def _models(system):
        config = make_system(system)
        return FastMemorySystem(config), MemorySystem(config)

    @staticmethod
    def _lockstep(models, steps):
        """Drive the fast and the reference model with the same
        ``(now, line, is_store, port)`` steps, asserting every
        completion equal; returns ``(fast, reference, completions)``."""
        fast, reference = models
        completions = []
        for now, line, store, port in steps:
            expect = reference.access(now, line * 64, store, port)
            got = fast.access(now, line * 64, store, port)
            assert (got.grant, got.done, got.level, got.mshr_stall) == \
                (expect.grant, expect.done, expect.level,
                 expect.mshr_stall), (now, line, store, port)
            completions.append(got)
        assert fast.level_stats(1.0) == reference.level_stats(1.0)
        assert (fast.vector_requests, fast.vector_mshr_stall,
                fast.vector_stalled_requests) == \
            (reference.vector_requests, reference.vector_mshr_stall,
             reference.vector_stalled_requests)
        return fast, reference, completions

    def test_mshr_saturation_on_all_three_pools(self):
        burst = [(0.0, 10_000 + i, i % 3 == 0, "l1") for i in range(40)]
        burst += [(5.0, 20_000 + i, False, "l2") for i in range(80)]
        burst += [(9.0, 30_000 + i, i % 2 == 0, "llc") for i in range(80)]
        fast, _, _ = self._lockstep(self._models("IO"), burst)
        for pool in (fast.l1d_mshrs, fast.l2_mshrs, fast.llc_mshrs):
            assert pool.stalled_acquires > 0, pool.name
            assert pool.occupancy_hwm == pool.size, pool.name
        assert fast.vector_stalled_requests > 0

    def test_llc_victim_dirty_in_l2_writes_back_twice(self):
        victim = 5
        steps = [(0.0, victim, True, "llc"),    # LLC copy dirty
                 (200.0, victim, True, "l2")]   # LLC hit, L2 copy dirty
        # 16 more lines into the victim's LLC set, on the port that does
        # not touch L2: the victim is the set's oldest entry.
        steps += [(400.0 + 200.0 * k, victim + k * 2048, False, "llc")
                  for k in range(1, 17)]
        fast, _, completions = self._lockstep(self._models("IO"), steps)
        assert completions[1].level == "llc"
        assert fast.dram.writebacks == 2
        assert fast.l2.resident_lines() == (0, 0)

    def test_l1_dirty_victim_absent_from_l2_is_refilled_dirty(self):
        line = 7
        steps = [(0.0, line, True, "l1")]       # dirty in L1 only
        # Push the line out of its L2 set through the L2 port (L1 keeps
        # its copy: L2 evictions are not inclusive).
        steps += [(200.0 * k, line + k * 1024, False, "l2")
                  for k in range(1, 9)]
        # Then out of its L1 set: the dirty victim misses in L2.
        steps += [(2000.0 + 200.0 * k, line + k * 128, False, "l1")
                  for k in range(1, 5)]
        fast, reference, _ = self._lockstep(self._models("IO"), steps)
        assert fast.l2.resident_lines() == reference.l2.resident_lines()
        assert fast.l2.resident_lines()[1] == 1   # the refilled victim

    def test_l2_bank_conflicts_delay_hits_and_misses(self):
        same_bank = [8, 16, 24, 32]              # line % 8 == 0
        steps = [(0.0, line, False, "l2") for line in same_bank]
        steps += [(1000.0, line, False, "l2") for line in same_bank]
        steps += [(1000.0, 40 + 8 * k, k % 2 == 0, "l2") for k in range(4)]
        _, _, completions = self._lockstep(self._models("IO"), steps)
        hits = completions[4:8]
        assert [c.level for c in hits] == ["l2"] * 4
        assert [c.mshr_stall for c in hits] == [0.0, 1.0, 2.0, 3.0]
        # Misses on the same bank queue behind the hits: the bank delay
        # shows in the MSHR grant time.
        misses = completions[8:]
        assert [c.level for c in misses] == ["dram"] * 4
        assert [c.grant for c in misses] == [1004.0, 1005.0, 1006.0, 1007.0]

    def test_spawn_flush_reissues_freed_ways_in_order(self):
        from repro.mem.reconfig import spawn_cost
        models = self._models("O3+EVE-4")
        lines, stores, ports, gaps = _stream(seed=11, count=1500)
        steps, now = [], 0.0
        for line, store, port, gap in zip(lines, stores, ports, gaps):
            steps.append((now, line // 64, store, port))
            now += gap + 30.0
        fast, reference, _ = self._lockstep(models, steps)
        assert spawn_cost(fast.l2) == spawn_cost(reference.l2)
        # Refill whole L2 sets through the freed ways, dirty and clean.
        steps = [(now + 100.0 * k, s + k * 1024, k % 2 == 1, port)
                 for k in range(1, 7) for s in (3, 700)
                 for port in ("l1", "l2")]
        self._lockstep(models, steps)
        assert fast.l2.resident_lines() == reference.l2.resident_lines()

    def test_inclusive_invalidations_free_l2_ways_in_way_order(self):
        base = 3
        # L2 set 3 gets ways 0..7; even k share LLC set 3, odd k share
        # LLC set 1027.
        owners = [base + k * 1024 for k in range(8)]
        steps = [(100.0 * k, line, False, "l2")
                 for k, line in enumerate(owners)]
        t = 1000.0
        # Make way 5's line, then way 2's, the oldest of its LLC set and
        # evict it: way 5 is freed before way 2.
        for doomed, llc_set in ((5, base + 1024), (2, base)):
            for k in range(doomed % 2, 8, 2):
                if k != doomed:
                    steps.append((t, owners[k], False, "llc"))
                    t += 100.0
            for j in range(4, 17):             # lines no owner uses
                steps.append((t, llc_set + j * 2048, False, "llc"))
                t += 100.0
        # A refill must take way 2 (the first invalid way), not way 5.
        steps.append((t, base + 9 * 1024, False, "l2"))
        fast, reference, _ = self._lockstep(self._models("IO"), steps)
        assert fast.l2.resident_lines() == (7, 0)
        assert fast.l2.resident_lines(slice(4, 8)) == \
            reference.l2.resident_lines(slice(4, 8)) == (3, 0)


class TestFastCacheArray:
    """The packed-entry array methods against the numpy reference."""

    def test_lookup_fill_invalidate_match_cache_array(self):
        from repro.config import CacheConfig
        from repro.mem.cache import CacheArray
        from repro.compiler.memengine import FastCacheArray
        config = CacheConfig("T", 4 * 4 * 64, ways=4, hit_latency=1,
                             mshrs=1)
        fast, reference = FastCacheArray(config), CacheArray(config)
        rng = np.random.default_rng(5)
        for op, line, flag in zip(rng.integers(0, 3, 3000),
                                  rng.integers(0, 40, 3000),
                                  rng.random(3000) < 0.4):
            addr, flag = int(line) * 64, bool(flag)
            if op == 0:
                assert fast.lookup(addr, flag) == reference.lookup(addr, flag)
            elif op == 1:
                evicted = reference.fill(addr, dirty=flag)
                expect = (None if evicted is None
                          else (evicted.line_addr, evicted.dirty))
                assert fast.fill_fast(addr, flag) == expect
            else:
                assert fast.invalidate(addr) == reference.invalidate(addr)
            assert fast.resident_lines() == reference.resident_lines()
        assert fast.stats() == reference.stats()
        assert fast.flush_ways(slice(2, 4)) == \
            reference.flush_ways(slice(2, 4))
        assert fast.resident_lines() == reference.resident_lines()


# -- the per-line memory entry point is never bypassed ------------------------


def _hoisted_requests(compiled):
    """Line requests in a compiled trace's hoisted lists (scalar blocks
    hold one list per access pattern)."""
    total = 0
    for entry in compiled.lines.values():
        if entry and isinstance(entry[0], list):
            total += sum(len(pattern) for pattern in entry)
        else:
            total += len(entry)
    return total


@pytest.mark.parametrize("system",
                         ["IO", "O3", "O3+IV", "O3+DV", "O3+EVE-4"])
@pytest.mark.parametrize("workload", ["backprop", "pathfinder"])
def test_every_hoisted_line_is_one_fast_access_call(system, workload,
                                                    monkeypatch):
    """Each hoisted line request reaches ``FastMemorySystem.access``
    exactly once: the benchmark probe records memory work at that
    method, so a path that bypassed it would go unmeasured."""
    from repro.experiments.systems import build_machine
    machine = build_machine(system)
    runner = ExperimentRunner(params_override=TINY_PARAMS)
    trace = runner.trace_for(system, workload)
    compiled = compile_trace(trace)
    calls = []
    original = FastMemorySystem.access

    def counting(mem, now, line_addr, is_store, port="l1"):
        calls.append(line_addr)
        return original(mem, now, line_addr, is_store, port)

    monkeypatch.setattr(FastMemorySystem, "access", counting)
    machine.run(trace, compiled=compiled)
    assert isinstance(machine.mem, FastMemorySystem)
    assert len(calls) == _hoisted_requests(compiled) > 0


def test_request_lines_per_element_and_per_distinct_line():
    """Strided/indexed streams issue one request per element (repeats
    kept); the rest one per distinct line, in first-touch order."""
    pattern = MemAccess(addresses=np.array([200, 8, 136, 12, 64]))
    assert request_lines(pattern, True) == [192, 0, 128, 0, 64]
    assert request_lines(pattern, False) == [192, 0, 128, 64]
    assert all(type(line) is int for line in request_lines(pattern, True))


# -- compiled and uncompiled results never collide ----------------------------


class TestCacheDistinctness:
    def test_compiler_descriptor_shapes(self):
        assert compiler_descriptor(False) is None
        assert compiler_descriptor(True) == {"compiler_version": 2}

    def test_fingerprints_differ_by_compiler_descriptor(self):
        bare = params_fingerprint("vvadd", TINY_PARAMS)
        compiled = params_fingerprint("vvadd", TINY_PARAMS,
                                      compiler=compiler_descriptor(True))
        assert bare != compiled
        assert compiled == params_fingerprint(
            "vvadd", TINY_PARAMS, compiler=compiler_descriptor(True))

    def test_compile_modes_keep_cache_distinct(self, tmp_path):
        root = str(tmp_path / "cache")

        def cell(compile_traces):
            return ExperimentRunner(
                params_override=TINY_PARAMS, verify=False, cache_root=root,
                compile_traces=compile_traces).cell("IO", "vvadd")

        compiled = cell(True)
        assert compiled["cache"]["result"] == "miss"
        # The uncompiled run must MISS the compiled run's cache entry.
        interpreted = cell(False)
        assert interpreted["cache"]["result"] == "miss"
        # ... while sharing the compiler-independent trace pickle.
        assert interpreted["cache"]["trace"] == "hit"
        assert interpreted["result"].cycles == compiled["result"].cycles
        # Each mode hits its own entry on re-run; the trace pickle is
        # shared (traces are compiler-independent).
        assert cell(True)["cached"] is True
        assert cell(False)["cached"] is True
        results = glob.glob(os.path.join(root, "results", "**", "*.pkl"),
                            recursive=True)
        traces = glob.glob(os.path.join(root, "traces", "*.pkl"))
        assert len(results) == 2
        assert len(traces) == 1
