"""Trace-compiler equivalence suite.

The compiler's contract has two halves, and this module tests both:

* **Timing is untouched.**  A compiled run replays every original event
  in original order, so cycles, instruction counts, and memory-system
  statistics must be byte-identical to the interpreted path — across
  every workload x system cell, across the fuzz corpus at every segment
  width, and at the component level for :class:`FastMemorySystem`
  against the reference :class:`~repro.mem.hierarchy.MemorySystem`.

* **Analysis is conservative.**  Dead-op elimination produces the
  checker-facing view; its findings must be exactly the original
  findings minus the eliminated sites (the known-dirty corpus cases
  ``mask_merge`` and ``strided`` anchor this), the block schedule must
  respect every dependence edge, and compiled/uncompiled results must
  never collide in the sweep cache.
"""

import glob
import os

import numpy as np
import pytest

from repro.analysis import check_trace
from repro.analysis.depgraph import build_depgraph
from repro.compiler import (CompilerConfig, compile_trace,
                            compiler_descriptor, eliminate_dead_ops,
                            schedule_blocks, verify_dce_findings)
from repro.compiler.blocks import event_kind
from repro.compiler.memengine import FastMemorySystem
from repro.compiler.passes import DceResult
from repro.config import make_system
from repro.errors import CompilerError, MemoryModelError
from repro.experiments import ExperimentRunner
from repro.experiments.parallel import params_fingerprint, simulate_cell
from repro.faults import fuzz
from repro.faults.fuzz import (FUZZ_WIDTHS, compare_runs, generate_case,
                               run_dut, run_oracle)
from repro.isa.intrinsics import VectorContext
from repro.mem.hierarchy import MemorySystem
from repro.workloads import REGISTRY

#: Tiny problem sizes, same shape the conftest `tiny_runner` uses.
TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
CORPUS_IDS = [os.path.splitext(os.path.basename(p))[0] for p in CORPUS]

#: Corpus cases whose traces legitimately fail ``repro check`` with
#: dead-write errors (see test_analysis_corpus) — the satellite's
#: regression anchors for the DCE-vs-checker invariant.
KNOWN_DIRTY = ("mask_merge", "strided")


def corpus_trace(name):
    """Build the recorded trace of one corpus case (functional path)."""
    case = fuzz.load_case(os.path.join(CORPUS_DIR, f"{name}.json"))
    ctx = VectorContext(case.vlmax, name=name)
    bufs = {buf_name: ctx.vm.alloc_i32(
                buf_name, np.array(vals, dtype=np.int64).astype(np.int32))
            for buf_name, vals in case.inputs.items()}
    ctx.setvl(case.avl)
    slots = []
    for op in case.ops:
        slots.append(fuzz._apply(ctx, op, slots, bufs))
    return ctx.finalize_trace()


# -- satellite 3: DCE never contradicts `repro check` -------------------------


class TestDeadOpElimination:
    @pytest.mark.parametrize("name", KNOWN_DIRTY)
    def test_known_dirty_cases_compile_clean_in_strict_mode(self, name):
        trace = corpus_trace(name)
        original = [f for f in check_trace(trace) if f.severity == "error"]
        assert original and {f.rule for f in original} == {"dead-write"}

        compiled = compile_trace(trace, CompilerConfig(strict=True))
        assert compiled.dce_ok
        # Every original finding is anchored at an eliminated site ...
        assert {f.index for f in original} <= set(compiled.eliminated)
        # ... so the compiled view carries no findings of its own.
        assert [f for f in check_trace(compiled.optimized)
                if f.severity == "error"] == []

    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_findings_invariant_holds_across_the_corpus(self, name):
        trace = corpus_trace(name)
        dce = eliminate_dead_ops(trace)
        ok, missing, unexpected = verify_dce_findings(trace, dce)
        assert ok, (missing, unexpected)

    def test_index_map_reconstructs_the_survivors(self):
        trace = corpus_trace("mask_merge")
        dce = eliminate_dead_ops(trace)
        assert dce.eliminated and dce.rounds >= 1
        assert set(dce.eliminated).isdisjoint(dce.index_map)
        assert len(dce.eliminated) + len(dce.index_map) == len(trace.events)
        for orig, new in dce.index_map.items():
            assert dce.trace.events[new] is trace.events[orig]

    def test_elimination_reaches_a_fixpoint(self):
        trace = corpus_trace("strided")
        once = eliminate_dead_ops(trace)
        again = eliminate_dead_ops(once.trace)
        assert again.eliminated == () and again.rounds == 0

    def test_strict_gate_raises_on_a_lost_finding(self):
        # A doctored result claiming nothing was eliminated while
        # presenting the pruned trace: the original dead-write findings
        # are now "lost", which the strict gate must refuse.
        trace = corpus_trace("mask_merge")
        dce = eliminate_dead_ops(trace)
        doctored = DceResult(trace=dce.trace, eliminated=(),
                             index_map=dce.index_map, rounds=dce.rounds)
        ok, missing, _ = verify_dce_findings(trace, doctored)
        assert not ok and missing
        with pytest.raises(CompilerError):
            verify_dce_findings(trace, doctored, strict=True)

    def test_non_strict_violation_discards_the_dce_view(self, monkeypatch):
        import repro.compiler as compiler_pkg
        monkeypatch.setattr(
            compiler_pkg, "verify_dce_findings",
            lambda *a, **k: (False, ((0, "dead-write"),), ()))
        trace = corpus_trace("mask_merge")
        compiled = compile_trace(trace)
        assert not compiled.dce_ok
        assert compiled.dce is None
        # The unoptimized trace stands in, so the compiled view can
        # never disagree with `repro check` on a non-strict run.
        assert compiled.optimized is trace
        assert compiled.summary()["eliminated"] == 0


# -- block scheduler ----------------------------------------------------------


class TestBlockScheduler:
    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_blocks_cover_every_event_once_in_program_order(self, name):
        trace = corpus_trace(name)
        blocks = schedule_blocks(trace)
        flat = [i for b in blocks for i in b.events]
        assert flat == list(range(len(trace.events)))
        for block in blocks:
            kinds = {event_kind(trace.events[i]) for i in block.events}
            assert kinds == {block.kind}

    @pytest.mark.parametrize("name", CORPUS_IDS)
    def test_bulk_edges_agree_with_the_materialised_depgraph(self, name):
        trace = corpus_trace(name)
        assert (schedule_blocks(trace)
                == schedule_blocks(trace, depgraph=build_depgraph(trace)))

    def test_every_dependence_edge_points_forward_in_the_schedule(self):
        trace = corpus_trace("slide_gather_reduce")
        blocks = schedule_blocks(trace)
        block_of = {i: pos for pos, b in enumerate(blocks)
                    for i in b.events}
        graph = build_depgraph(trace)
        assert graph.edges
        for edge in graph.edges:
            assert block_of[edge.src] <= block_of[edge.dst]
            assert (blocks[block_of[edge.src]].level
                    <= blocks[block_of[edge.dst]].level)

    def test_iter_events_preserves_enumerate_order(self, tiny_runner):
        trace = tiny_runner.trace_for("O3+EVE-4", "vvadd")
        compiled = compile_trace(trace)
        assert compiled.blocks
        assert list(compiled.iter_events()) == list(enumerate(trace.events))


# -- satellite 4: batched datapath vs oracle, fuzz + corpus -------------------


class TestBatchedDatapath:
    @pytest.mark.parametrize("path", CORPUS, ids=CORPUS_IDS)
    def test_corpus_replays_clean_batched_at_every_width(self, path):
        case = fuzz.load_case(path)
        oracle = run_oracle(case)
        for factor in FUZZ_WIDTHS:
            divergence = compare_runs(
                oracle, run_dut(case, factor, batched=True))
            assert divergence is None, (factor, divergence)

    @pytest.mark.parametrize("chunk", range(8))
    def test_200_fuzz_seeds_replay_clean_batched_at_every_width(self, chunk):
        # 200 generated cases split into chunks so a divergence pins a
        # narrow seed range; every case runs at all six segment widths.
        for seed in range(chunk * 25, (chunk + 1) * 25):
            case = generate_case(seed)
            oracle = run_oracle(case)
            assert "crash" not in oracle, (seed, oracle)
            for factor in FUZZ_WIDTHS:
                divergence = compare_runs(
                    oracle, run_dut(case, factor, batched=True))
                assert divergence is None, (seed, factor, divergence)


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


# -- satellite 2: compiled and uncompiled results never collide ---------------


class TestCacheDistinctness:
    def test_compiler_descriptor_shapes(self):
        assert compiler_descriptor(False) is None
        descriptor = compiler_descriptor(True)
        assert descriptor["passes"] == ["dce", "hoist", "schedule"]
        assert descriptor["compiler_version"] >= 1

    def test_fingerprints_differ_by_compiler_descriptor(self):
        bare = params_fingerprint("vvadd", TINY_PARAMS)
        compiled = params_fingerprint("vvadd", TINY_PARAMS,
                                      compiler=compiler_descriptor(True))
        assert bare != compiled
        assert compiled == params_fingerprint(
            "vvadd", TINY_PARAMS, compiler=compiler_descriptor(True))

    def test_simulate_cell_keeps_compile_modes_cache_distinct(self, tmp_path):
        root = str(tmp_path / "cache")

        def spec(compile_traces):
            return ("IO", "vvadd", TINY_PARAMS, root, False, False,
                    20230225, compile_traces)

        compiled = simulate_cell(spec(True))
        assert compiled["cache"]["result"] == "miss"
        # The uncompiled run must MISS the compiled run's cache entry.
        interpreted = simulate_cell(spec(False))
        assert interpreted["cache"]["result"] == "miss"
        # ... while sharing the compiler-independent trace pickle.
        assert interpreted["cache"]["trace"] == "hit"
        assert interpreted["result"].cycles == compiled["result"].cycles
        # Each mode hits its own entry on re-run; the trace pickle is
        # shared (traces are compiler-independent).
        assert simulate_cell(spec(True))["cached"] is True
        assert simulate_cell(spec(False))["cached"] is True
        results = glob.glob(os.path.join(root, "results", "**", "*.pkl"),
                            recursive=True)
        traces = glob.glob(os.path.join(root, "traces", "*.pkl"))
        assert len(results) == 2
        assert len(traces) == 1
