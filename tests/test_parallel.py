"""Parallel sweep executor: determinism, cell cache, concurrent run store."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentRunner, ParallelRunner, sweep_pairs
from repro.experiments.figures import geomean
from repro.experiments.parallel import (CellCache, fan_out,
                                        params_fingerprint, simulate_cell,
                                        sweep_config_fingerprint)
from repro.experiments.systems import canonical_system
from repro.obs.diff import diff_records
from repro.obs.runstore import RunStore, make_record
from repro.obs.scorecard import build_scorecard, scorecard_pairs
from repro.obs.selfprof import SelfProfiler
from repro.workloads import REGISTRY, canonical_workload

TINY_PARAMS = {name: dict(wl.tiny_params) for name, wl in REGISTRY.items()}

SYSTEMS = ("IO", "O3+EVE-1", "O3+EVE-4")
WORKLOADS = ("vvadd", "pathfinder")
PAIRS = [(s, w) for w in WORKLOADS for s in SYSTEMS]


def _serial_cycles():
    runner = ExperimentRunner(params_override=TINY_PARAMS)
    return {(s, w): runner.run(s, w).cycles for s, w in PAIRS}


def _record_from(results):
    record = make_record("sweep", label="test")
    for (system, workload), cycles in sorted(results.items()):
        record.add_result(system, workload, cycles=cycles, time_ns=cycles)
    return record


def _double(x):
    return x * 2


def _fail_on_two(x):
    if x == 2:
        raise ValueError("cell 2 failed")
    return x


class _CountingMonitor:
    def __init__(self):
        self.completed = 0

    def on_dispatch(self, index):
        pass

    def on_complete(self, index, observation):
        self.completed += 1

    def poll(self):
        pass


class TestFanOut:
    def test_empty_specs_short_circuit(self):
        assert fan_out(_double, [], jobs=8) == []

    def test_serial_and_pooled_agree_in_input_order(self):
        specs = list(range(12))
        serial = fan_out(_double, specs, jobs=1)
        pooled = fan_out(_double, specs, jobs=3)
        assert serial == pooled == [x * 2 for x in specs]

    @pytest.mark.parametrize("monitored", [False, True])
    def test_pool_workers_are_reaped(self, monitored):
        monitor = _CountingMonitor() if monitored else None
        assert fan_out(_double, [1, 2, 3], jobs=2,
                       monitor=monitor) == [2, 4, 6]
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="cell 2 failed"):
            fan_out(_fail_on_two, [1, 2, 3], jobs=2, monitor=monitor)
        assert multiprocessing.active_children() == []
        if monitor is not None:
            assert monitor.completed == 6

    def test_profiler_phase_is_attributed(self):
        profiler = SelfProfiler()
        fan_out(_double, [1, 2], jobs=1, profiler=profiler, phase="faults")
        assert "faults" in profiler.merged()


class TestParallelDeterminism:
    def test_parallel_matches_serial_cycles(self, tmp_path):
        parallel = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=str(tmp_path / "cache"))
        stats = parallel.prefetch(PAIRS)
        assert stats["cells"] == len(PAIRS)
        assert stats["simulated"] == len(PAIRS)
        got = {(s, w): parallel.run(s, w).cycles for s, w in PAIRS}
        assert got == _serial_cycles()

    def test_serial_and_parallel_diff_verdicts_agree(self, tmp_path):
        parallel = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                  cache_root=str(tmp_path / "cache"))
        parallel.prefetch(PAIRS)
        serial_rec = _record_from(_serial_cycles())
        parallel_rec = _record_from(
            {(s, w): parallel.run(s, w).cycles for s, w in PAIRS})
        diff = diff_records(serial_rec, parallel_rec)
        assert diff.exit_code(strict=True) == 0
        assert not diff.regressions()
        assert all(e.status == "same" for e in diff.entries)

    def test_scorecard_json_byte_identical(self, tmp_path):
        figures, apps = ("fig8",), ("backprop",)
        serial_card = build_scorecard(
            runner=ExperimentRunner(params_override=TINY_PARAMS),
            figures=figures, apps=apps, tiny=True)
        parallel_runner = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                         cache_root=str(tmp_path / "cache"))
        parallel_runner.prefetch(scorecard_pairs(figures, apps))
        parallel_card = build_scorecard(runner=parallel_runner,
                                        figures=figures, apps=apps, tiny=True)
        dump = lambda card: json.dumps(card.to_json_dict(), sort_keys=True)  # noqa: E731
        assert dump(serial_card) == dump(parallel_card)

    def test_jobs1_in_process_path_matches(self, tmp_path):
        runner = ParallelRunner(params_override=TINY_PARAMS, jobs=1,
                                cache_root=str(tmp_path / "cache"))
        runner.prefetch(PAIRS)
        assert {(s, w): runner.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()


class TestCellCache:
    def test_repeat_prefetch_hits_disk_cache(self, tmp_path):
        root = str(tmp_path / "cache")
        first = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                               cache_root=root)
        stats = first.prefetch(PAIRS)
        assert stats["cached"] == 0
        second = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                cache_root=root)
        stats = second.prefetch(PAIRS)
        assert stats["cached"] == len(PAIRS)
        assert stats["simulated"] == 0
        assert {(s, w): second.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()

    def test_shared_trace_built_once(self, tmp_path):
        # EVE-1 and EVE-4 share one VL=2048 trace; the cache should hold
        # a single trace file for it (plus IO's scalar trace).
        root = str(tmp_path / "cache")
        runner = ParallelRunner(params_override=TINY_PARAMS, jobs=2,
                                cache_root=root)
        runner.prefetch([(s, "vvadd") for s in SYSTEMS])
        traces = os.listdir(os.path.join(root, "traces"))
        assert len([t for t in traces if "vl2048" in t]) == 1
        assert len([t for t in traces if "vl0" in t]) == 1

    def test_params_fingerprint_separates_scales(self):
        tiny = params_fingerprint("vvadd", TINY_PARAMS)
        full = params_fingerprint("vvadd", None)
        assert tiny != full
        assert params_fingerprint("VVadd", TINY_PARAMS) == tiny

    def test_params_fingerprint_separates_seeds(self):
        default = params_fingerprint("vvadd", TINY_PARAMS)
        seeded = params_fingerprint("vvadd", TINY_PARAMS, seed=7)
        assert default != seeded
        assert params_fingerprint("vvadd", TINY_PARAMS, seed=7) == seeded

    def test_simulate_cell_accepts_seeded_specs(self, tmp_path):
        root = str(tmp_path / "cache")
        base = ("IO", "vvadd", TINY_PARAMS, root, False, True)
        first = simulate_cell(base + (7,))
        # Same seed hits the cache; the legacy 6-tuple (default seed)
        # occupies a different cell entirely.
        assert simulate_cell(base + (7,))["cached"] is True
        assert simulate_cell(base)["cached"] is False
        assert first["result"].cycles > 0

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        path = cache.result_path("IO", "vvadd", "abc", "def")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load(path) is None
        spec = ("IO", "vvadd", TINY_PARAMS, str(tmp_path), False, True)
        out = simulate_cell(spec)
        assert out["cached"] is False
        assert out["result"].cycles > 0

    def test_collect_metrics_round_trip(self, tmp_path):
        root = str(tmp_path / "cache")
        spec = ("O3+EVE-1", "vvadd", TINY_PARAMS, root, True, True)
        first = simulate_cell(spec)
        assert first["metrics_flat"]
        second = simulate_cell(spec)
        assert second["cached"] is True
        assert second["metrics_flat"] == first["metrics_flat"]
        assert second["result"].cycles == first["result"].cycles

    def test_source_change_misses_trace_and_result(self, tmp_path,
                                                   monkeypatch):
        from repro.experiments import parallel
        spec = ("O3+EVE-1", "vvadd", TINY_PARAMS, str(tmp_path), False,
                True)
        cold = simulate_cell(spec)
        assert cold["cache"]["result"] == cold["cache"]["trace"] == "miss"
        assert simulate_cell(spec)["cached"] is True
        monkeypatch.setattr(parallel, "_SOURCE_FP", "0" * 64)
        edited = simulate_cell(spec)
        assert edited["cached"] is False
        assert edited["cache"]["result"] == edited["cache"]["trace"] == "miss"

    def test_source_fingerprint_tracks_file_bytes(self, tmp_path,
                                                  monkeypatch):
        from repro.experiments import parallel
        (tmp_path / "model.py").write_text("LATENCY = 1\n")
        (tmp_path / "notes.txt").write_text("ignored")
        monkeypatch.setattr(parallel, "_PACKAGE_ROOT", str(tmp_path))

        def digest():
            monkeypatch.setattr(parallel, "_SOURCE_FP", None)
            return parallel.source_fingerprint()

        before = digest()
        (tmp_path / "notes.txt").write_text("still ignored")
        assert digest() == before
        (tmp_path / "model.py").write_text("LATENCY = 6\n")
        assert digest() != before

    def test_config_fingerprint_stable(self):
        assert sweep_config_fingerprint() == sweep_config_fingerprint()


class TestSweepPairs:
    def test_cross_product_order_and_canonical(self):
        pairs = sweep_pairs(["io", "o3+eve-4"], ["VVADD"])
        assert pairs == [("IO", "vvadd"), ("O3+EVE-4", "vvadd")]

    def test_defaults_cover_full_grid(self):
        pairs = sweep_pairs()
        assert len(pairs) == 10 * len(REGISTRY)

    def test_scorecard_pairs_include_geomean_apps(self):
        pairs = scorecard_pairs(("fig6",), ("vvadd",))
        apps = {w for _, w in pairs}
        assert "vvadd" in apps
        assert "k-means" in apps  # geomean* row always needs these

    def test_scorecard_pairs_fig8_only(self):
        pairs = scorecard_pairs(("fig8",), ("backprop", "vvadd"))
        assert all(w == "backprop" for _, w in pairs)
        assert all(s.startswith("O3+EVE-") for s, _ in pairs)


class TestCanonicalization:
    def test_canonical_names(self):
        assert canonical_system("o3+eve-4") == "O3+EVE-4"
        assert canonical_system("unknown") == "unknown"
        assert canonical_workload("K-Means") == "k-means"
        assert canonical_workload("unknown") == "unknown"

    def test_runner_cache_is_case_insensitive(self):
        runner = ExperimentRunner(params_override=TINY_PARAMS)
        first = runner.run("io", "VVADD")
        assert runner.run("IO", "vvadd") is first
        assert len(runner._results) == 1


class TestGeomeanGuard:
    def test_empty_selection_raises_repro_error(self):
        with pytest.raises(ExperimentError, match="empty selection.*nothing"):
            geomean([], what="nothing matched the app filter")

    def test_normal_geomean_unchanged(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)


class TestSelfProfilerExclusive:
    def test_nested_phase_not_double_counted(self):
        prof = SelfProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        # Inner time must have been subtracted from outer: the phase sum
        # equals the top-level wall-clock, not more.
        assert prof.seconds["outer"] >= 0.0
        assert prof.total() == pytest.approx(
            prof.seconds["outer"] + prof.seconds["inner"])

    def test_sum_of_phases_matches_wall_clock(self):
        import time
        prof = SelfProfiler()
        start = time.perf_counter()
        with prof.phase("sweep"):
            with prof.phase("sim:A"):
                time.sleep(0.02)
            with prof.phase("sim:B"):
                time.sleep(0.02)
        wall = time.perf_counter() - start
        assert prof.total() == pytest.approx(wall, rel=0.25, abs=0.02)
        assert prof.seconds["sweep"] < 0.02  # exclusive, not inclusive

    def test_absorb_namespaces_and_sums(self):
        parent, child = SelfProfiler(), SelfProfiler()
        with child.phase("sim:IO"):
            pass
        parent.absorb(child.as_dict(), prefix="worker:")
        parent.absorb(child.as_dict(), prefix="worker:")
        assert parent.calls["worker:sim:IO"] == 2


def _append_records(args):
    root, worker_id, count = args
    store = RunStore(root)
    ids = []
    for i in range(count):
        record = make_record("run", label=f"w{worker_id}-{i}")
        ids.append(store.append(record))
    return ids


class TestConcurrentRunStore:
    def test_concurrent_appends_stay_consistent(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork start method")
        root = str(tmp_path / "store")
        procs, per_proc = 4, 5
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=procs) as pool:
            id_lists = pool.map(
                _append_records,
                [(root, w, per_proc) for w in range(procs)])
        all_ids = [record_id for ids in id_lists for record_id in ids]
        assert len(all_ids) == procs * per_proc
        assert len(set(all_ids)) == len(all_ids), "duplicate record ids"

        store = RunStore(root)
        records = list(store.records())  # every JSONL line parses
        assert len(records) == procs * per_proc
        assert {r.record_id for r in records} == set(all_ids)

        rebuilt = store.rebuild_index()
        assert rebuilt["next_seq"] == procs * per_proc + 1
        summaries = {r["record_id"] for r in rebuilt["records"]}
        assert summaries == set(all_ids)
        assert store.history(limit=None) == list(
            reversed(rebuilt["records"]))
