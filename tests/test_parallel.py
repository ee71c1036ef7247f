"""The one cell path at any ``jobs``: determinism, cell cache, compile
sharing, ``--jobs`` validation, concurrent run store."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import all_system_names
from repro.errors import AnalysisError, ExperimentError
from repro.experiments import ExperimentRunner, sweep_pairs
from repro.experiments.figures import geomean
from repro.experiments.parallel import (CellCache, fan_out,
                                        params_fingerprint,
                                        sweep_config_fingerprint)
from repro.experiments.systems import canonical_system
from repro.faults import fuzz
from repro.isa.intrinsics import VectorContext
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
    runner = _runner()
    return {(s, w): runner.run(s, w).cycles for s, w in PAIRS}


def _runner(**kwargs):
    return ExperimentRunner(params_override=TINY_PARAMS, **kwargs)


def _count(root, subdir):
    return sum(name.endswith(".pkl") for _dirpath, _dirnames, names
               in os.walk(os.path.join(root, subdir)) for name in names)


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


class TestFanOut:
    def test_empty_specs_short_circuit(self):
        assert fan_out(_double, [], jobs=8) == []

    def test_serial_and_pooled_agree_in_input_order(self):
        specs = list(range(12))
        serial = fan_out(_double, specs, jobs=1)
        pooled = fan_out(_double, specs, jobs=3)
        assert serial == pooled == [x * 2 for x in specs]

    def test_pool_workers_are_reaped(self):
        assert fan_out(_double, [1, 2, 3], jobs=2) == [2, 4, 6]
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="cell 2 failed"):
            fan_out(_fail_on_two, [1, 2, 3], jobs=2)
        assert multiprocessing.active_children() == []

    def test_profiler_phase_is_attributed(self):
        profiler = SelfProfiler()
        fan_out(_double, [1, 2], jobs=1, profiler=profiler, phase="faults")
        assert "faults" in profiler.merged()


class TestParallelDeterminism:
    def test_parallel_matches_serial_cycles(self, tmp_path):
        parallel = _runner(jobs=2, cache_root=str(tmp_path / "cache"))
        stats = parallel.prefetch(PAIRS)
        assert stats["cells"] == len(PAIRS)
        assert stats["simulated"] == len(PAIRS)
        got = {(s, w): parallel.run(s, w).cycles for s, w in PAIRS}
        assert got == _serial_cycles()

    def test_serial_and_parallel_diff_verdicts_agree(self, tmp_path):
        parallel = _runner(jobs=2, cache_root=str(tmp_path / "cache"))
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
        serial_card = build_scorecard(runner=_runner(), figures=figures,
                                      apps=apps, tiny=True)
        parallel_runner = _runner(jobs=2, cache_root=str(tmp_path / "cache"))
        parallel_runner.prefetch(scorecard_pairs(figures, apps))
        parallel_card = build_scorecard(runner=parallel_runner,
                                        figures=figures, apps=apps, tiny=True)
        dump = lambda card: json.dumps(card.to_json_dict(), sort_keys=True)  # noqa: E731
        assert dump(serial_card) == dump(parallel_card)

    def test_jobs1_in_process_path_matches(self, tmp_path):
        runner = _runner(jobs=1, cache_root=str(tmp_path / "cache"))
        runner.prefetch(PAIRS)
        assert {(s, w): runner.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()


class TestCellCache:
    def test_repeat_prefetch_hits_disk_cache(self, tmp_path):
        root = str(tmp_path / "cache")
        first = _runner(jobs=2, cache_root=root)
        stats = first.prefetch(PAIRS)
        assert stats["cached"] == 0
        second = _runner(jobs=2, cache_root=root)
        stats = second.prefetch(PAIRS)
        assert stats["cached"] == len(PAIRS)
        assert stats["simulated"] == 0
        assert {(s, w): second.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()

    def test_shared_trace_built_once(self, tmp_path):
        # EVE-1 and EVE-4 share one VL=2048 trace; the cache should hold
        # a single trace file for it (plus IO's scalar trace).
        root = str(tmp_path / "cache")
        runner = _runner(jobs=2, cache_root=root)
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

    def test_serial_runner_publishes_and_replays_from_disk(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = _runner(cache_root=root).prefetch(PAIRS)
        assert cold["cache_hits"] == 0
        assert cold["cache_misses"] == cold["simulated"] == len(PAIRS)
        assert _count(root, "results") == len(PAIRS)
        warm_runner = _runner(cache_root=root)
        warm = warm_runner.prefetch(PAIRS)
        assert warm["cache_hits"] == warm["cells"] == len(PAIRS)
        assert warm["simulated"] == 0
        assert {(s, w): warm_runner.run(s, w).cycles
                for s, w in PAIRS} == _serial_cycles()

    def test_programmatic_runner_writes_no_cache(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        _runner(jobs=2).prefetch(PAIRS[:2])
        assert os.listdir(tmp_path) == []

    def test_seeded_cells_occupy_distinct_entries(self, tmp_path):
        root = str(tmp_path / "cache")
        first = _runner(cache_root=root, seed=7).cell("IO", "vvadd")
        # Same seed hits the cache; the default seed occupies a
        # different cell entirely.
        assert _runner(cache_root=root, seed=7).cell(
            "IO", "vvadd")["cached"] is True
        assert _runner(cache_root=root).cell("IO", "vvadd")["cached"] is False
        assert first["result"].cycles > 0

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        path = cache.result_path("IO", "vvadd", "abc", "def")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load_entry(path) == (None, "corrupt")
        assert os.path.exists(path + ".corrupt")  # quarantined, not deleted
        assert cache.load_entry(path) == (None, "miss")
        # A runner's own entry going bad is a miss too: the cell
        # re-simulates and the bad pickle is quarantined.
        first = _runner(cache_root=str(tmp_path)).cell("IO", "vvadd")
        (published,) = glob.glob(
            os.path.join(str(tmp_path), "results", "*", "IO--vvadd-*.pkl"))
        with open(published, "wb") as handle:
            handle.write(b"not a pickle")
        out = _runner(cache_root=str(tmp_path)).cell("IO", "vvadd")
        assert out["cached"] is False
        assert out["cache"]["result"] == "corrupt"
        assert out["cache"]["corrupt_paths"] == [published]
        assert out["result"].cycles == first["result"].cycles > 0

    def test_collect_metrics_round_trip(self, tmp_path):
        root = str(tmp_path / "cache")
        first = _runner(cache_root=root, collect_metrics=True).cell(
            "O3+EVE-1", "vvadd")
        assert first["metrics_flat"]
        warm = _runner(cache_root=root, collect_metrics=True)
        second = warm.cell("O3+EVE-1", "vvadd")
        assert second["cached"] is True
        assert second["metrics_flat"] == first["metrics_flat"]
        assert second["result"].cycles == first["result"].cycles
        assert warm.cell_metrics("o3+eve-1", "VVADD") == (
            first["metrics_flat"], first["metrics_snapshot"])

    def test_strict_runner_never_served_unchecked_cells(self, tmp_path,
                                                       monkeypatch):
        # vvadd is swapped for the known-dirty corpus trace mask_merge
        # (a dead v0 write), which strict checking must refuse.
        case = fuzz.load_case(os.path.join(
            os.path.dirname(__file__), "corpus", "mask_merge.json"))
        ctx = VectorContext(case.vlmax, name="mask_merge")
        bufs = {name: ctx.vm.alloc_i32(
                    name, np.array(vals, dtype=np.int64).astype(np.int32))
                for name, vals in case.inputs.items()}
        ctx.setvl(case.avl)
        slots = []
        for op in case.ops:
            slots.append(fuzz._apply(ctx, op, slots, bufs))
        dirty = ctx.finalize_trace()
        monkeypatch.setattr(REGISTRY["vvadd"], "vector_trace",
                            lambda *args, **kwargs: dirty)
        root = str(tmp_path)
        published = _runner(cache_root=root, strict_check=False).cell(
            "O3+EVE-4", "vvadd")
        assert published["cache"]["result"] == "miss"
        assert (_count(root, "traces"), _count(root, "results")) == (1, 1)
        # Neither the published result nor its unchecked trace may
        # answer a strict runner on the same cache root.
        with pytest.raises(AnalysisError, match="strict check"):
            _runner(cache_root=root, strict_check=True).cell(
                "O3+EVE-4", "vvadd")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_source_change_misses_trace_and_result(self, tmp_path,
                                                   monkeypatch, jobs):
        from repro.experiments import parallel
        root = str(tmp_path)
        pairs = [("IO", "vvadd"), ("O3+EVE-1", "vvadd")]

        def prefetch():
            return _runner(jobs=jobs, cache_root=root).prefetch(pairs)

        cold = prefetch()
        assert cold["cache_hits"] == 0
        assert cold["cache_misses"] == len(pairs)
        assert (_count(root, "traces"), _count(root, "results")) == (2, 2)
        assert prefetch()["cache_hits"] == len(pairs)
        monkeypatch.setattr(parallel, "_SOURCE_FP", "0" * 64)
        edited = prefetch()
        assert edited["cache_hits"] == 0
        assert edited["simulated"] == len(pairs)
        # Both tiers missed: every cell published a fresh trace and a
        # fresh result under the edited digest.
        assert (_count(root, "traces"), _count(root, "results")) == (4, 4)

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


class TestPooledCacheCounters:
    """``prefetch``'s disk-cache counters over a ``--jobs 2`` pool."""

    PAIRS = [("IO", "vvadd"), ("O3+EVE-4", "vvadd")]

    def test_warm_prefetch_counts_cache_hits(self, tmp_path):
        root = str(tmp_path / "cache")
        _runner(jobs=2, cache_root=root).prefetch(self.PAIRS)
        stats = _runner(jobs=2, cache_root=root).prefetch(self.PAIRS)
        assert stats["cache_hits"] == len(self.PAIRS)
        assert stats["cache_corrupt"] == 0

    def test_corrupt_cache_entry_quarantined_and_reported(self, tmp_path):
        root = str(tmp_path / "cache")
        _runner(jobs=2, cache_root=root).prefetch(self.PAIRS)
        # Smash every cached cell result.
        corrupted = []
        for dirpath, _, names in os.walk(os.path.join(root, "results")):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "wb") as handle:
                    handle.write(b"garbage")
                corrupted.append(path)
        assert corrupted
        stats = _runner(jobs=2, cache_root=root).prefetch(self.PAIRS)
        assert stats["cache_corrupt"] == len(corrupted)
        assert stats["simulated"] == len(self.PAIRS)
        # Quarantined, not deleted: the bad bytes survive for forensics
        # (the re-simulated cell re-populates the original path).
        for path in corrupted:
            assert os.path.exists(path + ".corrupt")
            with open(path + ".corrupt", "rb") as handle:
                assert handle.read() == b"garbage"


class TestCompileSharing:
    def test_serial_prefetch_compiles_once_per_trace(self):
        runner = _runner()
        runner.prefetch(sweep_pairs(("IO", "O3+IV", "O3+DV"),
                                    ("backprop", "pathfinder")))
        # Per workload: IO's scalar trace, and the VL=64 trace that
        # O3+IV and O3+DV share along with its CompiledTrace.
        assert runner.profiler.calls["compile"] == 4


class TestJobsValidation:
    def test_zero_jobs_means_every_cpu(self):
        assert _runner(jobs=0).jobs == (os.cpu_count() or 1)

    def test_negative_jobs_rejected_by_runner(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            _runner(jobs=-1)

    @pytest.mark.parametrize("argv", [["compare", "vvadd"], ["sweep"],
                                      ["scorecard"], ["faults"]])
    def test_negative_jobs_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--jobs", "-3"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestCompareMetrics:
    def test_serial_and_pooled_metrics_snapshots_match(self, tmp_path,
                                                       capsys):
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        assert main(["compare", "vvadd", "--tiny", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--metrics-out", str(serial)]) == 0
        assert main(["compare", "vvadd", "--tiny", "--jobs", "2",
                     "--no-cache", "--metrics-out", str(pooled)]) == 0
        capsys.readouterr()

        def snapshots(path):
            return json.loads(path.read_text())["metrics"]

        assert set(snapshots(serial)) == set(all_system_names())
        assert snapshots(serial) == snapshots(pooled)


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
        runner = _runner()
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
