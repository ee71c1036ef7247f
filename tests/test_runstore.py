"""Tests for the longitudinal run store: records, JSONL archive, index."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import RunStoreError
from repro.obs.runstore import (
    RunRecord,
    RunStore,
    SCHEMA_VERSION,
    config_fingerprint,
    flatten_record,
    git_info,
    host_info,
    load_record_file,
    make_record,
)


def sample_record(kind="run", label="IO:vvadd"):
    record = make_record(kind, label=label, tiny=True, command="test")
    record.add_result("IO", "vvadd", cycles=5328.0, time_ns=5500.0,
                      instructions=42)
    record.add_result("O3+EVE-4", "vvadd", cycles=1234.0, time_ns=1000.0,
                      instructions=42)
    record.speedup_baseline = "IO"
    record.speedups = {"vvadd": {"O3+EVE-4": 4.32}}
    record.metrics = {"sim.cycles.value": 5328.0}
    record.self_profile = {"sim": {"seconds": 0.25}}
    return record


class TestEnvironmentCapture:
    def test_git_info_has_sha_and_dirty(self):
        info = git_info()
        assert set(info) == {"sha", "dirty"}
        assert isinstance(info["dirty"], bool)

    def test_git_info_survives_non_repo(self, tmp_path):
        info = git_info(cwd=str(tmp_path))
        assert info["sha"] == "unknown"

    def test_host_info_fields(self):
        info = host_info()
        assert "python" in info and "machine" in info

    def test_fingerprint_is_stable_and_sensitive(self):
        base = config_fingerprint()
        assert base == config_fingerprint()
        assert len(base) == 12
        assert config_fingerprint({"params": "tiny"}) != base


class TestRunRecord:
    def test_round_trip(self):
        record = sample_record()
        doc = json.loads(json.dumps(record.to_json_dict()))
        back = RunRecord.from_json_dict(doc)
        assert back == record

    def test_rejects_wrong_schema_version(self):
        doc = sample_record().to_json_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(RunStoreError, match="schema version"):
            RunRecord.from_json_dict(doc)

    def test_rejects_missing_kind(self):
        doc = sample_record().to_json_dict()
        del doc["kind"]
        with pytest.raises(RunStoreError, match="kind"):
            RunRecord.from_json_dict(doc)

    def test_rejects_unknown_fields(self):
        doc = sample_record().to_json_dict()
        doc["surprise"] = 1
        with pytest.raises(RunStoreError, match="surprise"):
            RunRecord.from_json_dict(doc)

    def test_rejects_non_object(self):
        with pytest.raises(RunStoreError):
            RunRecord.from_json_dict(["not", "a", "record"])

    def test_make_record_stamps_environment(self):
        record = make_record("bench", label="tiny")
        assert record.kind == "bench"
        assert record.created
        assert record.config_fingerprint
        assert record.git["sha"]

    def test_make_record_stamps_the_model_source_apart_from_identity(
            self, monkeypatch):
        from repro.experiments import parallel
        record = make_record("bench", label="tiny")
        assert record.source_fingerprint == parallel.source_fingerprint()
        # Edited model code changes the source stamp, never the
        # experiment identity.
        monkeypatch.setattr(parallel, "_SOURCE_FP", "0" * 64)
        edited = make_record("bench", label="tiny")
        assert edited.source_fingerprint == "0" * 64
        assert edited.config_fingerprint == record.config_fingerprint

    def test_records_without_a_source_fingerprint_still_load(self):
        doc = sample_record().to_json_dict()
        del doc["source_fingerprint"]
        back = RunRecord.from_json_dict(json.loads(json.dumps(doc)))
        assert back.source_fingerprint == ""
        assert back.results == sample_record().results


class TestFlatten:
    def test_key_families(self):
        record = sample_record()
        record.extra["bench_workloads"] = {
            "vvadd": {"seconds": 0.1, "sim_seconds": 0.05}}
        flat = flatten_record(record)
        assert flat["results.IO.vvadd.cycles"] == 5328.0
        assert flat["results.O3+EVE-4.vvadd.time_ns"] == 1000.0
        assert flat["results.IO.vvadd.instructions"] == 42.0
        assert flat["speedup.vvadd.O3+EVE-4"] == 4.32
        assert flat["metrics.sim.cycles.value"] == 5328.0
        assert flat["self_profile.sim.seconds"] == 0.25
        assert flat["bench.vvadd.seconds"] == 0.1

    def test_skips_non_numeric_values(self):
        record = sample_record()
        record.metrics["note"] = "text"
        flat = flatten_record(record)
        assert "metrics.note" not in flat

    def test_fault_campaign_keys(self):
        record = sample_record()
        record.extra["campaign"] = {
            "count": 4, "sdc_rate": 0.25, "detected_rate": 0.5,
            "counts": {"masked": 1, "sdc": 1, "note": "text"},
            "by_factor": {"8": {"injections": 2, "sdc": 1,
                                "sdc_rate": 0.5}},
            "by_model": {"bitflip": {"injections": 4, "sdc": 1,
                                     "sdc_rate": 0.25}},
        }
        flat = flatten_record(record)
        assert flat["faults.count"] == 4.0
        assert flat["faults.sdc_rate"] == 0.25
        assert flat["faults.counts.masked"] == 1.0
        assert flat["faults.by_factor.8.sdc_rate"] == 0.5
        assert flat["faults.by_model.bitflip.injections"] == 4.0
        assert "faults.counts.note" not in flat


class TestRunStore:
    def test_append_assigns_sequential_ids(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        first = store.append(sample_record())
        second = store.append(sample_record(kind="compare", label="vvadd"))
        assert first == "000001-run"
        assert second == "000002-compare"

    def test_load_round_trips(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        record = sample_record()
        record_id = store.append(record)
        assert store.load(record_id) == record

    def test_load_unknown_id_raises(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record())
        with pytest.raises(RunStoreError, match="no record"):
            store.load("999999-run")

    def test_latest_and_back(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record(label="first"))
        store.append(sample_record(label="second"))
        assert store.latest().label == "second"
        assert store.latest(back=1).label == "first"
        with pytest.raises(RunStoreError, match="cannot go back"):
            store.latest(back=2)

    def test_latest_filters_by_kind(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record(kind="run"))
        store.append(sample_record(kind="bench", label="tiny"))
        assert store.latest(kind="run").kind == "run"

    def test_resolve_refs(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record(label="first"))
        store.append(sample_record(label="second"))
        assert store.resolve("latest").label == "second"
        assert store.resolve("latest~1").label == "first"
        assert store.resolve("000001-run").label == "first"

    def test_resolve_file_path(self, tmp_path):
        path = tmp_path / "golden.json"
        record = sample_record(label="golden")
        path.write_text(json.dumps(record.to_json_dict()))
        store = RunStore(str(tmp_path / "runs"))
        assert store.resolve(str(path)).label == "golden"

    def test_empty_store(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        assert list(store.records()) == []
        assert store.history() == []
        with pytest.raises(RunStoreError):
            store.latest()

    def test_history_newest_first_with_limit_and_kind(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record(kind="run", label="a"))
        store.append(sample_record(kind="bench", label="b"))
        store.append(sample_record(kind="run", label="c"))
        rows = store.history()
        assert [r["label"] for r in rows] == ["c", "b", "a"]
        assert [r["label"] for r in store.history(limit=1)] == ["c"]
        assert [r["label"] for r in store.history(kind="run")] == ["c", "a"]

    def test_index_is_rebuildable_cache(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record(label="a"))
        store.append(sample_record(label="b"))
        import os
        os.remove(store.index_path)
        # The JSONL is the source of truth: history and the id sequence
        # survive losing the index.
        assert [r["label"] for r in store.history()] == ["b", "a"]
        assert store.append(sample_record(label="c")) == "000003-run"

    def test_corrupt_jsonl_raises_with_line_number(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        store.append(sample_record())
        with open(store.runs_path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(RunStoreError, match=":2"):
            list(store.records())

    def test_threaded_runstore_appends_assign_unique_ids(self, tmp_path):
        store = RunStore(str(tmp_path))

        def append_one(i):
            record = make_record("run", label=f"t{i}", command="test")
            record.add_result("IO", "vvadd", cycles=float(i), time_ns=1.0)
            return store.append(record)

        with ThreadPoolExecutor(max_workers=8) as tpe:
            ids = list(tpe.map(append_one, range(24)))
        assert len(set(ids)) == 24
        assert sorted(ids) == [f"{i:06d}-run" for i in range(1, 25)]
        assert len(list(store.records())) == 24

    def test_load_record_file_errors(self, tmp_path):
        with pytest.raises(RunStoreError, match="cannot read"):
            load_record_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        with pytest.raises(RunStoreError, match="not valid JSON"):
            load_record_file(str(bad))
