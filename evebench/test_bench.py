"""Self-test of the benchmark's plumbing on ``--tiny`` inputs.

Run from the root of a checkout::

    python3 -m pytest evebench -q

It checks that every metric in ``BENCHMARK.json`` is emitted with its
unit, that the goldens load, that count metrics repeat exactly between
runs, and that a corrupted golden shows up as failed cells.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the benchmark module, beside this file)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Units whose values are counts of deterministic work or simulated
#: statistics; they must repeat exactly for the same code and seed.
EXACT_UNITS = ("count", "cycles", "ratio")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "evebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert BENCHMARK["command"] == ["python3", "evebench/run.py"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_goldens_cover_every_seed_the_benchmark_runs(workload):
    spec = run.WORKLOADS[workload]
    seeds = [*range(run.SEED_CYCLE), run.DEFAULT_SEED, 99]
    keys = None
    for seed in seeds:
        path = BENCH_DIR / "golden" / f"{workload}-seed{seed}.json"
        golden = json.loads(path.read_text())
        assert golden["seed"] == seed and not golden["tiny"]
        assert len(golden["cells"]) == spec["cells"]
        keys = keys or set(golden["cells"])
        assert set(golden["cells"]) == keys
    tiny = json.loads(
        (BENCH_DIR / "golden" / "tiny" / f"{workload}-seed1234.json")
        .read_text())
    assert tiny["tiny"] and set(tiny["cells"]) == keys


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--tiny",
                             "--seconds", "0.1", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.WORKLOADS[workload]["cells"]
    for name, unit in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


@pytest.mark.parametrize("workload", ["fig6-eve", "explain"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result_of(bench("--workload", workload, "--tiny",
                                     "--trace", "1")) for _ in range(2))
    for result in (first, second):
        assert result["correct"] is True
        assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
        for name, unit in run.PER_LAYER:
            assert result["metrics"][name]["unit"] == unit
    exact = [name for name, unit in run.PER_LAYER if unit in EXACT_UNITS]
    assert {n: first["metrics"][n] for n in exact} == \
        {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["workloads.traces"]["value"] > 0


def test_corrupted_golden_counts_as_failed(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(BENCH_DIR / "golden" / "tiny", golden)
    path = golden / "fig6-baselines-seed1234.json"
    data = json.loads(path.read_text())
    cell = data["cells"]["O3+IV/backprop"]
    cell["cycles"] += 1
    path.write_text(json.dumps(data))
    proc = bench("--workload", "fig6-baselines", "--tiny", "--seconds",
                 "0.1", "--golden-dir", str(golden))
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "failed_frac 0.166667" in proc.stdout
    assert "O3+IV/backprop: cycles" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "evebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "explain", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
