#!/usr/bin/env python3
"""Benchmark of the EVE reproduction's ``repro`` CLI.

Run from the root of a checkout::

    python3 evebench/run.py --workload fig6-baselines --seed 1234 \\
        --seconds 20 --trace 0

Each workload (``evebench/workloads.json``) is one serial, cold ``repro``
invocation at paper-scale parameters.  Every invocation runs in a fresh
process and a fresh working directory under ``.evebench-work/``; sweeps
get a fresh ``--cache-dir`` there too.  ``evebench/probe.py`` runs inside
the invocation and hooks the program's public entry points from outside.

``--trace 0`` measures untraced: a few set-up-only launches, then
invocations until ``--seconds`` is used up (at least one).  It reports
the end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``
(medians over the run).  The two times are in reference seconds: host
seconds scaled by how fast ``evebench/hostspeed.py``, running beside the
invocation, found the shared host at that moment (the raw figures are
printed too).  ``--trace 1`` makes one untraced and one traced
invocation and reports the per-layer metrics in host seconds.

A seed runs the inputs of the same seed when ``evebench/golden`` holds
its golden, else those of seed ``seed % 10``.

Every simulated cell is compared with ``evebench/golden``; a mismatch,
an exception, a non-zero exit, a failed conservation gate or a memory
replay that does not reproduce ``level_stats()`` counts as a failed
cell.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-golden`` rewrites the golden file of one workload and seed from
one invocation; ``--tiny`` switches to the test-sized inputs and their
goldens under ``golden/tiny`` (used by ``evebench/test_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "workloads.json").read_text())
WORKLOADS: Dict[str, dict] = SPEC["workloads"]

DEFAULT_SEED = 1234
#: A seed with no committed golden runs the inputs of seed ``seed % 10``.
#: Goldens exist for seeds 0-9, the default seed and the held-out seed 99:
#: k-means timing depends on its input values (seed 11 moves O3+EVE-1 by
#: 80 cycles), so only a seed with a golden can be checked.
SEED_CYCLE = 10
#: ``wall_s`` and ``setup_s`` are in reference seconds: host seconds times
#: (REFERENCE_CHUNK_S / chunk) ** SPEED_ELASTICITY, where chunk is the mean
#: time of evebench/hostspeed.py's work chunk during the invocation.  The
#: simulator slows less than the pure-compute chunk when the shared host is
#: busy: least-squares fits of log(wall) on log(chunk) over 7 invocations
#: each gave 0.77 (fig6-eve) and 0.91 (explain) on a 2-CPU host.
REFERENCE_CHUNK_S = 0.0015
SPEED_ELASTICITY = 0.8
#: Set-up-only launches per untraced run (``setup_s`` is their median
#: together with the measured invocations').
SETUP_LAUNCHES = 8
#: Everything a run does must finish within this many seconds.
RUN_BUDGET_S = 170.0
#: Directories the program would use in the repository root; a run must
#: neither create nor touch them.
GUARDED = (".eve-cache", ".eve-runs")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("workloads.build_s", "s"), ("workloads.traces", "count"),
    ("workloads.events", "count"), ("workloads.ns_per_event", "ns"),
    ("compiler.compile_s", "s"), ("compiler.events", "count"),
    ("compiler.eliminated", "count"), ("compiler.blocks", "count"),
    ("compiler.us_per_event", "us"),
    ("memengine.self_s", "s"), ("memengine.accesses", "count"),
    ("memengine.ns_per_access", "ns"), ("memengine.l1d_hit_ratio", "ratio"),
    ("memengine.l2_hit_ratio", "ratio"), ("memengine.llc_hit_ratio", "ratio"),
    ("memengine.dram_requests", "count"),
    ("mem.self_s", "s"), ("mem.accesses", "count"),
    ("mem.ns_per_access", "ns"),
    ("cores.scalar.self_s", "s"), ("cores.iv.self_s", "s"),
    ("cores.dv.self_s", "s"), ("core.eve.self_s", "s"),
    ("cores.instructions", "count"), ("core.eve.instructions", "count"),
    ("cores.ns_per_instr", "ns"),
    ("obs.report_s", "s"), ("analysis.depgraph_s", "s"),
    ("obs.attributed_cycles", "cycles"),
    ("experiments.glue_s", "s"), ("trace.overhead_s", "s"),
)
#: Bottleneck-report fields that are deterministic simulator output.
REPORT_KEYS = ("cycles", "total_stall", "bound_by", "dominant",
               "critical_path", "critical_path_share",
               "instruction_coverage", "family_coverage")


@dataclass
class Invocation:
    """One finished child process of the workload."""

    mode: str
    start: float
    wall: float
    setup: Optional[float]
    rss_mb: float
    exit_code: int
    output: Optional[dict]
    side: dict
    stderr: str


class Bench:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload: str, seed: int, tiny: bool,
                 golden_dir: Path) -> None:
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.tiny = tiny
        self.golden_dir = golden_dir
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = ROOT / ".evebench-work" / f"run-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.guarded = self._guard_snapshot()

    # -- processes ---------------------------------------------------------

    def _guard_snapshot(self):
        snapshot = {}
        for name in GUARDED:
            path = ROOT / name
            snapshot[name] = path.stat().st_mtime_ns if path.exists() else None
        return snapshot

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("EVE_STRICT_CHECK", None)
        return env

    def repro_args(self, cwd: Path) -> List[str]:
        args = list(self.spec["argv"]) + ["--seed", str(self.seed)]
        if self.spec["cache_dir"]:
            args += ["--cache-dir", str(cwd / "cache")]
        if self.tiny:
            args.append("--tiny")
        return args

    def invoke(self, mode: str) -> Invocation:
        """Launch one fresh child in a fresh working directory."""
        self.count += 1
        cwd = self.work / f"{self.count:03d}-{mode}"
        cwd.mkdir(parents=True)
        side_path = cwd / "probe.json"
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), mode,
                str(side_path), "--"] + self.repro_args(cwd)
        remaining = self.deadline - time.monotonic()
        with open(cwd / "stdout", "wb") as out, \
                open(cwd / "stderr", "wb") as err:
            start = time.monotonic()
            child = subprocess.Popen(argv, cwd=cwd, env=self._env(),
                                     stdout=out, stderr=err,
                                     stdin=subprocess.DEVNULL)
            killer = threading.Timer(max(remaining, 1.0), child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        child.returncode = exit_code = os.waitstatus_to_exitcode(status)
        side = {}
        if side_path.exists():
            side = json.loads(side_path.read_text())
        setup = (side["t_first"] - start
                 if side.get("t_first") is not None else None)
        output = None
        if mode != "setup" and exit_code == 0:
            try:
                output = json.loads((cwd / "stdout").read_text())
            except ValueError:
                output = None
        stderr = (cwd / "stderr").read_text(errors="replace")
        shutil.rmtree(cwd, ignore_errors=True)
        if self._guard_snapshot() != self.guarded:
            self.problems.append(
                f"{mode} invocation touched {' or '.join(GUARDED)} in the "
                f"repository root")
        if exit_code != 0 and mode != "setup":
            self.problems.append(
                f"{mode} invocation exited {exit_code}: "
                f"{(stderr.strip().splitlines() or [''])[-1]}")
        return Invocation(mode, start, wall, setup, usage.ru_maxrss / 1024.0,
                          exit_code, output, side, stderr)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    # -- correctness -------------------------------------------------------

    def golden_path(self, seed: int) -> Path:
        return self.golden_dir / f"{self.name}-seed{seed}.json"

    def use_golden_seed(self) -> dict:
        """Switch to the inputs of a seed with a golden; return it."""
        if not self.golden_path(self.seed).exists():
            self.seed %= SEED_CYCLE
        return json.loads(self.golden_path(self.seed).read_text())

    def observed_cells(self, inv: Invocation) -> Dict[str, dict]:
        """Per-cell deterministic output of one invocation, keyed
        ``system/workload``, in the golden's format."""
        cells = {f"{c['system']}/{c['workload']}": json_round_trip(c)
                 for c in inv.side.get("cells", [])}
        output = inv.output or {}
        for workload, per_system in output.get("cells", {}).items():
            for system, entry in per_system.items():
                cell = cells.setdefault(f"{system}/{workload}", {})
                if self.spec["argv"][0] == "sweep":
                    cell["output"] = entry
                else:
                    report = {key: entry[key] for key in REPORT_KEYS
                              if key in entry}
                    # The path itself can be long; its weight and length
                    # pin it down.
                    path = report.get("critical_path", {})
                    report["critical_path"] = {
                        key: path[key] for key in ("cycles", "length")
                        if key in path}
                    cell["report"] = report
        for key, totals in inv.side.get("conservation", {}).items():
            cells.setdefault(key, {})["conservation"] = totals
        return cells

    def check(self, inv: Invocation, golden: dict) -> Dict[str, dict]:
        """Count the invocation's cells as attempted/failed against the
        golden; return the observed cells."""
        expected = golden["cells"]
        observed = self.observed_cells(inv)
        keys = sorted(set(expected) | set(observed))
        self.attempted += len(keys)
        if inv.exit_code != 0 or inv.output is None:
            self.failed += len(keys)
            return observed
        cache = inv.output.get("cache")
        if cache is not None and cache.get("hits", 0) != 0:
            self.problems.append(f"run was not cold: cache {cache}")
            self.failed += len(keys)
            return observed
        for key in keys:
            diff = first_difference(expected.get(key), observed.get(key))
            if diff is not None:
                self.failed += 1
                self.problems.append(f"{key}: {diff}")
        return observed

    def write_golden(self) -> int:
        inv = self.invoke("plain")
        if inv.exit_code != 0 or inv.output is None:
            print(inv.stderr, file=sys.stderr)
            return 1
        cells = self.observed_cells(inv)
        golden = {"workload": self.name, "seed": self.seed,
                  "tiny": self.tiny,
                  "command": ["repro"] + self.repro_args(Path("WORKDIR")),
                  "cells": cells}
        self.golden_dir.mkdir(parents=True, exist_ok=True)
        path = self.golden_path(self.seed)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(cells)} cells)")
        return 0

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> Dict[str, float]:
        golden = self.use_golden_seed()
        with HostSpeed() as speed:
            launches = [self.invoke("setup") for _ in range(SETUP_LAUNCHES)]
            plains: List[Invocation] = []
            start = time.monotonic()
            while True:
                inv = self.invoke("plain")
                self.check(inv, golden)
                plains.append(inv)
                report_invocation(inv)
                walls = [p.wall for p in plains]
                elapsed = time.monotonic() - start
                if (elapsed + statistics.median(walls) > seconds
                        or time.monotonic() + 2 * max(walls) > self.deadline):
                    break
        if any(inv.setup is None for inv in launches):
            self.problems.append("a set-up launch never reached a layer")
        setups = [inv.setup * speed.factor(inv.start, inv.start + inv.setup)
                  for inv in launches + plains if inv.setup is not None]
        walls = [inv.wall * speed.factor(inv.start, inv.start + inv.wall)
                 for inv in plains]
        print(f"host speed factor {speed.factor(start, time.monotonic()):.4f} "
              f"(reference chunk {REFERENCE_CHUNK_S * 1e3:g} ms); raw wall "
              f"median {statistics.median(p.wall for p in plains):.4f} s")
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups) if setups else 0.0,
                "peak_rss_mb": statistics.median(p.rss_mb for p in plains)}

    def measure_layers(self) -> Dict[str, float]:
        golden = self.use_golden_seed()
        plain = self.invoke("plain")
        untraced = self.check(plain, golden)
        report_invocation(plain)
        traced_inv = self.invoke("trace")
        traced = self.check(traced_inv, golden)
        report_invocation(traced_inv)
        for key in sorted(set(untraced) | set(traced)):
            diff = first_difference(untraced.get(key), traced.get(key))
            if diff is not None:
                self.failed += 1
                self.problems.append(f"traced {key} differs from untraced: "
                                     f"{diff}")
        side = traced_inv.side
        for error in side.get("errors", []):
            self.failed += 1
            self.problems.append(error)
        if "layers" not in side:
            return {name: 0.0 for name, _ in PER_LAYER}
        costs = side["hook_costs"]
        print(f"replayed {side['replays']} memory stream(s); hook cost per "
              f"call: record {costs['record'] * 1e9:.0f} ns, inline "
              f"{(costs['inline_inner'] + costs['inline_outer']) * 1e9:.0f} "
              f"ns")
        setup = traced_inv.setup or 0.0
        return layer_metrics(side, traced_inv.wall, setup, plain.wall)


class HostSpeed:
    """Runs evebench/hostspeed.py beside the invocations; afterwards
    :meth:`factor` says how fast the host was over an interval."""

    def __enter__(self) -> "HostSpeed":
        self.samples: List[Tuple[float, float]] = []
        self.child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "hostspeed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            out, _ = self.child.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.communicate()
            raise
        self.samples = [tuple(sample) for sample in json.loads(out or "[]")]

    def factor(self, t0: float, t1: float) -> float:
        """How much faster than the reference the host ran in [t0, t1]
        (judged by the nearest sample when none ended inside)."""
        if not self.samples:
            raise RuntimeError("the host-speed sampler recorded nothing")
        inside = [seconds for end, seconds in self.samples if t0 <= end <= t1]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        chunk = statistics.mean(inside)
        return (REFERENCE_CHUNK_S / chunk) ** SPEED_ELASTICITY


def layer_metrics(side: dict, wall: float, setup: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Per-layer metrics from the traced invocation's probe output."""
    layers, counts = side["layers"], side["counts"]

    def per(seconds: float, work: float, scale: float) -> float:
        return seconds * scale / work if work else 0.0

    machine_layers = ("cores.scalar", "cores.iv", "cores.dv", "core.eve")
    machine_s = sum(layers.get(name, 0.0) for name in machine_layers)
    instructions = counts["cores.instructions"] + counts[
        "core.eve.instructions"]

    def ratio(level: str) -> float:
        hits, misses = side["levels"][level]
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {
        "workloads.build_s": layers.get("workloads.build", 0.0),
        "workloads.traces": counts["workloads.traces"],
        "workloads.events": counts["workloads.events"],
        "workloads.ns_per_event": per(layers.get("workloads.build", 0.0),
                                      counts["workloads.events"], 1e9),
        "compiler.compile_s": layers.get("compiler.compile", 0.0),
        "compiler.events": counts["compiler.events"],
        "compiler.eliminated": counts["compiler.eliminated"],
        "compiler.blocks": counts["compiler.blocks"],
        "compiler.us_per_event": per(layers.get("compiler.compile", 0.0),
                                     counts["compiler.events"], 1e6),
        "memengine.self_s": side["memengine_s"],
        "memengine.accesses": counts["memengine.accesses"],
        "memengine.ns_per_access": per(side["memengine_s"],
                                       counts["memengine.accesses"], 1e9),
        "memengine.l1d_hit_ratio": ratio("l1d"),
        "memengine.l2_hit_ratio": ratio("l2"),
        "memengine.llc_hit_ratio": ratio("llc"),
        "memengine.dram_requests": counts["memengine.dram_requests"],
        "mem.self_s": side["mem_s"],
        "mem.accesses": counts["mem.accesses"],
        "mem.ns_per_access": per(side["mem_s"], counts["mem.accesses"],
                                 1e9),
        "cores.scalar.self_s": layers.get("cores.scalar", 0.0),
        "cores.iv.self_s": layers.get("cores.iv", 0.0),
        "cores.dv.self_s": layers.get("cores.dv", 0.0),
        "core.eve.self_s": layers.get("core.eve", 0.0),
        "cores.instructions": counts["cores.instructions"],
        "core.eve.instructions": counts["core.eve.instructions"],
        "cores.ns_per_instr": per(machine_s, instructions, 1e9),
        "obs.report_s": layers.get("obs.report", 0.0),
        "analysis.depgraph_s": layers.get("analysis.depgraph", 0.0),
        "obs.attributed_cycles": counts["obs.attributed_cycles"],
        "experiments.glue_s": (wall - setup - side["top_level_s"]
                               - side["harness_s"]),
        "trace.overhead_s": wall - untraced_wall,
    }
    return metrics


def json_round_trip(value):
    return json.loads(json.dumps(value))


def first_difference(expected, observed, path: str = "") -> Optional[str]:
    """``None`` when equal, else where and how the two differ."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        for key in sorted(set(expected) | set(observed)):
            if key not in observed:
                return f"{path}{key} missing"
            if key not in expected:
                return f"{path}{key} unexpected"
            diff = first_difference(expected[key], observed[key],
                                    f"{path}{key}.")
            if diff is not None:
                return diff
        return None
    if expected != observed:
        return f"{path.rstrip('.') or 'cell'}: expected {expected!r}, " \
               f"got {observed!r}"
    return None


def report_invocation(inv: Invocation) -> None:
    setup = f"{inv.setup:.3f}" if inv.setup is not None else "-"
    print(f"{inv.mode:5s} exit={inv.exit_code} wall={inv.wall:.3f}s "
          f"setup={setup}s rss={inv.rss_mb:.1f}MB", flush=True)


def checkout_problem() -> Optional[str]:
    """Why this directory cannot be benchmarked, or ``None``."""
    for needed in ("src/repro/__init__.py", "src/repro/cli.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: not a repro checkout"
    return None


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs (goldens under golden/tiny)")
    parser.add_argument("--golden-dir", type=Path, default=None)
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite this workload's golden for --seed")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem is not None:
        print(f"evebench: {problem}", file=sys.stderr)
        return 2
    golden_dir = args.golden_dir or (
        BENCH_DIR / "golden" / ("tiny" if args.tiny else ""))
    bench = Bench(args.workload, args.seed, args.tiny, golden_dir)
    try:
        if args.write_golden:
            return bench.write_golden()
        if args.trace:
            values = bench.measure_layers()
            table = PER_LAYER
        else:
            values = bench.measure(args.seconds)
            table = END_TO_END
    finally:
        bench.close()
    for problem_line in bench.problems:
        print(f"FAIL {problem_line}", flush=True)
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} fraction "
          f"({bench.failed}/{bench.attempted} cells)")
    for name, unit in table:
        print(f"{name} {values[name]!r} {unit}")
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
