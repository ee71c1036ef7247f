"""Longitudinal run store: every experiment leaves a durable record.

The in-run observability layer (metrics, tracer, self-profiler) answers
"what happened in *this* run"; the :class:`RunStore` answers "what
happened across the PR trajectory".  Every ``repro run`` / ``compare`` /
``stats`` / ``scorecard`` invocation and every ``bench_smoke`` execution
can archive a schema-versioned :class:`RunRecord` — git SHA, config
fingerprint, host info, per-(system, workload) cycle counts, the flat
metrics snapshot, and the self-profiler's host wall-clock — into an
append-only JSONL file under ``.eve-runs/``.

Storage layout (``root`` defaults to ``.eve-runs``)::

    .eve-runs/runs.jsonl    one JSON record per line, append-only
    .eve-runs/index.json    id -> summary cache (rebuilt if missing)

``runs.jsonl`` is the source of truth; the index is a derived cache so a
corrupted or deleted index never loses history.  Records are compared by
:mod:`repro.obs.diff` and listed by ``repro history``, whose filters
(:func:`filter_history`, :func:`record_matches`) live here too.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

try:  # POSIX advisory locking; Windows degrades to lockless appends.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from ..errors import RunStoreError

#: Bump when the record layout changes incompatibly.  Loading a record
#: with a different major version raises :class:`RunStoreError` — a diff
#: across schema generations would silently compare the wrong keys.
SCHEMA_VERSION = 1

DEFAULT_ROOT = ".eve-runs"
RUNS_FILENAME = "runs.jsonl"
INDEX_FILENAME = "index.json"
LOCK_FILENAME = ".lock"


# -- environment capture -------------------------------------------------------

def git_info(cwd: Optional[str] = None) -> Dict[str, object]:
    """Best-effort ``{sha, dirty}`` of the enclosing git checkout."""

    def _git(*argv: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ("git",) + argv, cwd=cwd, capture_output=True, text=True,
                timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {"sha": sha or "unknown",
            "dirty": bool(status) if status is not None else False}


def host_info() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def config_fingerprint(extra: Optional[dict] = None) -> str:
    """Digest of every Table III system config (plus any extra payload,
    e.g. workload parameter overrides), so a diff can tell "the code
    changed" from "the experiment changed"."""
    from ..config import all_system_names, make_system
    payload = {name: asdict(make_system(name)) for name in all_system_names()}
    if extra:
        payload["__extra__"] = extra
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- the record ----------------------------------------------------------------

@dataclass
class RunRecord:
    """One archived experiment: identity, environment, and measurements.

    ``config_fingerprint`` is the experiment's identity (configs,
    params, seed, compiler descriptor); ``source_fingerprint`` says which
    model code computed it.  ``results`` maps ``system -> workload ->
    {cycles, time_ns,
    instructions}`` (the deterministic core every diff keys on);
    ``speedups`` maps ``workload -> system -> speedup`` relative to
    ``speedup_baseline``; ``metrics`` is a flat ``name -> scalar`` view
    of a :class:`~repro.obs.MetricsRegistry`; ``extra`` carries
    kind-specific payloads (bench wall-clock, scorecard summaries).
    """

    kind: str
    label: str = ""
    schema_version: int = SCHEMA_VERSION
    record_id: str = ""
    created: str = ""
    git: Dict[str, object] = field(default_factory=dict)
    host: Dict[str, str] = field(default_factory=dict)
    config_fingerprint: str = ""
    #: Digest of the model code that produced the results
    #: (:func:`~repro.experiments.parallel.source_fingerprint`); empty
    #: on records written before the field existed.
    source_fingerprint: str = ""
    tiny: bool = False
    command: str = ""
    results: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    speedup_baseline: str = ""
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    self_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    def add_result(self, system: str, workload: str, *, cycles: float,
                   time_ns: float, instructions: int = 0) -> None:
        self.results.setdefault(system, {})[workload] = {
            "cycles": cycles, "time_ns": time_ns,
            "instructions": instructions}

    def to_json_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: Dict[str, object]) -> "RunRecord":
        if not isinstance(doc, dict):
            raise RunStoreError(f"run record must be an object, "
                                f"got {type(doc).__name__}")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RunStoreError(
                f"run record schema version {version!r} is not supported "
                f"(this build reads version {SCHEMA_VERSION}); re-record "
                f"the baseline with the current toolkit")
        if "kind" not in doc:
            raise RunStoreError("run record is missing its 'kind' field")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise RunStoreError(
                f"run record carries unknown fields {sorted(unknown)} "
                f"(schema version {SCHEMA_VERSION})")
        return cls(**doc)


def make_record(kind: str, *, label: str = "", tiny: bool = False,
                command: str = "", extra: Optional[dict] = None,
                fingerprint_extra: Optional[dict] = None) -> RunRecord:
    """A new record stamped with the current environment."""
    from ..experiments.parallel import source_fingerprint
    return RunRecord(
        kind=kind, label=label, tiny=tiny, command=command,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        git=git_info(), host=host_info(),
        config_fingerprint=config_fingerprint(fingerprint_extra),
        source_fingerprint=source_fingerprint(),
        extra=dict(extra or {}))


def flatten_record(record: RunRecord) -> Dict[str, float]:
    """Scalar ``name -> value`` view a differ can compare key-by-key.

    Key families (the diff's tolerance policies match on these):

    * ``results.<system>.<workload>.cycles`` / ``.time_ns`` /
      ``.instructions`` — deterministic simulation outputs;
    * ``speedup.<workload>.<system>`` — relative performance
      (direction-aware in the differ);
    * ``metrics.<name>`` — the flat registry snapshot;
    * ``self_profile.<phase>.seconds`` — host wall-clock (noisy,
      advisory);
    * ``bench.<workload>.<field>`` — bench_smoke wall-clock;
    * ``faults.<field>`` / ``faults.<dim>.<bucket>.<field>`` — a
      fault-injection campaign's classification counts and SDC rates
      (deterministic given the campaign seed);
    * ``attribution.<unit>.<bucket>`` / ``attribution.bound_by.<class>``
      — cycle-attribution shares of the achieved cycles (bottleneck
      drift; see :mod:`repro.obs.flame`).
    """
    out: Dict[str, float] = {}
    for system, workloads in record.results.items():
        for workload, fields_ in workloads.items():
            for key, value in fields_.items():
                out[f"results.{system}.{workload}.{key}"] = float(value)
    for workload, systems in record.speedups.items():
        for system, value in systems.items():
            out[f"speedup.{workload}.{system}"] = float(value)
    for name, value in record.metrics.items():
        if isinstance(value, (int, float)):
            out[f"metrics.{name}"] = float(value)
    for phase, info in record.self_profile.items():
        seconds = info.get("seconds") if isinstance(info, dict) else info
        if isinstance(seconds, (int, float)):
            out[f"self_profile.{phase}.seconds"] = float(seconds)
    bench = record.extra.get("bench_workloads")
    if isinstance(bench, dict):
        for workload, fields_ in bench.items():
            if isinstance(fields_, dict):
                for key, value in fields_.items():
                    if isinstance(value, (int, float)):
                        out[f"bench.{workload}.{key}"] = float(value)
    sweep = record.extra.get("sweep")
    if isinstance(sweep, dict):
        for key, value in sweep.items():
            if isinstance(value, (int, float)):
                out[f"bench.sweep.{key}"] = float(value)
    attribution = record.extra.get("attribution")
    if isinstance(attribution, dict):
        shares = attribution.get("shares")
        if isinstance(shares, dict):
            for name, value in shares.items():
                if isinstance(value, (int, float)):
                    out[f"attribution.{name}"] = float(value)
    campaign = record.extra.get("campaign")
    if isinstance(campaign, dict):
        for key in ("count", "sdc_rate", "detected_rate"):
            value = campaign.get(key)
            if isinstance(value, (int, float)):
                out[f"faults.{key}"] = float(value)
        counts = campaign.get("counts")
        if isinstance(counts, dict):
            for name, value in counts.items():
                if isinstance(value, (int, float)):
                    out[f"faults.counts.{name}"] = float(value)
        for dim in ("by_factor", "by_model", "by_family"):
            table = campaign.get(dim)
            if not isinstance(table, dict):
                continue
            for bucket, fields_ in table.items():
                if isinstance(fields_, dict):
                    for key, value in fields_.items():
                        if isinstance(value, (int, float)):
                            out[f"faults.{dim}.{bucket}.{key}"] = float(value)
    return out


# -- the store -----------------------------------------------------------------

class RunStore:
    """Append-only archive of :class:`RunRecord` lines plus an index.

    Appends are serialised by an advisory ``flock`` on ``.lock`` so
    concurrent sweep workers (or parallel CI jobs sharing one store) get
    unique sequence ids and never interleave partial JSONL lines, and
    the index is always rewritten atomically (unique temp file +
    ``os.replace``) so readers never observe a half-written cache.
    """

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root

    @property
    def runs_path(self) -> str:
        return os.path.join(self.root, RUNS_FILENAME)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_FILENAME)

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, LOCK_FILENAME)

    # -- locking ---------------------------------------------------------------

    @contextmanager
    def _locked(self):
        """Exclusive advisory lock over the store (no-op off-POSIX).

        Not re-entrant: public mutators take it once and call only
        unlocked ``_``-helpers inside.
        """
        os.makedirs(self.root, exist_ok=True)
        handle = open(self.lock_path, "a+")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    # -- writing ---------------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Assign an id, append one JSONL line, refresh the index.

        Safe against concurrent appenders: id assignment, the JSONL
        write (flushed and fsync'd before the lock drops), and the index
        refresh happen under the store lock.
        """
        with self._locked():
            index = self._load_index()
            seq = int(index.get("next_seq",
                                len(index.get("records", [])) + 1))
            record.record_id = f"{seq:06d}-{record.kind}"
            with open(self.runs_path, "a") as handle:
                handle.write(json.dumps(record.to_json_dict(),
                                        sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            index["next_seq"] = seq + 1
            index.setdefault("records", []).append(self._summary(record))
            self._write_index(index)
        return record.record_id

    @staticmethod
    def _summary(record: RunRecord) -> Dict[str, object]:
        return {
            "record_id": record.record_id,
            "kind": record.kind,
            "label": record.label,
            "created": record.created,
            "git_sha": str(record.git.get("sha", "unknown"))[:12],
            "dirty": bool(record.git.get("dirty", False)),
            "tiny": record.tiny,
            "fingerprint": record.config_fingerprint,
        }

    # -- reading ---------------------------------------------------------------

    def records(self) -> Iterator[RunRecord]:
        """Every record, oldest first (empty iterator if no store yet)."""
        if not os.path.exists(self.runs_path):
            return
        with open(self.runs_path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RunStoreError(
                        f"{self.runs_path}:{lineno}: corrupt record: {exc}") from exc
                yield RunRecord.from_json_dict(doc)

    def history(self, limit: Optional[int] = None,
                kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Index summaries, newest first."""
        index = self._load_index()
        rows = list(index.get("records", []))
        if kind is not None:
            rows = [r for r in rows if r.get("kind") == kind]
        rows.reverse()
        return rows[:limit] if limit else rows

    def load(self, record_id: str) -> RunRecord:
        for record in self.records():
            if record.record_id == record_id:
                return record
        raise RunStoreError(f"no record {record_id!r} in {self.root} "
                            f"(see 'repro history')")

    def latest(self, kind: Optional[str] = None, back: int = 0) -> RunRecord:
        """The most recent record (``back`` steps earlier if given)."""
        matches = [r for r in self.records()
                   if kind is None or r.kind == kind]
        if len(matches) <= back:
            raise RunStoreError(
                f"run store {self.root} holds {len(matches)} "
                f"{kind or 'any'}-kind record(s); cannot go back {back}")
        return matches[-1 - back]

    def resolve(self, ref: str) -> RunRecord:
        """A record from a flexible reference: ``latest`` / ``latest~N``,
        a record id from the store, or a path to a record JSON file (the
        committed golden baseline)."""
        if ref == "latest" or ref.startswith("latest~"):
            back = int(ref.split("~", 1)[1]) if "~" in ref else 0
            return self.latest(back=back)
        if os.path.sep in ref or ref.endswith(".json") or os.path.exists(ref):
            return load_record_file(ref)
        return self.load(ref)

    # -- the index cache -------------------------------------------------------

    def _load_index(self) -> Dict[str, object]:
        try:
            with open(self.index_path) as handle:
                index = json.load(handle)
            if not isinstance(index, dict):
                raise ValueError("index is not an object")
            return index
        except (OSError, ValueError):
            return self._rebuild_index()

    def _write_index(self, index: Dict[str, object]) -> None:
        # Unique temp name + os.replace: a crashed or concurrent writer
        # can never leave a torn index or clobber another's temp file.
        os.makedirs(self.root, exist_ok=True)
        tmp = f"{self.index_path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as handle:
                json.dump(index, handle, indent=2, sort_keys=True)
            os.replace(tmp, self.index_path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)

    def rebuild_index(self) -> Dict[str, object]:
        """Recreate the index cache from ``runs.jsonl`` (source of
        truth), serialised against concurrent appenders."""
        with self._locked():
            return self._rebuild_index()

    def _rebuild_index(self) -> Dict[str, object]:
        records = list(self.records()) if os.path.exists(self.runs_path) else []
        seqs = [int(r.record_id.split("-", 1)[0]) for r in records
                if r.record_id]
        index = {
            "version": 1,
            "next_seq": (max(seqs) + 1) if seqs else 1,
            "records": [self._summary(r) for r in records],
        }
        if records:
            self._write_index(index)
        return index


def load_record_file(path: str) -> RunRecord:
    """Read one record from a standalone JSON file (golden baselines)."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise RunStoreError(
            f"cannot read record file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RunStoreError(f"{path} is not valid JSON: {exc}") from exc
    return RunRecord.from_json_dict(doc)


# -- record filtering (`repro history`) ----------------------------------------

def record_matches(record: RunRecord, *, kind: Optional[str] = None,
                   workload: Optional[str] = None,
                   system: Optional[str] = None) -> bool:
    """Does one record satisfy every given filter?

    ``workload`` / ``system`` match against the record's ``results``
    grid and its ``speedups`` table (a record qualifies if the name
    appears in either), so filters work for run/compare/sweep records
    alike.
    """
    if kind is not None and record.kind != kind:
        return False
    if system is not None:
        systems = set(record.results)
        for table in record.speedups.values():
            systems.update(table)
        if system not in systems:
            return False
    if workload is not None:
        workloads = set(record.speedups)
        for table in record.results.values():
            workloads.update(table)
        if workload not in workloads:
            return False
    return True


def filter_history(store: RunStore, *, kind: Optional[str] = None,
                   workload: Optional[str] = None,
                   system: Optional[str] = None,
                   limit: Optional[int] = None) -> List[Dict[str, object]]:
    """Index-style summaries, newest first, honouring the full filter
    set.  With only ``kind``/``limit`` this reads the cheap index; the
    workload/system filters require the full records."""
    if workload is None and system is None:
        return store.history(limit=limit, kind=kind)
    rows = []
    for record in store.records():
        if record_matches(record, kind=kind, workload=workload,
                          system=system):
            rows.append(RunStore._summary(record))
    rows.reverse()
    return rows[:limit] if limit else rows
