"""Record differ: compare two run records under per-metric tolerances.

Three tolerance-policy kinds cover everything a run record contains:

* **exact** — deterministic simulation outputs (cycle counts,
  instruction counts).  Any mismatch is a change; when the metric has a
  direction (cycles: lower is better) the change classifies as an
  improvement or a regression.
* **relative** — noisy host-side measurements (wall-clock seconds).
  Differences inside a relative epsilon are "same"; beyond it they
  classify by direction.  Wall-clock entries are advisory by default
  (``gate=False``) so CI noise cannot fail a build.
* **direction** — speedups.  Only movement *against* the metric's good
  direction beyond the budget is a regression; getting faster is an
  improvement, never a failure.

The differ reports added/removed keys, renders a human table via
:func:`repro.experiments.report.format_table`, emits machine-readable
JSON, and drives the CLI's nonzero-on-regression exit code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from .runstore import RunRecord, flatten_record

#: Relative budget a speedup may lose before the gate calls it a regression.
DEFAULT_SPEEDUP_BUDGET = 0.05

#: Relative epsilon for host wall-clock comparisons (noisy across hosts).
WALLCLOCK_EPSILON = 0.75

#: Floating-point slack for "exact" comparisons of float-typed counters.
EXACT_SLACK = 1e-9

STATUS_ORDER = ("regressed", "changed", "removed", "added", "improved", "same")


@dataclass(frozen=True)
class TolerancePolicy:
    """How one metric family is compared.

    ``higher_is_better`` gives the metric a direction (``None`` means a
    difference is just a "change"); ``gate`` says whether a regression
    under this policy should fail the build.
    """

    kind: str  # "exact" | "relative" | "direction"
    rel_eps: float = 0.0
    higher_is_better: Optional[bool] = None
    gate: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "relative", "direction"):
            raise ValueError(f"unknown tolerance-policy kind {self.kind!r}")
        if self.kind == "direction" and self.higher_is_better is None:
            raise ValueError("direction policies need higher_is_better")
        if self.rel_eps < 0:
            raise ValueError("rel_eps must be non-negative")

    def classify(self, baseline: float, current: float) -> str:
        """One of ``same`` / ``improved`` / ``regressed`` / ``changed``."""
        if self.kind == "exact":
            if abs(current - baseline) <= EXACT_SLACK:
                return "same"
            return self._directional(baseline, current)
        # relative and direction both use a relative band around baseline.
        scale = max(abs(baseline), EXACT_SLACK)
        if abs(current - baseline) <= self.rel_eps * scale:
            return "same"
        return self._directional(baseline, current)

    def _directional(self, baseline: float, current: float) -> str:
        if self.higher_is_better is None:
            return "changed"
        got_better = (current > baseline) == self.higher_is_better
        return "improved" if got_better else "regressed"


def exact(higher_is_better: Optional[bool] = None,
          gate: bool = True) -> TolerancePolicy:
    return TolerancePolicy("exact", higher_is_better=higher_is_better,
                           gate=gate)


def relative(rel_eps: float, higher_is_better: Optional[bool] = None,
             gate: bool = False) -> TolerancePolicy:
    return TolerancePolicy("relative", rel_eps=rel_eps,
                           higher_is_better=higher_is_better, gate=gate)


def direction(rel_eps: float = DEFAULT_SPEEDUP_BUDGET,
              higher_is_better: bool = True,
              gate: bool = True) -> TolerancePolicy:
    return TolerancePolicy("direction", rel_eps=rel_eps,
                           higher_is_better=higher_is_better, gate=gate)


#: Ordered (pattern, policy) pairs; first match wins.  Patterns match the
#: flat key families produced by :func:`repro.obs.runstore.flatten_record`.
def default_policies(
        speedup_budget: float = DEFAULT_SPEEDUP_BUDGET,
) -> List[Tuple[str, TolerancePolicy]]:
    return [
        ("speedup.*", direction(speedup_budget, higher_is_better=True)),
        ("results.*.cycles", exact(higher_is_better=False)),
        ("results.*.time_ns", exact(higher_is_better=False)),
        ("results.*.instructions", exact(higher_is_better=None)),
        ("metrics.*", exact(higher_is_better=None, gate=False)),
        # Attribution shares are deterministic fractions of the (exact)
        # cycle count; a small relative budget absorbs trace-content
        # shifts while still flagging genuine bottleneck drift.  Gated,
        # so ``repro diff --strict`` enforces golden-file discipline.
        ("attribution.*", relative(0.05, higher_is_better=None, gate=True)),
        ("self_profile.*.seconds",
         relative(WALLCLOCK_EPSILON, higher_is_better=False, gate=False)),
        ("bench.*", relative(WALLCLOCK_EPSILON, higher_is_better=False,
                             gate=False)),
        ("*", relative(WALLCLOCK_EPSILON, higher_is_better=None,
                       gate=False)),
    ]


def policy_for(name: str,
               policies: Sequence[Tuple[str, TolerancePolicy]],
               ) -> TolerancePolicy:
    for pattern, policy in policies:
        if fnmatchcase(name, pattern):
            return policy
    return relative(WALLCLOCK_EPSILON, gate=False)


@dataclass
class DiffEntry:
    name: str
    baseline: Optional[float]
    current: Optional[float]
    status: str
    policy: str
    gate: bool

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def rel_delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None or not self.baseline:
            return None
        return (self.current - self.baseline) / abs(self.baseline)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
            "status": self.status,
            "policy": self.policy,
            "gate": self.gate,
        }


class RecordDiff:
    """The comparison of two records; drives tables, JSON, exit codes."""

    def __init__(self, baseline: RunRecord, current: RunRecord,
                 entries: List[DiffEntry]) -> None:
        self.baseline = baseline
        self.current = current
        self.entries = entries

    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries
                if e.status == "regressed" and e.gate]

    def gated_changes(self) -> List[DiffEntry]:
        return [e for e in self.entries
                if e.gate and e.status in ("changed", "regressed")]

    def interesting(self) -> List[DiffEntry]:
        """Everything except unchanged entries, worst first."""
        rank = {status: i for i, status in enumerate(STATUS_ORDER)}
        rows = [e for e in self.entries if e.status != "same"]
        rows.sort(key=lambda e: (rank[e.status], e.name))
        return rows

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {status: 0 for status in STATUS_ORDER}
        for entry in self.entries:
            out[entry.status] += 1
        return out

    def exit_code(self, strict: bool = False) -> int:
        """Nonzero on any gated regression (``strict``: on any gated
        change at all, the golden-file discipline)."""
        failing = self.gated_changes() if strict else self.regressions()
        return 1 if failing else 0

    def source_match(self) -> Optional[bool]:
        """Did both records' results come from the same model code?
        ``None`` when either record predates the source fingerprint."""
        base = self.baseline.source_fingerprint
        current = self.current.source_fingerprint
        if not base or not current:
            return None
        return base == current

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "baseline": {"record_id": self.baseline.record_id,
                         "kind": self.baseline.kind,
                         "label": self.baseline.label,
                         "git_sha": self.baseline.git.get("sha", "unknown"),
                         "fingerprint": self.baseline.config_fingerprint,
                         "source": self.baseline.source_fingerprint},
            "current": {"record_id": self.current.record_id,
                        "kind": self.current.kind,
                        "label": self.current.label,
                        "git_sha": self.current.git.get("sha", "unknown"),
                        "fingerprint": self.current.config_fingerprint,
                        "source": self.current.source_fingerprint},
            "fingerprint_match": (self.baseline.config_fingerprint
                                  == self.current.config_fingerprint),
            "source_match": self.source_match(),
            "counts": self.counts(),
            "regressions": [e.name for e in self.regressions()],
            "entries": [e.to_json_dict() for e in self.interesting()],
        }

    def table_rows(self) -> List[List[object]]:
        rows = []
        for entry in self.interesting():
            rows.append([
                entry.name,
                "-" if entry.baseline is None else entry.baseline,
                "-" if entry.current is None else entry.current,
                "-" if entry.rel_delta is None
                else f"{entry.rel_delta:+.1%}",
                entry.status + ("" if entry.gate else " (advisory)"),
            ])
        return rows


def diff_records(baseline: RunRecord, current: RunRecord,
                 policies: Optional[Sequence[Tuple[str,
                                                   TolerancePolicy]]] = None,
                 speedup_budget: float = DEFAULT_SPEEDUP_BUDGET,
                 ) -> RecordDiff:
    """Compare two records key-by-key under the tolerance policies."""
    if policies is None:
        policies = default_policies(speedup_budget)
    flat_base = flatten_record(baseline)
    flat_cur = flatten_record(current)
    entries: List[DiffEntry] = []
    for name in sorted(set(flat_base) | set(flat_cur)):
        policy = policy_for(name, policies)
        base_v = flat_base.get(name)
        cur_v = flat_cur.get(name)
        if base_v is None:
            status = "added"
        elif cur_v is None:
            status = "removed"
        else:
            status = policy.classify(base_v, cur_v)
        entries.append(DiffEntry(name=name, baseline=base_v, current=cur_v,
                                 status=status, policy=policy.kind,
                                 gate=policy.gate))
    return RecordDiff(baseline, current, entries)
