"""Exception hierarchy for the EVE reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A system or SRAM configuration is internally inconsistent."""


class IsaError(ReproError):
    """A vector instruction is malformed or unsupported."""


class SramError(ReproError):
    """An SRAM array operation violates the array geometry or state."""


class LayoutError(ReproError):
    """A vector-register layout cannot be realised in the given array."""


class MicroProgramError(ReproError):
    """A micro-program is malformed (bad label, operand, or tuple)."""


class LintError(MicroProgramError):
    """A micro-program failed static verification.

    Carries the analyzer's full diagnostic list in :attr:`findings`
    (a tuple of :class:`repro.uops.lint.Finding`).
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)


class MicroExecutionError(ReproError):
    """A micro-program performed an illegal action at execution time."""


class MemoryModelError(ReproError):
    """A memory-system request or configuration is invalid."""


class SimulationError(ReproError):
    """A machine model reached an inconsistent simulation state."""


class WorkloadError(ReproError):
    """A workload was given invalid parameters."""


class ExperimentError(ReproError):
    """An experiment harness was asked for an impossible aggregation
    (e.g. a geometric mean over an empty app/system selection)."""


class RunStoreError(ReproError):
    """A run record is malformed or the run store cannot satisfy a lookup."""


class MetricsSchemaError(ReproError):
    """The metrics registry's naming schema is violated (colliding names
    or conflicting reserved prefixes)."""


class AnalysisError(ReproError):
    """A trace failed static analysis in strict mode.

    Carries the checkers' full diagnostic list in :attr:`findings`
    (a tuple of :class:`repro.uops.lint.Finding`).
    """

    def __init__(self, message: str, findings=()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)


class EventLogError(ReproError):
    """A telemetry event is malformed, the event log is corrupt, or an
    event-stream invariant (schema version, known kinds, watchdog
    configuration) is violated."""


class FaultInjectionError(ReproError):
    """A fault-injection or fuzzing request is malformed (unknown fault
    model, unreplayable case file, or an unarmable fault target)."""


class AttributionError(ReproError):
    """The cycle-attribution conservation invariant is violated.

    Raised by :meth:`repro.obs.attribution.AttributionCollector.\
require_conserved` when a unit's attributed cycles do not sum bit-exactly
    to the totals the machine model reported, or when the attributed
    timeline fails to cover the achieved cycle count.  Carries the
    per-(unit, bucket) deltas in :attr:`mismatches`.
    """

    def __init__(self, message: str, mismatches=()) -> None:
        super().__init__(message)
        self.mismatches = tuple(mismatches)
