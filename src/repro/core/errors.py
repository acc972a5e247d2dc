"""Exception hierarchy for the simulator.

Every error raised by :mod:`repro` derives from :class:`SimulationError` so
that callers can catch simulator failures without swallowing unrelated bugs.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the simulator."""


class ConfigurationError(SimulationError):
    """A simulation configuration is invalid or internally inconsistent."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or the queue was misused."""


class CapabilityError(SimulationError):
    """An attacker attempted an action its capabilities do not permit.

    The attacker framework enforces the threat model centrally: for example,
    dropping an honest node's message requires the ``NETWORK`` capability,
    and corrupting a node mid-run requires ``ADAPTIVE``.  Violations are
    programming errors in the attack implementation, not simulated events,
    so they raise instead of being silently ignored.
    """


class CorruptionBudgetError(CapabilityError):
    """An attacker attempted to corrupt more than ``f`` nodes."""


class SafetyViolationError(SimulationError):
    """Two honest nodes decided different values for the same slot.

    A correctly implemented BFT protocol must never trigger this under the
    threat model it was designed for; the metrics collector raises it as
    soon as conflicting decisions are reported so the failing execution is
    caught at the earliest possible point.
    """


class LivenessTimeoutError(SimulationError):
    """The simulation exceeded its horizon without reaching termination."""


class ValidationError(SimulationError):
    """The validator module found a mismatch against the ground truth."""


class ExperimentFailureError(SimulationError):
    """A batch of runs contained failures and the caller asked to raise.

    ``repeat_simulation``/``sweep`` collect per-run
    :class:`~repro.core.results.RunFailure` records; under the default
    ``on_error="raise"`` policy the first failure is re-raised as this
    exception (with every failure attached) once the batch finishes, so a
    parallel batch still completes its healthy runs before reporting.

    Attributes:
        failures: every :class:`~repro.core.results.RunFailure` in the batch.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        first = self.failures[0]
        more = f" (+{len(self.failures) - 1} more)" if len(self.failures) > 1 else ""
        super().__init__(f"{first.summary()}{more}")


class BaselineCapacityError(SimulationError):
    """The baseline (BFTSim-style) simulator exceeded its memory budget.

    Models the out-of-memory failures the paper reports for BFTSim beyond
    32 nodes (Fig. 2).
    """
