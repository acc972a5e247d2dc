"""The validator module: trace replay and cross-checking (paper §III-A6)."""

from .compare import (
    ValidationReport,
    compare_decisions,
    compare_event_sequences,
    decisions_of,
    event_signature,
)
from .replay import (
    RecordedDelays,
    ReplayController,
    extract_delivery_schedule,
    replay_simulation,
)

__all__ = [
    "RecordedDelays", "ReplayController", "ValidationReport", "compare_decisions",
    "compare_event_sequences", "decisions_of", "event_signature",
    "extract_delivery_schedule", "replay_simulation",
]
