"""Persistent experiment repository (sqlite) and run recorders.

See :mod:`repro.store.store` for the schema and design rules, and
``docs/experiments.md`` for the CLI workflow (``run --store``,
``repro experiments``, ``repro serve``).
"""

from .recorder import RunRecorder, StoreRecorder
from .store import (
    EXPERIMENT_STATUSES,
    SCHEMA_VERSION,
    ArtifactRow,
    ExperimentDiff,
    ExperimentRow,
    ExperimentStore,
    RunDiff,
    RunRow,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
)

__all__ = [
    "EXPERIMENT_STATUSES",
    "SCHEMA_VERSION",
    "ArtifactRow",
    "ExperimentDiff",
    "ExperimentRow",
    "ExperimentStore",
    "RunDiff",
    "RunRecorder",
    "RunRow",
    "StoreCorruptError",
    "StoreError",
    "StoreRecorder",
    "StoreSchemaError",
]
