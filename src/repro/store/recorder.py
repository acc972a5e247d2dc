"""Opt-in run recorders bridging the runners to the experiment store.

A *recorder* is just a callable ``recorder(run_index, entry)`` invoked once
per terminal run (``entry`` is a :class:`~repro.core.results.SimulationResult`
or :class:`~repro.core.results.RunFailure`).
:func:`repro.core.runner.run_batch` calls it as each run finishes — from the
worker dispatch loop the moment a worker reports when the batch runs on
:class:`~repro.parallel.ParallelRunner` workers, i.e. in *completion order*,
which is what makes the store's progress rows live while a fleet is still in
flight (the run rows themselves land keyed by ``run_index``, so the stored
order is still deterministic).

:class:`StoreRecorder` is the standard implementation: it owns one
experiment row, inserts one run row per callback, and closes the experiment
when told the batch is over.  Because recording happens strictly after a run
completes it can never perturb the run — fingerprints with a recorder
attached are byte-identical to bare runs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..core.config import SimulationConfig
from ..core.results import RunFailure, SimulationResult
from .store import ExperimentStore

#: The recorder contract the runners accept.
RunRecorder = Callable[[int, "SimulationResult | RunFailure"], None]


class StoreRecorder:
    """Records one experiment's runs into an :class:`ExperimentStore`.

    Args:
        store: the open store to write into.
        experiment_id: id of an experiment created beforehand (or use
            :meth:`open` to create it in one step).
        labels: optional per-run-index display labels (e.g. the sweep
            variation a run belongs to, ``"lam=400 rep 2"``) — a sequence
            indexed by run index, or a sparse ``{run_index: label}`` mapping.
        trace_paths: optional per-run-index JSONL trace pointers recorded
            alongside the metrics; sequence or sparse mapping like ``labels``.
    """

    def __init__(
        self,
        store: ExperimentStore,
        experiment_id: int,
        *,
        labels: Sequence[str] | Mapping[int, str] | None = None,
        trace_paths: Sequence[str | None] | Mapping[int, str] | None = None,
    ) -> None:
        self.store = store
        self.experiment_id = experiment_id
        self.labels = _by_index(labels)
        self.trace_paths = _by_index(trace_paths)
        #: run_index -> store run id, filled as results arrive.
        self.run_ids: dict[int, int] = {}

    @classmethod
    def open(
        cls,
        store: ExperimentStore,
        name: str,
        kind: str,
        config: SimulationConfig | dict[str, Any],
        total_runs: int,
        *,
        params: dict[str, Any] | None = None,
        labels: Sequence[str] | Mapping[int, str] | None = None,
        trace_paths: Sequence[str | None] | Mapping[int, str] | None = None,
    ) -> "StoreRecorder":
        """Create the experiment row and a recorder for it in one step."""
        experiment_id = store.create_experiment(
            name, kind, config, total_runs, params=params
        )
        return cls(
            store, experiment_id, labels=labels, trace_paths=trace_paths
        )

    def __call__(
        self, run_index: int, entry: "SimulationResult | RunFailure"
    ) -> None:
        label = self.labels.get(run_index) or ""
        trace_path = self.trace_paths.get(run_index)
        self.run_ids[run_index] = self.store.record_run(
            self.experiment_id, run_index, entry,
            label=label, trace_path=trace_path,
        )

    def finish(self, status: str | None = None) -> None:
        """Close the experiment row (see :meth:`ExperimentStore.finish_experiment`)."""
        self.store.finish_experiment(self.experiment_id, status)


def _by_index(
    values: Sequence[Any] | Mapping[int, Any] | None,
) -> dict[int, Any]:
    """Normalize a sequence or sparse mapping to ``{run_index: value}``."""
    if values is None:
        return {}
    if isinstance(values, Mapping):
        return {int(index): value for index, value in values.items()}
    return {index: value for index, value in enumerate(values)}

