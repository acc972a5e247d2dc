"""One batch path: every entry point reaches ``run_batch``, and ``jobs=1``
(in-process) is indistinguishable from ``jobs=2`` (worker processes) in what
it returns, records and reports — for healthy runs and for failing ones.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.core.runner import repeat_simulation, sweep
from repro.parallel import ProgressUpdate, engine
from repro.store import ExperimentStore, StoreRecorder

# Registers the ``_test-raise`` crash-test protocol.
import tests.core.test_parallel  # noqa: F401
from tests.conftest import quick_config

LAMS = (400.0, 800.0)
REPS = 2
TOTAL = len(LAMS) * REPS
LABELS = [f"lam={lam} rep {rep}" for lam in LAMS for rep in range(REPS)]


def _via_repeat(protocol, jobs, store_path, progress):
    config = quick_config(protocol=protocol)
    with ExperimentStore(store_path) as store:
        recorder = StoreRecorder.open(
            store, "repeat", "run", config, TOTAL, labels=LABELS
        )
        repeat_simulation(
            config, TOTAL, jobs=jobs, on_error="record",
            progress=progress, recorder=recorder,
        )
        recorder.finish()


def _via_sweep(protocol, jobs, store_path, progress):
    config = quick_config(protocol=protocol)
    with ExperimentStore(store_path) as store:
        recorder = StoreRecorder.open(
            store, "sweep", "sweep", config, TOTAL, labels=LABELS
        )
        groups = sweep(
            config, [{"lam": lam} for lam in LAMS], REPS, jobs=jobs,
            on_error="record", progress=progress, recorder=recorder,
        )
        recorder.finish()
    assert [len(group) for group in groups] == [REPS] * len(LAMS)


def _via_cli(protocol, jobs, store_path, progress, monkeypatch):
    # The CLI prints progress only at --jobs != 1; hand it the spy always.
    monkeypatch.setattr(cli, "_progress_printer", lambda args: progress)
    code = cli.main([
        "sweep", "--protocol", protocol, "-n", "4", "--mean", "50",
        "--std", "10", "--lam", "500", "--decisions", "1", "--seed", "1",
        "--param", "lam", "--values", ",".join(str(lam) for lam in LAMS),
        "--reps", str(REPS), "--jobs", str(jobs), "--store", store_path,
    ])
    assert code == (0 if protocol == "pbft" else 1)


@pytest.mark.parametrize("protocol", ["pbft", "_test-raise"])
@pytest.mark.parametrize("entry", ["repeat", "sweep", "cli"])
def test_in_process_equals_workers(entry, protocol, tmp_path, monkeypatch):
    store_path = str(tmp_path / "exp.sqlite")
    finals: list[ProgressUpdate] = []
    for jobs in (1, 2):
        updates: list[ProgressUpdate] = []
        if entry == "repeat":
            _via_repeat(protocol, jobs, store_path, updates.append)
        elif entry == "sweep":
            _via_sweep(protocol, jobs, store_path, updates.append)
        else:
            _via_cli(protocol, jobs, store_path, updates.append, monkeypatch)
        assert len(updates) == TOTAL
        finals.append(updates[-1])

    healthy = protocol == "pbft"
    for final in finals:
        assert (final.total, final.completed, final.failed) == (
            (TOTAL, TOTAL, 0) if healthy else (TOTAL, 0, TOTAL)
        )
    assert finals[0].sim_time_ms == finals[1].sim_time_ms

    with ExperimentStore(store_path, create=False) as store:
        in_process, workers = store.runs(1), store.runs(2)
        # A failed run has no fingerprint and so matches nothing: the
        # failing batches are compared through their failure rows below.
        assert store.diff(1, 2).identical == healthy
        statuses = {store.experiment(1).status, store.experiment(2).status}
    assert statuses == {"complete" if healthy else "failed"}
    for rows in (in_process, workers):
        assert [(row.run_index, row.label) for row in rows] == list(
            enumerate(LABELS)
        )
    assert [row.fingerprint for row in in_process] == [
        row.fingerprint for row in workers
    ]
    assert all(bool(row.fingerprint) == healthy for row in in_process)
    # Failures read the same however the batch ran: type, message, attempts
    # and the formatted traceback of the simulation's own exception.
    assert [row.failure for row in in_process] == [
        row.failure for row in workers
    ]
    if not healthy:
        for row in in_process:
            assert row.failure["kind"] == "error"
            assert row.failure["error_type"] == "RuntimeError"
            assert "injected failure" in row.failure["traceback"]


def test_cli_sweep_starts_one_pool(monkeypatch):
    """A three-value ``--jobs 2`` sweep forks two workers, not two per value."""
    started: list[engine._Worker] = []
    original = engine._Worker.__init__

    def counting(self, ctx):
        original(self, ctx)
        started.append(self)

    monkeypatch.setattr(engine._Worker, "__init__", counting)
    assert cli.main([
        "sweep", "--protocol", "pbft", "-n", "4", "--mean", "50", "--std",
        "10", "--param", "lam", "--values", "300,400,800", "--reps", "2",
        "--jobs", "2",
    ]) == 0
    assert len(started) == 2
