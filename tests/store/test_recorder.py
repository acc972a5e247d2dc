"""Recorder tests: runner wiring, serial/parallel equivalence, concurrent
writes, and the fingerprint-neutrality contract against the golden table."""

from __future__ import annotations

import threading

import pytest

from repro.core.results import result_fingerprint
from repro.core.runner import repeat_simulation, run_simulation, sweep
from repro.store import ExperimentStore, StoreRecorder
from tests.conftest import quick_config
from tests.pinned import golden_config, golden_fingerprint, golden_protocols


@pytest.fixture
def store(tmp_path) -> ExperimentStore:
    handle = ExperimentStore(tmp_path / "exp.sqlite")
    yield handle
    handle.close()


class TestRunnerWiring:
    def test_serial_repeat_records_every_run(self, store):
        config = quick_config()
        recorder = StoreRecorder.open(
            store, "serial", "run", config, 3, labels=["a", "b", "c"]
        )
        results = repeat_simulation(config, 3, recorder=recorder)
        recorder.finish()

        rows = store.runs(recorder.experiment_id)
        assert [row.run_index for row in rows] == [0, 1, 2]
        assert [row.label for row in rows] == ["a", "b", "c"]
        assert [row.fingerprint for row in rows] == [
            result_fingerprint(result) for result in results
        ]
        assert store.experiment(recorder.experiment_id).status == "complete"

    def test_parallel_repeat_records_identically(self, store):
        config = quick_config()
        serial = StoreRecorder.open(store, "serial", "run", config, 4)
        repeat_simulation(config, 4, recorder=serial)
        serial.finish()

        parallel = StoreRecorder.open(store, "parallel", "run", config, 4)
        repeat_simulation(config, 4, jobs=2, recorder=parallel)
        parallel.finish()

        diff = store.diff(serial.experiment_id, parallel.experiment_id)
        assert diff.identical, diff.summary()

    def test_parallel_recording_is_live_not_batched(self, store):
        """Progress counters advance run by run, not once at the end."""
        config = quick_config()
        recorder = StoreRecorder.open(store, "live", "run", config, 4)
        seen: list[int] = []

        def spy(run_index, entry):
            recorder(run_index, entry)
            seen.append(store.experiment(recorder.experiment_id).done_runs)

        repeat_simulation(config, 4, jobs=2, recorder=spy)
        assert seen == [1, 2, 3, 4]

    def test_serial_sweep_uses_global_indices(self, store):
        config = quick_config()
        recorder = StoreRecorder.open(store, "sweep", "sweep", config, 4)
        sweep(config, [{"lam": 400.0}, {"lam": 800.0}], repetitions=2,
              recorder=recorder)
        recorder.finish()
        rows = store.runs(recorder.experiment_id)
        assert [row.run_index for row in rows] == [0, 1, 2, 3]
        assert [row.config["lam"] for row in rows] == [
            400.0, 400.0, 800.0, 800.0,
        ]

    def test_serial_and_parallel_sweep_record_identically(self, store):
        config = quick_config()
        variations = [{"lam": 400.0}, {"lam": 800.0}]
        serial = StoreRecorder.open(store, "s", "sweep", config, 4)
        sweep(config, variations, repetitions=2, recorder=serial)
        serial.finish()
        parallel = StoreRecorder.open(store, "p", "sweep", config, 4)
        sweep(config, variations, repetitions=2, jobs=2, recorder=parallel)
        parallel.finish()
        assert store.diff(serial.experiment_id, parallel.experiment_id).identical


class TestConcurrentWrites:
    def test_two_threads_share_one_store(self, store):
        """Two fleets recording into the same sqlite file concurrently —
        the dashboard scenario with several sweeps in flight."""
        config = quick_config()
        recorders = [
            StoreRecorder.open(store, f"fleet-{i}", "run", config, 3)
            for i in range(2)
        ]
        errors: list[Exception] = []

        def fleet(recorder):
            try:
                repeat_simulation(config, 3, jobs=2, recorder=recorder)
                recorder.finish()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=fleet, args=(recorder,))
            for recorder in recorders
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        for recorder in recorders:
            row = store.experiment(recorder.experiment_id)
            assert (row.status, row.done_runs) == ("complete", 3)
        assert store.diff(
            recorders[0].experiment_id, recorders[1].experiment_id
        ).identical


class TestFingerprintNeutrality:
    def test_golden_digest_unchanged_with_store_attached(self, store):
        """Recording must never perturb a run: every stored fingerprint
        equals the golden digest of the same configuration."""
        protocols = golden_protocols()
        recorder = StoreRecorder.open(
            store, "golden", "run", golden_config(protocols[0]),
            len(protocols), labels=protocols,
        )
        for index, protocol in enumerate(protocols):
            result = run_simulation(golden_config(protocol))
            recorder(index, result)
        recorder.finish()

        rows = store.runs(recorder.experiment_id)
        assert [row.fingerprint for row in rows] == [
            golden_fingerprint(protocol) for protocol in protocols
        ]

    def test_recorder_on_parallel_run_matches_golden(self, store):
        recorder = StoreRecorder.open(
            store, "golden-parallel", "run", golden_config("pbft"), 2
        )
        repeat_simulation(
            golden_config("pbft"), 2, jobs=2, recorder=recorder
        )
        recorder.finish()
        # Repetition seeds are seed+0, seed+1: slot 0 is the golden config.
        assert store.runs(recorder.experiment_id)[0].fingerprint \
            == golden_fingerprint("pbft")
