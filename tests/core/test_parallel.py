"""Tests for the parallel experiment engine.

Covers the determinism contract (serial and parallel batches are
field-identical apart from ``wall_clock_seconds``), deterministic result
ordering, failure isolation (simulation errors, killed workers, hung
workers), retry accounting, progress reporting, and the picklable result
contract.

The crash-test protocols below register under underscore-prefixed names;
the golden determinism suite skips those by convention.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import Counter

import pytest

from repro import (
    ParallelRunner,
    ProgressUpdate,
    RunFailure,
    repeat_simulation,
    result_fingerprint,
    run_simulation,
)
from repro.core.errors import ConfigurationError, ExperimentFailureError
from repro.core.runner import sweep
from repro.parallel import engine
from repro.protocols.base import BFTProtocol
from repro.protocols.pbft import PBFTNode
from repro.protocols.registry import register_protocol

from tests.conftest import quick_config


def _register_crash_protocols() -> None:
    """Idempotently register the misbehaving protocols used below.

    They are inherited by fork-started workers, so a worker process runs
    them exactly as the parent would.
    """
    try:
        @register_protocol("_test-raise")
        class RaisingProtocol(BFTProtocol):
            """Raises inside a protocol hook — a deterministic failure."""

            def on_start(self) -> None:
                raise RuntimeError("injected failure in on_start")

        @register_protocol("_test-kill")
        class KilledProtocol(BFTProtocol):
            """Kills its own worker process mid-run — a crash failure."""

            def on_start(self) -> None:
                os._exit(42)

        @register_protocol("_test-hang")
        class HangingProtocol(BFTProtocol):
            """Blocks forever — a timeout failure."""

            def on_start(self) -> None:
                time.sleep(600)

        @register_protocol("_test-slow")
        class SlowProtocol(PBFTNode):
            """PBFT whose node 0 first sleeps a second — slow but healthy."""

            def on_start(self) -> None:
                if self.id == 0:
                    time.sleep(1.0)
                super().on_start()
    except ConfigurationError:
        pass  # already registered by a previous import of this module


_register_crash_protocols()


def fingerprints(entries) -> list[str]:
    return [result_fingerprint(r) for r in entries]


class TestUnlistedRegistration:
    def test_crash_doubles_resolvable_but_unlisted(self):
        """Underscore-named protocols must stay out of every enumeration
        (protocol matrices, CLI listing, golden table) while remaining
        usable from explicit configurations."""
        from repro import available_protocols, get_protocol

        listed = available_protocols()
        assert "_test-raise" not in listed
        assert "_test-kill" not in listed
        assert "_test-hang" not in listed
        assert "_test-slow" not in listed
        assert get_protocol("_test-raise").protocol_name == "_test-raise"


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("protocol", ["pbft", "hotstuff-ns", "algorand"])
    def test_repeat_jobs4_equals_jobs1(self, protocol):
        """The acceptance contract: jobs=1 and jobs=4 produce
        field-identical result lists for the same config."""
        config = quick_config(protocol=protocol, seed=11)
        serial = repeat_simulation(config, 8, jobs=1)
        parallel = repeat_simulation(config, 8, jobs=4)
        assert len(parallel) == 8
        assert fingerprints(serial) == fingerprints(parallel)
        for s, p in zip(serial, parallel):
            assert s.config == p.config
            assert s.latency == p.latency
            assert s.messages == p.messages
            assert s.counts == p.counts
            assert s.decisions == p.decisions
            assert s.decided_values == p.decided_values
            assert s.faulty == p.faulty
            assert s.events_processed == p.events_processed
            assert s.max_view == p.max_view
            assert s.terminated == p.terminated

    def test_traces_identical_too(self):
        config = quick_config(seed=3, record_trace=True)
        serial = repeat_simulation(config, 3, jobs=1)
        parallel = repeat_simulation(config, 3, jobs=3)
        for s, p in zip(serial, parallel):
            assert s.trace.to_jsonl() == p.trace.to_jsonl()

    def test_results_in_seed_order_regardless_of_completion(self):
        """Mix slow (large) and fast (small) configs: output order must be
        input order, not completion order."""
        configs = [
            quick_config(n=16, seed=50),  # slowest first
            quick_config(n=4, seed=51),
            quick_config(n=7, seed=52),
            quick_config(n=4, seed=53),
        ]
        out = ParallelRunner(jobs=4).map(configs)
        assert [r.config.n for r in out] == [16, 4, 7, 4]
        assert [r.config.seed for r in out] == [50, 51, 52, 53]
        assert fingerprints(out) == [
            result_fingerprint(run_simulation(c)) for c in configs
        ]

    def test_sweep_jobs_equals_serial(self):
        variations = [{"n": 4}, {"n": 7}]
        serial = sweep(quick_config(seed=9), variations, repetitions=2, jobs=1)
        parallel = sweep(quick_config(seed=9), variations, repetitions=2, jobs=4)
        assert [[f for f in fingerprints(g)] for g in serial] == [
            [f for f in fingerprints(g)] for g in parallel
        ]
        assert parallel[0][0].config.n == 4
        assert parallel[1][0].config.n == 7

    def test_empty_map(self):
        assert ParallelRunner(jobs=2).map([]) == []


class TestFailureIsolation:
    def test_simulation_error_becomes_run_failure(self):
        """A config that raises in a protocol hook yields a RunFailure and
        does not abort the remaining runs (the acceptance criterion)."""
        configs = [
            quick_config(seed=1),
            quick_config(protocol="_test-raise", seed=2),
            quick_config(seed=3),
        ]
        out = ParallelRunner(jobs=2).map(configs)
        assert out[0].terminated and out[2].terminated
        failure = out[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "error"
        assert failure.error_type == "RuntimeError"
        assert "injected failure in on_start" in failure.message
        assert "on_start" in failure.traceback
        assert failure.run_index == 1
        assert failure.config.seed == 2
        assert failure.attempts == 1, "deterministic errors are not retried"

    def test_killed_worker_is_retried_then_recorded(self):
        configs = [quick_config(protocol="_test-kill", seed=1), quick_config(seed=2)]
        out = ParallelRunner(jobs=2, retries=2).map(configs)
        failure = out[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 3, "initial attempt + 2 retries"
        assert out[1].terminated, "the healthy run must survive the crashes"

    def test_hung_worker_times_out(self):
        configs = [quick_config(protocol="_test-hang", seed=1), quick_config(seed=2)]
        started = time.monotonic()
        out = ParallelRunner(jobs=2, timeout=0.5, retries=0).map(configs)
        elapsed = time.monotonic() - started
        failure = out[0]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert out[1].terminated
        assert elapsed < 30, "the hung worker must be killed, not awaited"

    @pytest.mark.parametrize("waiting", ["pbft", "_test-raise"])
    def test_killed_worker_requeues_its_waiting_run(self, waiting):
        """One worker holds the crashing run and the next one in its pipe:
        the crashing run is retried per ``retries``; the waiting run goes
        back to the queue untouched and runs once, as a serial run would."""
        configs = [
            quick_config(protocol="_test-kill", seed=1),
            quick_config(protocol=waiting, seed=2),
        ]
        out = ParallelRunner(jobs=1, retries=1).map(configs)
        crash = out[0]
        assert isinstance(crash, RunFailure) and crash.kind == "crash"
        assert crash.attempts == 2, "initial attempt + 1 retry"
        if waiting == "pbft":
            assert fingerprints(out[1:]) == fingerprints([run_simulation(configs[1])])
        else:
            assert out[1].kind == "error"
            assert out[1].attempts == 1, "a waiting run is not charged the crash"

    def test_on_error_raise_after_batch(self):
        with pytest.raises(ExperimentFailureError) as excinfo:
            repeat_simulation(quick_config(protocol="_test-raise"), 2, jobs=2)
        assert len(excinfo.value.failures) == 2
        assert all(f.kind == "error" for f in excinfo.value.failures)

    def test_serial_on_error_record_matches_parallel(self):
        config = quick_config(protocol="_test-raise", seed=5)
        serial = repeat_simulation(config, 2, jobs=1, on_error="record")
        parallel = repeat_simulation(config, 2, jobs=2, on_error="record")
        for s, p in zip(serial, parallel):
            assert isinstance(s, RunFailure) and isinstance(p, RunFailure)
            assert s == p
            assert "injected failure in on_start" in s.traceback

    def test_serial_on_error_raise_propagates(self):
        with pytest.raises(RuntimeError):
            repeat_simulation(quick_config(protocol="_test-raise"), 1, jobs=1)


class TestPipelinedDispatch:
    """Each worker holds up to two runs: the one running and the next."""

    @staticmethod
    def _depths(monkeypatch) -> list[tuple[int, int]]:
        """(worker, runs it holds) after every assignment, in order."""
        seen: list[tuple[int, int]] = []
        original = engine._Worker.assign

        def recording(self, task, *args):
            original(self, task, *args)
            seen.append((id(self), len(self.pending)))

        monkeypatch.setattr(engine._Worker, "assign", recording)
        return seen

    def test_fill_is_breadth_first_then_two_deep(self, monkeypatch):
        seen = self._depths(monkeypatch)
        configs = [quick_config(seed=s) for s in range(1, 7)]
        out = ParallelRunner(jobs=2).map(configs)
        assert fingerprints(out) == fingerprints(map(run_simulation, configs))
        assert [depth for _, depth in seen[:4]] == [1, 1, 2, 2]
        assert len({worker for worker, _ in seen[:2]}) == 2

    @pytest.mark.parametrize("jobs, runs", [(3, 3), (2, 3)])
    def test_no_second_run_unless_the_queue_holds_one_per_worker(
        self, monkeypatch, jobs, runs
    ):
        seen = self._depths(monkeypatch)
        ParallelRunner(jobs=jobs).map([quick_config(seed=s) for s in range(runs)])
        assert max(depth for _, depth in seen) == 1
        if jobs == runs:
            assert sorted(Counter(w for w, _ in seen).values()) == [1] * jobs

    def test_a_run_sent_to_a_dead_worker_is_held_for_its_crash(self):
        """A worker can die after the parent's last wait() and before it
        sends the next run: the send fails quietly and the run stays held,
        so the next round reads the EOF and re-queues it."""
        worker = engine._Worker(ParallelRunner(jobs=1)._ctx)
        try:
            worker.process.kill()
            worker.process.join()
            task = engine._Task(0, quick_config())
            worker.assign(task, None)
            assert list(worker.pending) == [task]
            with pytest.raises(EOFError):
                worker.conn.recv()
        finally:
            worker.kill()

    def test_waiting_run_is_not_timed_out_before_it_starts(self):
        """One worker holds both slow runs; each needs ~1 s of its 1.5-s
        deadline, which would expire the second at 1.5 s were its clock
        started when it was sent rather than when it reached the head."""
        configs = [quick_config(protocol="_test-slow", seed=s) for s in (1, 2)]
        out = ParallelRunner(jobs=1, timeout=1.5, retries=0).map(configs)
        assert not any(isinstance(entry, RunFailure) for entry in out)
        assert all(entry.terminated for entry in out)


class TestProgressAndOptions:
    def test_progress_callback_counts(self):
        updates: list[ProgressUpdate] = []
        out = repeat_simulation(
            quick_config(seed=1), 4, jobs=2, progress=updates.append
        )
        assert len(updates) == 4
        final = updates[-1]
        assert (final.total, final.completed, final.failed) == (4, 4, 0)
        assert final.done == 4
        assert final.sim_time_ms == pytest.approx(sum(r.latency for r in out))
        assert final.elapsed_seconds > 0
        assert "4/4 done" in final.summary()

    def test_progress_counts_failures(self):
        updates: list[ProgressUpdate] = []
        ParallelRunner(jobs=2, progress=updates.append).map(
            [quick_config(seed=1), quick_config(protocol="_test-raise", seed=2)]
        )
        final = updates[-1]
        assert final.completed == 1 and final.failed == 1
        assert "(1 failed)" in final.summary()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"jobs": -1},
            {"timeout": 0},
            {"timeout": -1.0},
            {"retries": -1},
            {"on_error": "ignore"},
        ],
    )
    def test_invalid_batch_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            repeat_simulation(quick_config(), 1, **kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"jobs": 0}, {"timeout": -2}, {"retries": -1}]
    )
    def test_runner_rejects_invalid_options(self, kwargs):
        with pytest.raises(ValueError):
            ParallelRunner(**kwargs)

    def test_timeout_with_single_job_uses_engine(self):
        """jobs=1 plus a timeout still protects against hangs."""
        out = repeat_simulation(
            quick_config(protocol="_test-hang"), 1,
            jobs=1, timeout=0.5, retries=0, on_error="record",
        )
        assert isinstance(out[0], RunFailure)
        assert out[0].kind == "timeout"


class TestPicklableContract:
    def test_result_round_trips_through_pickle(self):
        result = run_simulation(quick_config(seed=4, record_trace=True))
        clone = pickle.loads(pickle.dumps(result))
        assert result_fingerprint(clone, include_trace=True) == result_fingerprint(
            result, include_trace=True
        )
        assert clone.trace.to_jsonl() == result.trace.to_jsonl()

    def test_failure_round_trips_through_pickle(self):
        failure = RunFailure(
            config=quick_config(),
            kind="crash",
            error_type="crash",
            message="worker died",
            run_index=3,
            attempts=2,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure
        assert "FAILED (crash)" in clone.summary()

    def test_fingerprint_ignores_wall_clock(self):
        result = run_simulation(quick_config(seed=8))
        slower = pickle.loads(pickle.dumps(result))
        slower.wall_clock_seconds = result.wall_clock_seconds + 1.0
        assert result_fingerprint(slower) == result_fingerprint(result)
