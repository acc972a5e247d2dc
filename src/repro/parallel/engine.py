"""The process-pool experiment engine.

The paper's evaluation repeats every experiment 100 times per configuration
and sweeps node counts, delay distributions, and attacks (§IV) — a workload
that is embarrassingly parallel because every run is a deterministic
function of its configuration (including the seed).  :class:`ParallelRunner`
fans independent runs across worker processes while preserving exactly the
results a serial execution would produce:

* **Deterministic ordering** — results come back in task (seed / variation)
  order regardless of which worker finishes first.
* **Deterministic content** — workers execute :func:`repro.core.runner.
  run_simulation` on pickled configurations, so every deterministic field of
  a :class:`~repro.core.results.SimulationResult` is identical to a serial
  run's (only ``wall_clock_seconds``, which measures host time, differs).
* **Fault isolation** — a run that raises inside the simulation yields a
  structured :class:`~repro.core.results.RunFailure` for its slot; a worker
  process that crashes (killed, segfault) or hangs past the per-run timeout
  is replaced with a fresh worker and the run is retried up to ``retries``
  times before being marked failed.  Other runs are never affected: no
  pool-wide exception, no lost batch.
* **Pipelined dispatch** — each worker holds up to two runs, the one it
  runs and the next, so it never idles while the parent records a reply
  (the fill rule and the timeout clock are at :class:`_Worker` and in
  ``docs/parallel.md``).
* **Observability** — an optional progress callback receives a
  :class:`ProgressUpdate` (runs completed / failed / elapsed wall time /
  accumulated simulated time) after every terminal run, so long sweeps can
  render live status.

Failure semantics in detail:

* An exception raised by the simulation itself (``SafetyViolationError``,
  ``LivenessTimeoutError``, a protocol bug...) is **not retried** — runs are
  deterministic, so the retry would fail identically.  It becomes a
  ``RunFailure(kind="error")`` immediately, carrying the exception type,
  message, and traceback text.
* A worker that dies without replying (``kind="crash"``) or exceeds the
  per-run wall-clock ``timeout`` (``kind="timeout"``) *is* retried — those
  failures come from the host (OOM killer, resource exhaustion), not from
  the deterministic simulation.  Each retry runs on a freshly spawned
  worker; after ``retries`` additional attempts the run is marked failed.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Callable, Iterable, Sequence

from ..core.config import SimulationConfig
from ..core.results import RunFailure, SimulationResult

#: Seconds the dispatch loop waits for worker replies before re-checking
#: deadlines; bounds timeout-detection latency without busy-waiting.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit cleanly before escalating to kill.
_JOIN_SECONDS = 1.0


def default_jobs() -> int:
    """The engine's default degree of parallelism: one worker per CPU."""
    return os.cpu_count() or 1


def _start_method() -> str:
    """Prefer ``fork`` (cheap, inherits registered protocols) when available."""
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def attempt(
    index: int, config: SimulationConfig, metrics: bool | float, health: bool | float
) -> tuple:
    """Run ``config`` once and describe the outcome as a wire reply.

    Replies are ``(index, "ok", SimulationResult)`` or ``(index, "error",
    exc_type_name, message, traceback_text)``.  This is the only place a
    run's exception is caught: worker processes call it, and so does the
    in-process loop of :func:`repro.core.runner.run_batch`, which is why a
    failure reads the same however the batch was executed.
    """
    # Imported here so the module import stays cheap under ``spawn``.
    from ..core.runner import run_simulation

    try:
        return (
            index, "ok",
            run_simulation(config, metrics=metrics, health=health),
        )
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # deliberate: report, don't die
        return (index, "error", type(exc).__name__, str(exc),
                traceback.format_exc())


def reply_entry(
    config: SimulationConfig, reply: tuple, attempts: int = 1
) -> SimulationResult | RunFailure:
    """The batch entry an :func:`attempt` reply stands for."""
    index, status, *payload = reply
    if status == "ok":
        return payload[0]
    error_type, message, tb = payload
    return RunFailure(
        config=config,
        kind="error",
        error_type=error_type,
        message=message,
        run_index=index,
        attempts=attempts,
        traceback=tb,
    )


def _worker_main(conn: connection.Connection) -> None:
    """Worker-process loop: receive configs, run them, reply with results.

    Tasks arrive as ``(task_index, config, metrics_option, health_option)``
    and are answered with the :func:`attempt` reply.  A ``None`` task is the
    shutdown sentinel.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if item is None:
            return
        try:
            reply = attempt(*item)
        except KeyboardInterrupt:
            return
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception as exc:  # unpicklable result — report instead
            conn.send((item[0], "error", type(exc).__name__,
                       f"result could not be pickled: {exc}", ""))


@dataclass(frozen=True)
class ProgressUpdate:
    """Snapshot handed to the progress callback after each terminal run.

    Attributes:
        total: number of runs in the batch.
        completed: runs finished successfully so far.
        failed: runs that ended as :class:`RunFailure` so far.
        elapsed_seconds: wall-clock time since the batch started.
        sim_time_ms: accumulated *simulated* time (sum of per-run latency)
            across completed runs — how much protocol time the batch has
            already explored.
        stalled: completed runs the liveness watchdog stopped with a
            :class:`~repro.core.results.StallReport` (they count as
            completed, not failed — a diagnosed stall is a result).
    """

    total: int
    completed: int
    failed: int
    elapsed_seconds: float
    sim_time_ms: float
    stalled: int = 0

    @property
    def done(self) -> int:
        """Runs with a terminal outcome (completed + failed)."""
        return self.completed + self.failed

    def summary(self) -> str:
        """One-line status, e.g. ``"37/100 done (2 failed) 12.3s wall, 84000ms sim"``."""
        failed = f" ({self.failed} failed)" if self.failed else ""
        stalled = f" ({self.stalled} stalled)" if self.stalled else ""
        return (
            f"{self.done}/{self.total} done{failed}{stalled} "
            f"{self.elapsed_seconds:.1f}s wall, {self.sim_time_ms:.0f}ms sim"
        )


class BatchLedger:
    """Terminal-run bookkeeping of one batch.

    Holds the output slots and the counts behind :class:`ProgressUpdate`,
    and feeds the recorder and progress hooks — once per terminal run, from
    the worker dispatch loop and from the in-process loop of
    :func:`repro.core.runner.run_batch` alike.
    """

    def __init__(
        self,
        total: int,
        recorder: Callable[[int, SimulationResult | RunFailure], None] | None,
        progress: Callable[[ProgressUpdate], None] | None,
    ) -> None:
        self.total = total
        self.recorder = recorder
        self.progress = progress
        self.out: dict[int, SimulationResult | RunFailure] = {}
        self.started = time.monotonic()
        self.completed = self.failed = self.stalled = 0
        self.sim_time_ms = 0.0

    def record(self, index: int, value: SimulationResult | RunFailure) -> None:
        self.out[index] = value
        if isinstance(value, RunFailure):
            self.failed += 1
        else:
            self.completed += 1
            self.sim_time_ms += value.latency
            if value.stalled:
                self.stalled += 1
        if self.recorder is not None:
            self.recorder(index, value)
        if self.progress is not None:
            self.progress(
                ProgressUpdate(
                    total=self.total,
                    completed=self.completed,
                    failed=self.failed,
                    elapsed_seconds=time.monotonic() - self.started,
                    sim_time_ms=self.sim_time_ms,
                    stalled=self.stalled,
                )
            )

    def results(self) -> list[SimulationResult | RunFailure]:
        """Every entry, in task order."""
        return [self.out[index] for index in range(self.total)]


class _Task:
    """One run: its slot in the output list, its config, attempts so far."""

    __slots__ = ("index", "config", "attempts")

    def __init__(self, index: int, config: SimulationConfig) -> None:
        self.index = index
        self.config = config
        self.attempts = 0


class _Worker:
    """A worker process plus the duplex pipe the parent drives it through.

    ``pending`` holds the runs sent down the pipe, oldest first: the head is
    running, and at most one more waits in the pipe so the worker starts it
    the moment the head ends.  ``deadline`` is the head's: it starts when a
    run reaches the head, not when it is sent.
    """

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        # The child's collections skip the heap it inherits, so they neither
        # walk nor copy-on-write the parent's pages (CPython's fork idiom).
        gc.freeze()
        try:
            self.process.start()
        finally:
            gc.unfreeze()
        child_conn.close()  # parent keeps only its end
        self.pending: deque[_Task] = deque()
        self.deadline: float | None = None

    def assign(
        self,
        task: _Task,
        timeout: float | None,
        metrics: bool | float = False,
        health: bool | float = False,
    ) -> None:
        if not self.pending:
            self._start_clock(timeout)
        self.pending.append(task)
        try:
            self.conn.send((task.index, task.config, metrics, health))
        except OSError:  # died meanwhile: the next wait() reads its EOF
            pass

    def finish(self, timeout: float | None) -> _Task:
        """Pop the head run, which replied; the next run's clock starts."""
        task = self.pending.popleft()
        self._start_clock(timeout)
        return task

    def _start_clock(self, timeout: float | None) -> None:
        self.deadline = (time.monotonic() + timeout) if timeout else None

    def timed_out(self, now: float) -> bool:
        return bool(self.pending) and self.deadline is not None and now > self.deadline

    def shutdown(self) -> None:
        """Best-effort clean exit, escalating to terminate/kill."""
        try:
            if self.process.is_alive() and not self.pending:
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_SECONDS)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_SECONDS)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(_JOIN_SECONDS)
        self.conn.close()

    def kill(self) -> None:
        """Hard-stop a crashed or hung worker."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_JOIN_SECONDS)
            if self.process.is_alive():  # pragma: no cover - stubborn child
                self.process.kill()
                self.process.join(_JOIN_SECONDS)
        self.conn.close()


class ParallelRunner:
    """Fans independent simulation runs across a pool of worker processes.

    Args:
        jobs: worker processes; ``None`` means one per CPU
            (:func:`default_jobs`).
        timeout: wall-clock seconds allowed per run attempt; ``None``
            disables the deadline.
        retries: additional attempts granted to a run whose worker crashed
            or hung (deterministic simulation errors are never retried).
        progress: optional callback receiving a :class:`ProgressUpdate`
            after every terminal run.
        metrics: sample engine metrics in every run (``True`` for the
            default interval, a float for a custom interval in simulated
            milliseconds); each result carries a
            :class:`~repro.observability.metrics.RunMetrics` and the runner
            exposes the merged fleet view as :attr:`fleet_metrics` after
            each batch.
        health: run the streaming anomaly detectors in every run (``True``
            for the default window, a float for a custom window in
            simulated milliseconds); each result carries a
            :class:`~repro.observability.health.HealthReport`.
        recorder: optional run recorder ``recorder(task_index, entry)``
            (e.g. a :class:`repro.store.StoreRecorder`), invoked in the
            parent process the moment a run reaches a terminal outcome —
            completion order, not task order — so a persistent store's
            progress rows update live while the fleet is still in flight.

    :meth:`map` returns results in deterministic task order; a failed run
    occupies its slot as a :class:`RunFailure` instead of aborting the
    batch.  Seed windows and sweep grids are built by
    :func:`repro.core.runner.repeat_simulation` and
    :func:`~repro.core.runner.sweep`, which hand their flat batch to
    :func:`~repro.core.runner.run_batch`.
    """

    def __init__(
        self,
        jobs: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
        progress: Callable[[ProgressUpdate], None] | None = None,
        metrics: bool | float = False,
        health: bool | float = False,
        recorder: Callable[[int, SimulationResult | RunFailure], None] | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.metrics = metrics
        self.health = health
        self.recorder = recorder
        #: Merged :class:`~repro.observability.metrics.RunMetrics` of the
        #: most recent batch (``None`` until a metered batch completes).
        self.fleet_metrics = None
        self._ctx = get_context(_start_method())

    def map(
        self, configs: Iterable[SimulationConfig]
    ) -> list[SimulationResult | RunFailure]:
        """Run every configuration; results in input order."""
        configs = list(configs)
        if not configs:
            return []
        return self._execute([_Task(i, c) for i, c in enumerate(configs)])

    def _execute(
        self, tasks: Sequence[_Task]
    ) -> list[SimulationResult | RunFailure]:
        total = len(tasks)
        queue: deque[_Task] = deque(tasks)
        ledger = BatchLedger(total, self.recorder, self.progress)
        workers = [_Worker(self._ctx) for _ in range(min(self.jobs, total))]
        finished: list[tuple[int, SimulationResult | RunFailure]] = []

        def fill() -> None:
            """Breadth first: every idle worker gets a run, then a busy one
            gets a second while the queue holds at least one run per worker,
            so the tail of the batch never waits behind a long run."""
            for worker in workers:
                if not worker.pending and queue:
                    worker.assign(queue.popleft(), self.timeout, self.metrics, self.health)
            for worker in workers:
                if len(worker.pending) == 1 and len(queue) >= len(workers):
                    worker.assign(queue.popleft(), self.timeout, self.metrics, self.health)

        def fail_or_retry(worker: _Worker, kind: str, message: str) -> None:
            """Handle a crashed or hung worker: replace it, retry or fail its
            head run, and put the run waiting behind it back in the queue."""
            task, *waiting = worker.pending
            worker.pending.clear()
            worker.kill()
            workers[workers.index(worker)] = _Worker(self._ctx)
            queue.extendleft(reversed(waiting))
            task.attempts += 1
            if task.attempts <= self.retries:
                queue.appendleft(task)
            else:
                finished.append((
                    task.index,
                    RunFailure(
                        config=task.config,
                        kind=kind,
                        error_type=kind,
                        message=message,
                        run_index=task.index,
                        attempts=task.attempts,
                    ),
                ))

        try:
            fill()
            while len(ledger.out) < total:
                busy = {w.conn: w for w in workers if w.pending}
                if not busy:  # pragma: no cover - defensive
                    break
                ready = connection.wait(list(busy), timeout=_POLL_SECONDS)
                for conn in ready:
                    worker = busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        fail_or_retry(
                            worker, "crash",
                            "worker process died without reporting a result",
                        )
                        continue
                    task = worker.finish(self.timeout)
                    assert reply[0] == task.index, "worker replied out of turn"
                    finished.append(
                        (task.index, reply_entry(task.config, reply, task.attempts + 1))
                    )
                now = time.monotonic()
                for worker in list(workers):
                    if worker.timed_out(now):
                        fail_or_retry(
                            worker, "timeout",
                            f"run exceeded the per-run timeout of {self.timeout}s",
                        )
                # Send the next runs before recording this round's replies,
                # so no worker idles while the parent writes the store.
                fill()
                for index, entry in finished:
                    ledger.record(index, entry)
                finished.clear()
        finally:
            for worker in workers:
                worker.shutdown()
        results = ledger.results()
        metrics = [
            entry.run_metrics
            for entry in results
            if isinstance(entry, SimulationResult) and entry.run_metrics is not None
        ]
        if metrics:
            from ..observability.metrics import RunMetrics

            self.fleet_metrics = RunMetrics.merge(metrics)
        return results
