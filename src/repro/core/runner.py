"""High-level entry points for running simulations.

:func:`run_simulation` executes one configuration.  Everything that runs more
than one goes through :func:`run_batch`, the one batch routine: it decides
between in-process execution (``jobs == 1`` and no ``timeout``) and
:class:`repro.parallel.ParallelRunner` worker processes, turns a run's
exception into a :class:`~repro.core.results.RunFailure`, and feeds the
recorder and progress hooks.  :func:`repeat_simulation` (the paper repeats
every experiment 100 times and reports mean and standard deviation, §IV) is
a seed window handed to it; :func:`sweep` is a flattened grid handed to it
and regrouped.  Worker execution returns exactly the entries in-process
execution would, in the same order — only ``wall_clock_seconds`` (host time)
differs.

Large systems (n in the hundreds to 1000) are practical in every
dissemination mode: a benign broadcast costs one shared delivery event
and one vectorized delay batch, never per-recipient copies.  Select a
relayed overlay (``NetworkConfig.dissemination = "tree"`` or ``"gossip"``)
to *model* relays; see ``docs/scaling.md``.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..observability.health import DEFAULT_WINDOW_MS, HealthMonitor
from ..observability.metrics import DEFAULT_INTERVAL_MS, MetricsRegistry
from .config import SimulationConfig
from .controller import Controller
from .errors import ExperimentFailureError
from .results import RunFailure, SimulationResult
from .tracing import TraceSink

#: Allowed ``on_error`` policies for batched runs.
ON_ERROR_POLICIES = ("raise", "record")


def run_simulation(
    config: SimulationConfig,
    *,
    sink: TraceSink | None = None,
    metrics: bool | float = False,
    health: bool | float = False,
) -> SimulationResult:
    """Build a controller for ``config``, run it, return the result.

    The run is a deterministic function of ``config`` (including its seed):
    calling this twice with an equal configuration yields identical results,
    event counts, and traces.  The telemetry keywords never change what the
    run computes — ``result_fingerprint`` is identical with them on or off.

    Args:
        config: the run's configuration.
        sink: optional :class:`~repro.core.tracing.TraceSink` to stream the
            run's trace into (e.g. a
            :class:`~repro.observability.sinks.JsonlSink`); enables tracing
            regardless of ``config.record_trace``.
        metrics: sample engine metrics (queue depth, in-flight messages,
            wire bytes, delivery latency) on the simulated clock and attach
            a :class:`~repro.observability.metrics.RunMetrics` to
            ``result.run_metrics``.  ``True`` samples every
            ``DEFAULT_INTERVAL_MS``; a float sets the sampling interval in
            simulated milliseconds.
        health: run the streaming anomaly detectors
            (:class:`~repro.observability.health.HealthMonitor`) and attach
            a :class:`~repro.observability.health.HealthReport` to
            ``result.health``.  ``True`` evaluates every
            ``DEFAULT_WINDOW_MS``; a float sets the window width in
            simulated milliseconds.
    """
    registry = _metrics_registry(metrics)
    monitor = _health_monitor(health)
    return Controller(
        config, sink=sink, metrics=registry, health=monitor
    ).run_and_release()


def _metrics_registry(metrics: bool | float) -> MetricsRegistry | None:
    """Resolve the ``metrics`` run option into a registry (or ``None``)."""
    if metrics is False:
        return None
    if metrics is True:
        return MetricsRegistry(interval=DEFAULT_INTERVAL_MS)
    return MetricsRegistry(interval=float(metrics))


def _health_monitor(health: bool | float) -> HealthMonitor | None:
    """Resolve the ``health`` run option into a monitor (or ``None``)."""
    if health is False:
        return None
    if health is True:
        return HealthMonitor(window_ms=DEFAULT_WINDOW_MS)
    return HealthMonitor(window_ms=float(health))


def seed_window(
    config: SimulationConfig,
    repetitions: int,
    seed_offset: int = 0,
) -> list[SimulationConfig]:
    """The configurations of one repetition batch, in seed order.

    **Seed-window contract:** run ``i`` (``0 <= i < repetitions``) uses seed
    ``config.seed + seed_offset + i``, i.e. the batch covers the half-open
    window ``[config.seed + seed_offset, config.seed + seed_offset +
    repetitions)``.  Callers splitting one experiment across several calls
    must pick offsets that keep the windows disjoint — consecutive chunks of
    ``k`` runs use offsets ``0, k, 2k, ...``.  Overlap across calls cannot be
    detected here (each call only sees its own window), which is exactly why
    the contract is explicit: reusing a seed silently duplicates a run.

    Raises:
        ValueError: if ``repetitions < 1`` or ``seed_offset < 0`` (a negative
            offset shifts the window below the base seed and collides with
            the windows of smaller base seeds).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if seed_offset < 0:
        raise ValueError(
            f"seed_offset must be >= 0, got {seed_offset}; negative offsets "
            "make seed windows overlap those of smaller base seeds"
        )
    return [
        config.replace(seed=config.seed + seed_offset + index)
        for index in range(repetitions)
    ]


def run_batch(
    configs: Iterable[SimulationConfig],
    *,
    jobs: int | None = 1,
    timeout: float | None = None,
    retries: int = 1,
    on_error: str = "raise",
    progress: Callable[..., None] | None = None,
    metrics: bool | float = False,
    health: bool | float = False,
    recorder: Callable[[int, "SimulationResult | RunFailure"], None] | None = None,
) -> list[SimulationResult | RunFailure]:
    """Run every configuration; entries in input order.

    The one batch routine: :func:`repeat_simulation`, :func:`sweep`, the CLI
    and the scenario miner all hand it a flat list of configurations.  With
    ``jobs == 1`` and no ``timeout`` the runs execute in this process;
    anything else goes to :class:`repro.parallel.ParallelRunner` workers.
    Either way the entries, the recorder's ``(index, entry)`` calls and the
    progress counts are the same — only ``wall_clock_seconds`` (host time)
    differs.

    Args:
        configs: the runs, one configuration each (seed already resolved).
        jobs: worker processes; ``1`` (default) runs in-process, ``None``
            uses one worker per CPU.
        timeout: wall-clock seconds allowed per run; ``None`` disables the
            deadline.  Any timeout (even with ``jobs=1``) routes execution
            through worker processes so hung runs can be killed.
        retries: extra attempts for runs whose worker crashed or hung
            (simulation exceptions are deterministic and never retried).
        on_error: ``"record"`` leaves a
            :class:`~repro.core.results.RunFailure` (exception type, message
            and traceback) in the failed run's slot and returns the mixed
            list.  ``"raise"`` (default) propagates a run's own exception at
            once when running in-process, and raises
            :class:`~repro.core.errors.ExperimentFailureError` after the
            batch finishes when running on workers.
        progress: optional callback receiving a
            :class:`repro.parallel.ProgressUpdate` after every terminal run.
        metrics: sample engine metrics in every run (see
            :func:`run_simulation`); each result carries its own
            :class:`~repro.observability.metrics.RunMetrics`, mergeable
            with :meth:`RunMetrics.merge`.
        health: run the streaming anomaly detectors in every run (see
            :func:`run_simulation`); each result carries its own
            :class:`~repro.observability.health.HealthReport`.
        recorder: optional run recorder ``recorder(run_index, entry)``
            (e.g. a :class:`repro.store.StoreRecorder`) invoked once per
            terminal run — streamed as runs finish, so a persistent store
            shows live progress.  Recording happens strictly after a run
            completes; results are byte-identical with or without it.

    Raises:
        ValueError: on ``jobs < 1``, ``timeout <= 0``, ``retries < 0`` or an
            unknown ``on_error`` policy, before any run starts.
    """
    from ..parallel.engine import (
        BatchLedger, ParallelRunner, attempt, reply_entry,
    )

    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )
    # Built even for an in-process batch: its constructor is the one
    # validator of jobs, timeout and retries.
    runner = ParallelRunner(
        jobs=jobs, timeout=timeout, retries=retries, progress=progress,
        metrics=metrics, health=health, recorder=recorder,
    )
    configs = list(configs)

    if jobs != 1 or timeout is not None:
        entries = runner.map(configs)
        failures = [e for e in entries if isinstance(e, RunFailure)]
        if failures and on_error == "raise":
            raise ExperimentFailureError(failures)
        return entries

    ledger = BatchLedger(len(configs), recorder, progress)
    for index, config in enumerate(configs):
        if on_error == "raise":
            entry: SimulationResult | RunFailure = run_simulation(
                config, metrics=metrics, health=health
            )
        else:
            entry = reply_entry(config, attempt(index, config, metrics, health))
        ledger.record(index, entry)
    return ledger.results()


def repeat_simulation(
    config: SimulationConfig,
    repetitions: int,
    seed_offset: int = 0,
    **batch_options,
) -> list[SimulationResult | RunFailure]:
    """Run ``config`` under ``repetitions`` consecutive seeds.

    Run ``i`` uses seed ``config.seed + seed_offset + i`` — see
    :func:`seed_window` for the full seed-window contract (and the
    ``ValueError`` cases: ``repetitions < 1``, ``seed_offset < 0``).

    Args:
        config: the base configuration; its own ``seed`` is the first seed.
        repetitions: number of runs.
        seed_offset: shifts the seed window (useful for splitting work
            across calls; keep windows disjoint).
        **batch_options: ``jobs``, ``timeout``, ``retries``, ``on_error``,
            ``progress``, ``metrics``, ``health`` and ``recorder``, as in
            :func:`run_batch`.

    Returns:
        One entry per run, in seed order: :class:`SimulationResult`, or
        :class:`RunFailure` under ``on_error="record"``.
    """
    return run_batch(
        seed_window(config, repetitions, seed_offset), **batch_options
    )


def sweep(
    base: SimulationConfig,
    variations: Iterable[dict],
    repetitions: int = 1,
    **batch_options,
) -> list[list[SimulationResult | RunFailure]]:
    """Run ``base`` once per variation, each repeated ``repetitions`` times.

    Each variation is a dict of ``SimulationConfig.replace`` keyword
    arguments (nested ``network``/``attack`` dicts merge).

    The whole ``variations x repetitions`` grid is flattened into a single
    :func:`run_batch` call — one worker pool, saturated across variation
    boundaries — and regrouped into one list per variation.
    ``batch_options`` are :func:`run_batch`'s keywords; a ``recorder`` or
    ``progress`` hook sees the grid's *flattened* run indices
    (``variation_index * repetitions + rep``).
    """
    flat = [
        config
        for variation in variations
        for config in seed_window(base.replace(**variation), repetitions)
    ]
    entries = run_batch(flat, **batch_options)
    return [
        entries[start : start + repetitions]
        for start in range(0, len(flat), repetitions)
    ]
