"""High-level entry points for running simulations.

:func:`run_simulation` executes one configuration; :func:`repeat_simulation`
re-runs it under different seeds — the paper repeats every experiment 100
times and reports mean and standard deviation (§IV).  Both
:func:`repeat_simulation` and :func:`sweep` accept ``jobs`` to fan the
(independent, deterministic) runs across CPU cores via
:class:`repro.parallel.ParallelRunner`; parallel execution returns exactly
the results serial execution would, in the same order — only
``wall_clock_seconds`` (host time) differs.

Large systems (n in the hundreds to 1000) are practical in every
dissemination mode: a benign broadcast costs one shared delivery event
and one vectorized delay batch, never per-recipient copies.  Select a
relayed overlay (``NetworkConfig.dissemination = "tree"`` or ``"gossip"``)
to *model* relays; see ``docs/scaling.md`` and
``benchmarks/bench_scale.py``.
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


def _check_batch_options(jobs: int | None, timeout: float | None, retries: int,
                         on_error: str) -> None:
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_POLICIES}, got {on_error!r}"
        )


def _raise_failures(entries: list[SimulationResult | RunFailure]) -> None:
    failures = [e for e in entries if isinstance(e, RunFailure)]
    if failures:
        raise ExperimentFailureError(failures)


def repeat_simulation(
    config: SimulationConfig,
    repetitions: int,
    seed_offset: int = 0,
    callback: Callable[[int, SimulationResult], None] | None = None,
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
    """Run ``config`` under ``repetitions`` consecutive seeds.

    Run ``i`` uses seed ``config.seed + seed_offset + i`` — see
    :func:`seed_window` for the full seed-window contract (and the
    ``ValueError`` cases: ``repetitions < 1``, ``seed_offset < 0``).

    Args:
        config: the base configuration; its own ``seed`` is the first seed.
        repetitions: number of runs.
        seed_offset: shifts the seed window (useful for splitting work
            across calls; keep windows disjoint).
        callback: optional per-run hook ``callback(run_index, result)``,
            invoked in seed order (streamed during serial execution, after
            the batch during parallel execution).
        jobs: worker processes; ``1`` (default) runs serially in-process,
            ``None`` uses one worker per CPU.  Parallel results are
            field-identical to serial ones except ``wall_clock_seconds``.
        timeout: wall-clock seconds allowed per run; ``None`` disables the
            deadline.  Any timeout (even with ``jobs=1``) routes execution
            through the worker-process engine so hung runs can be killed.
        retries: extra attempts for runs whose worker crashed or hung
            (simulation exceptions are deterministic and never retried).
        on_error: ``"raise"`` (default) raises
            :class:`~repro.core.errors.ExperimentFailureError` after the
            batch finishes if any run failed; ``"record"`` leaves a
            :class:`~repro.core.results.RunFailure` in the failed run's
            slot and returns the mixed list.
        progress: optional :class:`repro.parallel.ProgressUpdate` callback
            (parallel engine only).
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

    Returns:
        One entry per run, in seed order: :class:`SimulationResult`, or
        :class:`RunFailure` under ``on_error="record"``.
    """
    _check_batch_options(jobs, timeout, retries, on_error)
    configs = seed_window(config, repetitions, seed_offset)

    if jobs == 1 and timeout is None:
        entries: list[SimulationResult | RunFailure] = []
        for index, run_config in enumerate(configs):
            if on_error == "raise":
                result: SimulationResult | RunFailure = run_simulation(
                    run_config, metrics=metrics, health=health
                )
            else:
                try:
                    result = run_simulation(
                        run_config, metrics=metrics, health=health
                    )
                except Exception as exc:
                    result = RunFailure(
                        config=run_config,
                        kind="error",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        run_index=index,
                    )
            if recorder is not None:
                recorder(index, result)
            if callback is not None:
                callback(index, result)
            entries.append(result)
        return entries

    from ..parallel import ParallelRunner

    runner = ParallelRunner(
        jobs=jobs, timeout=timeout, retries=retries, progress=progress,
        metrics=metrics, health=health, recorder=recorder,
    )
    entries = runner.map(configs)
    if on_error == "raise":
        _raise_failures(entries)
    if callback is not None:
        for index, entry in enumerate(entries):
            callback(index, entry)
    return entries


def sweep(
    base: SimulationConfig,
    variations: Iterable[dict],
    repetitions: int = 1,
    *,
    jobs: int | None = 1,
    timeout: float | None = None,
    retries: int = 1,
    on_error: str = "raise",
    progress: Callable[..., None] | None = None,
    metrics: bool | float = False,
    health: bool | float = False,
    recorder: Callable[[int, "SimulationResult | RunFailure"], None] | None = None,
) -> list[list[SimulationResult | RunFailure]]:
    """Run ``base`` once per variation, each repeated ``repetitions`` times.

    Each variation is a dict of ``SimulationConfig.replace`` keyword
    arguments (nested ``network``/``attack`` dicts merge).

    With ``jobs > 1`` the whole ``variations x repetitions`` grid is
    flattened into a single batch for the parallel engine, so workers stay
    saturated across variation boundaries; the grouped result order is
    identical to the serial one.  ``timeout``, ``retries``, ``on_error``,
    ``progress``, ``metrics`` and ``health`` behave as in
    :func:`repeat_simulation`.  A ``recorder`` sees the grid's *flattened*
    run indices (``variation_index * repetitions + rep``), identically for
    serial and parallel execution.
    """
    _check_batch_options(jobs, timeout, retries, on_error)
    variations = list(variations)

    if jobs == 1 and timeout is None:
        groups = []
        for v_index, variation in enumerate(variations):
            group_recorder = None
            if recorder is not None:
                from ..store.recorder import offset_recorder

                group_recorder = offset_recorder(
                    recorder, v_index * repetitions
                )
            groups.append(
                repeat_simulation(
                    base.replace(**variation), repetitions, on_error=on_error,
                    metrics=metrics, health=health, recorder=group_recorder,
                )
            )
        return groups

    from ..parallel import ParallelRunner

    runner = ParallelRunner(
        jobs=jobs, timeout=timeout, retries=retries, progress=progress,
        metrics=metrics, health=health, recorder=recorder,
    )
    groups = runner.run_sweep(base, variations, repetitions)
    if on_error == "raise":
        _raise_failures([entry for group in groups for entry in group])
    return groups
