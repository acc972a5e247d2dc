"""Hot-path profiler: where wall-clock time goes inside a run.

The paper's central claims are about simulator *efficiency* (§V: events per
second, scalability with node count).  To optimize the engine we first have
to measure it, so the controller dispatch loop, the network module, and the
fault engine carry opt-in timing hooks around their hot sections (queue
pop, delay sampling, attacker hand-off, fault application, per-protocol
``onMsgEvent``/``onTimeEvent``).

The hooks are ``perf_counter`` reads guarded by a single ``is None`` branch:
with profiling off (the default) the engine pays one pointer comparison per
section, which the overhead benchmark
(``benchmarks/bench_observability_overhead.py``) keeps within noise.

The aggregate is a :class:`RunProfile` attached to
``SimulationResult.profile`` — *outside* the determinism fingerprint, like
``wall_clock_seconds``, because host timing varies between otherwise
identical runs.  Profiles merge (:meth:`RunProfile.merge`), which is how
:class:`~repro.parallel.ParallelRunner` reports fleet-wide throughput for a
whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

#: Profiler section names instrumented by the engine, in dispatch order.
#: (Open set: callers may add their own names via :meth:`Profiler.add`.)
ENGINE_SECTIONS = (
    "queue.pop",
    "network.delay",
    "attacker.attack",
    "attacker.timer",
    "faults.apply",
    "protocol.on_message",
    "protocol.on_timer",
)


@dataclass(frozen=True)
class SectionStats:
    """Accumulated timing of one instrumented section.

    Attributes:
        calls: how many times the section executed.
        seconds: total wall-clock time spent inside it.
    """

    calls: int
    seconds: float

    @property
    def us_per_call(self) -> float:
        """Mean microseconds per call."""
        return (self.seconds / self.calls) * 1e6 if self.calls else 0.0


@dataclass(frozen=True)
class RunProfile:
    """Aggregated hot-path profile of one run (or a merged fleet of runs).

    Excluded from :func:`~repro.core.results.result_fingerprint` — host
    timing is not part of a run's deterministic identity.

    Attributes:
        wall_seconds: total wall-clock time of the run(s); for merged
            profiles this is summed *worker* time (CPU-seconds), not batch
            elapsed time.
        events: events the controller dispatched.
        sim_time_ms: simulated time covered.
        runs: how many runs this profile aggregates (1 for a single run).
        sections: per-section timing, keyed by section name.
    """

    wall_seconds: float
    events: int
    sim_time_ms: float
    runs: int = 1
    sections: dict[str, SectionStats] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        """Dispatch throughput — the paper's Fig. 2 efficiency metric."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def accounted_seconds(self) -> float:
        """Wall time attributed to instrumented sections."""
        return sum(s.seconds for s in self.sections.values())

    @classmethod
    def merge(cls, profiles: Iterable["RunProfile"]) -> "RunProfile":
        """Sum profiles (e.g. every run of a sweep) into a fleet profile."""
        wall = 0.0
        events = 0
        sim_ms = 0.0
        runs = 0
        sections: dict[str, list[float]] = {}
        for profile in profiles:
            wall += profile.wall_seconds
            events += profile.events
            sim_ms += profile.sim_time_ms
            runs += profile.runs
            for name, stats in profile.sections.items():
                cell = sections.setdefault(name, [0, 0.0])
                cell[0] += stats.calls
                cell[1] += stats.seconds
        return cls(
            wall_seconds=wall,
            events=events,
            sim_time_ms=sim_ms,
            runs=runs,
            sections={
                name: SectionStats(calls=int(calls), seconds=seconds)
                for name, (calls, seconds) in sections.items()
            },
        )

    # -- serialization (for ``--profile-out`` / ``repro inspect``) ----------

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "sim_time_ms": self.sim_time_ms,
            "runs": self.runs,
            "events_per_second": self.events_per_second,
            "sections": {
                name: {"calls": s.calls, "seconds": s.seconds}
                for name, s in self.sections.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunProfile":
        return cls(
            wall_seconds=float(data["wall_seconds"]),
            events=int(data["events"]),
            sim_time_ms=float(data.get("sim_time_ms", 0.0)),
            runs=int(data.get("runs", 1)),
            sections={
                name: SectionStats(
                    calls=int(s["calls"]), seconds=float(s["seconds"])
                )
                for name, s in dict(data.get("sections", {})).items()
            },
        )

    # -- rendering -----------------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"profile: {self.runs} run{'s' if self.runs != 1 else ''}, "
            f"{self.events} events in {self.wall_seconds:.3f}s wall "
            f"({self.events_per_second:,.0f} events/s, "
            f"{self.sim_time_ms:.0f}ms simulated)"
        )

    def format_table(self, top: int | None = None) -> str:
        """Fixed-width per-section table, hottest first.

        Args:
            top: show only the ``top`` hottest sections (``None`` = all);
                a tail line reports what was cut.
        """
        from ..analysis.report import render_table

        ranked = sorted(
            self.sections.items(), key=lambda item: item[1].seconds, reverse=True
        )
        shown = ranked if top is None else ranked[:top]
        wall = self.wall_seconds or 1.0
        rows = [
            (
                name,
                stats.calls,
                f"{stats.seconds:.4f}",
                f"{100.0 * stats.seconds / wall:.1f}%",
                f"{stats.us_per_call:.1f}",
            )
            for name, stats in shown
        ]
        other = self.wall_seconds - self.accounted_seconds
        rows.append(
            ("(unaccounted)", "", f"{max(other, 0.0):.4f}",
             f"{100.0 * max(other, 0.0) / wall:.1f}%", "")
        )
        note = self.summary()
        if top is not None and len(ranked) > top:
            note += f"; +{len(ranked) - top} more sections not shown"
        return render_table(
            "hot-path profile (per-section wall time)",
            ["section", "calls", "seconds", "% wall", "us/call"],
            rows,
            note=note,
        )


class Profiler:
    """Mutable per-run accumulator behind the engine's timing hooks.

    Usage on a hot path (note the ``is None`` guard — with no profiler the
    engine pays one branch)::

        prof = controller.profiler
        if prof is None:
            event = queue.pop()
        else:
            t0 = perf_counter()
            event = queue.pop()
            prof.add("queue.pop", t0)
    """

    __slots__ = ("_sections",)

    def __init__(self) -> None:
        self._sections: dict[str, list[float]] = {}

    def add(self, name: str, started: float) -> None:
        """Charge ``perf_counter() - started`` seconds to section ``name``."""
        elapsed = perf_counter() - started
        cell = self._sections.get(name)
        if cell is None:
            self._sections[name] = [1, elapsed]
        else:
            cell[0] += 1
            cell[1] += elapsed

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, with every call charged to section ``name``: for a loop
        that binds its callables once and then has no profiler branch."""

        def call(*args: Any) -> Any:
            started = perf_counter()
            result = fn(*args)
            self.add(name, started)
            return result

        return call

    def build(self, wall_seconds: float, events: int, sim_time_ms: float) -> RunProfile:
        """Freeze the accumulated sections into a :class:`RunProfile`."""
        return RunProfile(
            wall_seconds=wall_seconds,
            events=events,
            sim_time_ms=sim_time_ms,
            runs=1,
            sections={
                name: SectionStats(calls=int(calls), seconds=seconds)
                for name, (calls, seconds) in self._sections.items()
            },
        )
