"""Simulated-time metrics: counters, gauges, histograms on the sim clock.

The registry is a telemetry pillar next to the trace sinks: it measures
the run itself on the **simulated** clock — queue depth, in-flight
messages, per-node wire bytes, delivery latency — sampled into a timeseries
at fixed simulated-time intervals.

Like every telemetry facility here, the registry is a *run argument*, never
part of the experiment's identity: it is passed to
:func:`repro.core.runner.run_simulation` (``metrics=True`` or an interval in
ms), consumes no randomness, schedules no events (sampling happens lazily
inside the dispatch loop as event timestamps cross interval boundaries), and
leaves ``result_fingerprint`` byte-identical.

The output object, :class:`RunMetrics`, is frozen, picklable (it crosses
worker pipes), mergeable across a
:class:`~repro.parallel.engine.ParallelRunner` fleet, and exportable as
JSONL, CSV, and a Prometheus-style text snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..core.config import check_finite

if TYPE_CHECKING:  # pragma: no cover
    from ..core.controller import Controller
    from .signals import LiveSignals

#: Default sampling interval (simulated ms) when ``metrics=True`` is passed.
DEFAULT_INTERVAL_MS: float = 100.0

#: Default delivery-latency histogram buckets (upper bounds, ms).
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


def _escape_label_value(value: Any) -> str:
    """Prometheus exposition-format label escaping (backslash, quote, LF)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fields(name: str, value: Any, required: Sequence[str] = ()) -> dict[str, Any]:
    """``value``, unless it is not a JSON object holding ``required``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{name} lacks {', '.join(map(repr, missing))}")
    return value


def _list(name: str, value: Any) -> list[Any]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def series_name(name: str, labels: dict[str, Any]) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}`` (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value (hot-path friendly: bare float)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Histogram:
    """A fixed-bucket distribution (``le`` upper-bound semantics).

    ``bounds`` must be ascending; an implicit ``+Inf`` bucket catches the
    overflow.  ``observe`` is O(log buckets) via bisect.
    """

    __slots__ = ("bounds", "bucket_counts", "total", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds) or len(set(self.bounds)) != len(self.bounds):
            raise ValueError(f"histogram bounds must be strictly ascending: {bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


@dataclass(frozen=True)
class HistogramData:
    """Frozen snapshot of a :class:`Histogram` (picklable, mergeable)."""

    bounds: tuple[float, ...]
    bucket_counts: tuple[int, ...]
    total: float
    count: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Any, name: str = "histogram") -> "HistogramData":
        """Inverse of :meth:`to_dict`; another shape is a ``ValueError``."""
        data = _fields(name, data, ("bounds", "bucket_counts", "total", "count"))
        return cls(
            bounds=tuple(
                _number(f"{name} bound", b) for b in _list(f"{name} bounds", data["bounds"])
            ),
            bucket_counts=tuple(
                int(_number(f"{name} bucket count", c))
                for c in _list(f"{name} bucket_counts", data["bucket_counts"])
            ),
            total=_number(f"{name} total", data["total"]),
            count=int(_number(f"{name} count", data["count"])),
        )


class MetricsRegistry:
    """Registry of simulated-time instruments for one run.

    Instruments are registered by name (plus optional labels); re-registering
    an existing series returns the same instrument.  The engine binds its
    standard instruments through :meth:`bind_engine`; protocols and harnesses
    may add their own.

    Sampling: the controller calls :meth:`advance` with the timestamp of a
    dispatched event that crosses one or more interval boundaries
    (:attr:`next_boundary`); every counter and gauge is appended to the
    timeseries at each boundary time (the recorded value is the state as of
    the last event at or before the boundary — no events are scheduled,
    nothing perturbs the run).  Histograms are kept as end-of-run
    distributions, not sampled.  ``messages_delivered`` and ``decisions``
    count nothing here: they are read from the run's counting table
    (:class:`~repro.observability.signals.LiveSignals`) when sampled.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_MS) -> None:
        check_finite("metrics interval (ms)", interval, strict=True, error=ValueError)
        self.interval = float(interval)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, Histogram] = {}
        #: base metric name -> instrument type, for the Prometheus exporter.
        self._families: dict[str, str] = {}
        self._samples: list[tuple[float, str, float]] = []
        #: When the next sample is due; the run loop calls :meth:`advance` then.
        self.next_boundary = self.interval
        # Engine fast-path bindings (None until bind_engine).
        self._sent: Counter | None = None
        self._delivered: Counter | None = None
        self._decisions: Counter | None = None
        self._bytes_total: Counter | None = None
        self._node_bytes: list[Counter] = []
        self._latency: Histogram | None = None
        self._table: "LiveSignals | None" = None

    # -- instrument registration ---------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        series = series_name(name, labels)
        instrument = self._counters.get(series)
        if instrument is None:
            instrument = self._counters[series] = Counter()
            self._families.setdefault(name, "counter")
        return instrument

    def gauge(self, name: str, callback: Callable[[], float], **labels: Any) -> None:
        """Register a sampled-on-read instrument (e.g. queue depth)."""
        self._gauges[series_name(name, labels)] = callback
        self._families.setdefault(name, "gauge")

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        **labels: Any,
    ) -> Histogram:
        series = series_name(name, labels)
        instrument = self._histograms.get(series)
        if instrument is None:
            instrument = self._histograms[series] = Histogram(bounds)
            self._families.setdefault(name, "histogram")
        return instrument

    # -- engine binding and hot-path hooks ------------------------------

    def bind_engine(self, controller: "Controller") -> None:
        """Register the standard engine instruments against ``controller``."""
        from ..core.events import MessageEvent

        queue = controller.queue
        self.gauge("queue_depth", lambda: float(len(queue)))
        self.gauge(
            "in_flight_messages",
            lambda: float(queue.live_count(MessageEvent)),
        )
        self._sent = self.counter("messages_sent")
        self._delivered = self.counter("messages_delivered")
        self._decisions = self.counter("decisions")
        self._bytes_total = self.counter("wire_bytes")
        self._node_bytes = [
            self.counter("node_wire_bytes", node=i) for i in range(controller.n)
        ]
        self._latency = self.histogram("delivery_latency_ms")
        self._table = controller.signals

    def on_send(self, node: int, wire_bytes: int, copies: int) -> None:
        """Network hook: ``copies`` wire transmissions of one message by ``node``."""
        self._sent.value += copies
        total = wire_bytes * copies
        self._bytes_total.value += total
        node_bytes = self._node_bytes
        if 0 <= node < len(node_bytes):
            node_bytes[node].value += total

    def on_deliver(
        self, dest: int, source: int, kind: str, now: float, sent_at: float
    ) -> None:
        """Controller hook: one delivery; transit latency is ``now - sent_at``."""
        self._latency.observe(now - sent_at)

    # -- sampling -------------------------------------------------------

    def advance(self, now: float) -> None:
        """Sample at every interval boundary crossed up to ``now``."""
        while now >= self.next_boundary:
            self._take_sample(self.next_boundary)
            self.next_boundary += self.interval

    def finish(self, now: float) -> None:
        """Flush boundaries up to ``now`` and take a final end-of-run sample."""
        self.advance(now)
        if not self._samples or self._samples[-1][0] < now:
            self._take_sample(now)

    def _read_table(self) -> None:
        """Set the counters the run's table keeps to its counts."""
        if self._table is not None:
            self._delivered.value = float(sum(self._table.delivered))
            self._decisions.value = float(self._table.decisions_seen)

    def _take_sample(self, at: float) -> None:
        self._read_table()
        samples = self._samples
        for series, counter in self._counters.items():
            samples.append((at, series, counter.value))
        for series, callback in self._gauges.items():
            samples.append((at, series, float(callback())))

    # -- result construction --------------------------------------------

    def build(self, sim_time_ms: float, runs: int = 1) -> "RunMetrics":
        """Freeze the registry into a picklable :class:`RunMetrics`."""
        self._read_table()
        return RunMetrics(
            interval_ms=self.interval,
            sim_time_ms=float(sim_time_ms),
            runs=runs,
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: float(fn()) for k, fn in self._gauges.items()},
            histograms={
                k: HistogramData(
                    bounds=h.bounds,
                    bucket_counts=tuple(h.bucket_counts),
                    total=h.total,
                    count=h.count,
                )
                for k, h in self._histograms.items()
            },
            samples=tuple(self._samples),
            families=dict(self._families),
        )


def _base_name(series: str) -> str:
    return series.partition("{")[0]


def _with_label(series: str, key: str, value: str) -> str:
    """``series`` with one more label (Prometheus rendering helper)."""
    escaped = _escape_label_value(value)
    base, brace, rest = series.partition("{")
    if not brace:
        return f'{base}{{{key}="{escaped}"}}'
    return f'{base}{{{rest[:-1]},{key}="{escaped}"}}'


@dataclass(frozen=True)
class RunMetrics:
    """Frozen metrics output of one run (or a merged fleet).

    Attributes:
        interval_ms: the sampling interval.
        sim_time_ms: simulated end time (max across merged runs).
        runs: how many runs were merged into this object.
        counters: series -> final cumulative value.
        gauges: series -> final sampled value.
        histograms: series -> end-of-run :class:`HistogramData`.
        samples: the timeseries, as ``(time_ms, series, value)`` tuples in
            sampling order.
        families: base metric name -> instrument type (for exporters).
    """

    interval_ms: float
    sim_time_ms: float
    runs: int
    counters: dict[str, float]
    gauges: dict[str, float]
    histograms: dict[str, HistogramData]
    samples: tuple[tuple[float, str, float], ...]
    families: dict[str, str]

    @classmethod
    def merge(cls, metrics: Iterable["RunMetrics"]) -> "RunMetrics":
        """Combine per-run metrics into fleet totals.

        Counters, gauges, and histogram buckets sum per series; timeseries
        samples sum per ``(time, series)`` point (a point present in only
        some runs — runs end at different simulated times — sums what is
        there).  All inputs must share the sampling interval.
        """
        items = list(metrics)
        if not items:
            raise ValueError("RunMetrics.merge needs at least one input")
        intervals = {m.interval_ms for m in items}
        if len(intervals) != 1:
            raise ValueError(
                f"cannot merge metrics with differing intervals: {sorted(intervals)}"
            )
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramData] = {}
        families: dict[str, str] = {}
        points: dict[tuple[float, str], float] = {}
        for m in items:
            families.update(m.families)
            for series, value in m.counters.items():
                counters[series] = counters.get(series, 0.0) + value
            for series, value in m.gauges.items():
                gauges[series] = gauges.get(series, 0.0) + value
            for series, data in m.histograms.items():
                existing = histograms.get(series)
                if existing is None:
                    histograms[series] = data
                else:
                    if existing.bounds != data.bounds:
                        raise ValueError(
                            f"histogram {series!r} has mismatched bounds across runs"
                        )
                    histograms[series] = HistogramData(
                        bounds=existing.bounds,
                        bucket_counts=tuple(
                            a + b
                            for a, b in zip(existing.bucket_counts, data.bucket_counts)
                        ),
                        total=existing.total + data.total,
                        count=existing.count + data.count,
                    )
            for time, series, value in m.samples:
                key = (time, series)
                points[key] = points.get(key, 0.0) + value
        samples = tuple(
            (time, series, value)
            for (time, series), value in sorted(points.items())
        )
        return cls(
            interval_ms=items[0].interval_ms,
            sim_time_ms=max(m.sim_time_ms for m in items),
            runs=sum(m.runs for m in items),
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            samples=samples,
            families=families,
        )

    # -- exporters ------------------------------------------------------

    def to_jsonl(self) -> str:
        """The timeseries as JSONL: one ``{time, metric, value}`` per line."""
        import json

        return "\n".join(
            json.dumps({"time": time, "metric": series, "value": value})
            for time, series, value in self.samples
        )

    def to_csv(self) -> str:
        """The timeseries as CSV (``time,metric,value`` header included)."""
        lines = ["time,metric,value"]
        for time, series, value in self.samples:
            name = f'"{series}"' if "," in series else series
            lines.append(f"{time:g},{name},{value:g}")
        return "\n".join(lines)

    def prometheus_text(self) -> str:
        """Final values as a Prometheus text-format snapshot.

        Metric names are prefixed ``repro_``; histogram series expand into
        the conventional cumulative ``_bucket``/``_sum``/``_count`` lines.
        Times are simulated ms, so this is a *snapshot* format for diffing
        and dashboards, not a live scrape target.
        """
        lines: list[str] = []
        seen_families: set[str] = set()

        def header(series: str, kind: str) -> None:
            base = _base_name(series)
            if base in seen_families:
                return
            seen_families.add(base)
            lines.append(f"# HELP repro_{base} simulated-time {kind}")
            lines.append(f"# TYPE repro_{base} {kind}")

        for series in sorted(self.counters):
            header(series, "counter")
            lines.append(f"repro_{series} {self.counters[series]:g}")
        for series in sorted(self.gauges):
            header(series, "gauge")
            lines.append(f"repro_{series} {self.gauges[series]:g}")
        for series in sorted(self.histograms):
            header(series, "histogram")
            data = self.histograms[series]
            base, brace, rest = series.partition("{")
            bucket = f"{base}_bucket" + (f"{{{rest}" if brace else "")
            suffix = f"{{{rest}" if brace else ""
            cumulative = 0
            for bound, count in zip(data.bounds, data.bucket_counts):
                cumulative += count
                lines.append(
                    f"repro_{_with_label(bucket, 'le', f'{bound:g}')} {cumulative}"
                )
            lines.append(
                f"repro_{_with_label(bucket, 'le', '+Inf')} {data.count}"
            )
            lines.append(f"repro_{base}_sum{suffix} {data.total:g}")
            lines.append(f"repro_{base}_count{suffix} {data.count}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (``repro run --metrics-out``)."""
        return {
            "interval_ms": self.interval_ms,
            "sim_time_ms": self.sim_time_ms,
            "runs": self.runs,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                series: data.to_dict()
                for series, data in sorted(self.histograms.items())
            },
            "samples": [list(sample) for sample in self.samples],
            "families": dict(sorted(self.families.items())),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "RunMetrics":
        """Inverse of :meth:`to_dict`; a document of another shape is a
        ``ValueError`` naming the key, never a ``KeyError`` or ``TypeError``."""
        data = _fields("metrics", data, ("interval_ms", "sim_time_ms"))
        samples = []
        for sample in _list("metrics samples", data.get("samples", [])):
            if not isinstance(sample, list) or len(sample) != 3:
                raise ValueError(f"a metrics sample must be [time, series, value], got {sample!r}")
            time, series, value = sample
            samples.append((_number("sample time", time), str(series), _number(series, value)))
        counters, gauges, histograms, families = (
            _fields(f"metrics {key}", data.get(key, {}))
            for key in ("counters", "gauges", "histograms", "families")
        )
        return cls(
            interval_ms=_number("metrics interval_ms", data["interval_ms"]),
            sim_time_ms=_number("metrics sim_time_ms", data["sim_time_ms"]),
            runs=int(_number("metrics runs", data.get("runs", 1))),
            counters={k: _number(k, v) for k, v in counters.items()},
            gauges={k: _number(k, v) for k, v in gauges.items()},
            histograms={
                k: HistogramData.from_dict(v, f"histogram {k}") for k, v in histograms.items()
            },
            samples=tuple(samples),
            families={k: str(v) for k, v in families.items()},
        )

    # -- human-readable -------------------------------------------------

    def summary(self) -> str:
        series = len(self.counters) + len(self.gauges) + len(self.histograms)
        return (
            f"metrics: {series} series, {len(self.samples)} samples over "
            f"{self.sim_time_ms:.1f}ms simulated "
            f"(interval {self.interval_ms:g}ms, {self.runs} run"
            f"{'s' if self.runs != 1 else ''})"
        )

    def format_table(self, top: int = 20) -> str:
        """Final counter/gauge values and histogram stats as text tables."""
        from ..analysis.report import render_table

        sections = [self.summary()]
        final = [("counter", s, v) for s, v in sorted(self.counters.items())]
        final += [("gauge", s, v) for s, v in sorted(self.gauges.items())]
        rows = [(kind, series, f"{value:g}") for kind, series, value in final[:top]]
        note = None
        if len(final) > top:
            note = f"+{len(final) - top} more series"
        sections.append(render_table(
            "final metric values", ["type", "series", "value"], rows, note=note,
        ))
        if self.histograms:
            hist_rows = []
            for series, data in sorted(self.histograms.items()):
                mean = data.total / data.count if data.count else 0.0
                hist_rows.append(
                    (series, data.count, f"{mean:.2f}", f"{data.total:.1f}")
                )
            sections.append(render_table(
                "histograms (end of run)",
                ["series", "count", "mean", "sum"],
                hist_rows[:top],
            ))
        return "\n\n".join(sections)
