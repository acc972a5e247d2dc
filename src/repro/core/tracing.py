"""Execution tracing: events, sinks, and the :class:`Trace` facade.

A trace is an ordered record of everything observable about a run: message
sends and deliveries, timer firings, protocol-reported events (view changes,
phase transitions), corruptions, and decisions.  Traces feed three consumers:

* the **validator module** (:mod:`repro.validator`), which replays and
  cross-checks traces against ground truth;
* the **view-synchronization analysis** behind the paper's Fig. 9
  (:mod:`repro.analysis.viewtrace`);
* debugging and forensics, via :meth:`Trace.format` and the ``repro
  inspect`` CLI (:mod:`repro.observability.inspect`).

Storage is pluggable: a :class:`Trace` forwards every recorded event to a
:class:`TraceSink`.  :class:`MemorySink` (the default) buffers events in
memory exactly as the pre-sink ``Trace`` did; :class:`JsonlSink` streams
events to a newline-delimited JSON file with *bounded* memory, so
million-event runs can record full traces to disk without OOM;
:class:`NullSink` counts and discards.  Every sink accepts an optional
:class:`EventFilter` restricting what it keeps by kind, node, and time
window.

The sink classes live here (the :class:`Trace` facade needs them) and are
re-exported by :mod:`repro.observability.sinks`, the telemetry subsystem's
public namespace.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from .clauses import scalar, split_clauses, split_window
from .errors import SimulationError

#: One encoder for every record (``json.dumps(sort_keys=True)`` builds a
#: fresh one per call).
_encode = json.JSONEncoder(sort_keys=True).encode


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable occurrence during a simulation.

    Attributes:
        time: simulation time in ms.
        kind: category string.  Core kinds emitted by the controller/network:
            ``"send"``, ``"deliver"``, ``"drop"``, ``"timer"``, ``"corrupt"``,
            ``"decide"``.  Protocols add their own kinds through
            ``Node.report`` (e.g. ``"view-change"``, ``"commit"``).
        node: primary node involved (destination for deliveries, reporter
            for protocol events); ``-1`` when not node-specific.
        fields: kind-specific details (message type, view number, value...).
    """

    time: float
    kind: str
    node: int = -1
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time, "kind": self.kind, "node": self.node, **self.fields}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (remaining keys become ``fields``)."""
        data = dict(data)
        time = data.pop("time")
        kind = data.pop("kind")
        node = data.pop("node", -1)
        return cls(time=time, kind=kind, node=node, fields=data)

    def to_json(self) -> str:
        """The event's one-line JSONL form."""
        return jsonl_line(self.time, self.kind, self.node, self.fields)


#: JSON text of the non-``int`` values a template line may hold, by exact
#: type.  A plain ``int`` formats itself; any other type (``bool``, ``float``,
#: containers) is a ``KeyError`` that sends the record to the encoder.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    type(None): lambda _none: "null",
}


def _line_template(kind: str, *names: str) -> tuple[str, Callable, int, int, int]:
    """A fixed-shape record's line: the keys of ``to_dict()`` pre-sorted
    with a ``%s`` per value, a getter of the field values in that order,
    where ``node`` and ``time`` go among them, and the field count."""
    slots = dict.fromkeys((*names, "node", "time"), "%s")
    order = sorted(slots)
    slots["kind"] = json.dumps(kind)
    line = "{" + ", ".join(f'"{key}": {slots[key]}' for key in sorted(slots)) + "}"
    return line, itemgetter(*sorted(names)), order.index("node"), order.index("time"), len(names)


#: The two record shapes that are nearly all of a trace (one ``send`` and one
#: ``deliver`` per message): formatted from a template, not encoded.
_LINE_TEMPLATES = dict(
    send=_line_template("send", "dest", "msg_type", "msg_id", "size", "cause", "slot", "view"),
    deliver=_line_template("deliver", "source", "msg_type", "msg_id", "cause", "slot", "view"),
)

def jsonl_line(time: float, kind: str, node: int, fields: dict[str, Any]) -> str:
    """One record's JSONL line: ``json.dumps(to_dict(), sort_keys=True)``.

    Records of a templated kind whose fields are exactly the template's and
    all plain ``int``/``str``/``None`` skip the encoder; the output is
    byte-identical either way.
    """
    template = _LINE_TEMPLATES.get(kind)
    if template is not None:
        line, values, node_at, time_at, count = template
        if (
            len(fields) == count
            and type(node) is int
            and type(time) is float
            and isfinite(time)
        ):
            try:
                texts = [
                    value if type(value) is int else _SCALAR_TEXT[type(value)](value)
                    for value in values(fields)
                ]
            except KeyError:  # a field outside the template, or not a plain scalar
                pass
            else:
                texts.insert(node_at, node)  # "node" sorts before "time"
                texts.insert(time_at, repr(time))
                return line % tuple(texts)
    return _encode({"time": time, "kind": kind, "node": node, **fields})


#: Lines :func:`iter_jsonl_dicts` decodes per call (its memory bound).
JSONL_BLOCK_LINES = 512


def iter_jsonl_dicts(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
    """Decode the non-blank lines of a JSONL stream, in order.

    The one JSONL reader (``Trace.from_jsonl``, :meth:`JsonlSink.iter_events`,
    ``repro inspect``).  Lines are decoded a bounded block per ``json.loads``
    call; a block that does not decode to one value per line is decoded
    line by line instead, so a malformed line raises exactly what
    ``json.loads(line)`` raises, after the lines before it were yielded.
    """
    stripped = filter(None, map(str.strip, lines))
    while block := list(islice(stripped, JSONL_BLOCK_LINES)):
        try:
            rows = json.loads("[" + ",".join(block) + "]")
        except ValueError:
            rows = ()
        yield from rows if len(rows) == len(block) else map(json.loads, block)


class TraceBufferUnavailable(SimulationError):
    """Raised when a sink cannot hand back the events it accepted."""


def open_trace_text(path: str | os.PathLike[str]) -> io.TextIOBase:
    """Open a JSONL trace file for reading, gzip-transparent.

    Paths ending in ``.gz`` are decompressed on the fly (multi-member
    archives — produced by a sink reopened after pickling — read as one
    stream).  Feed the handle to :func:`iter_jsonl_dicts`.
    """
    text = os.fspath(path)
    if text.endswith(".gz"):
        return gzip.open(text, "rt", encoding="utf-8")
    return open(text, encoding="utf-8")


@dataclass(frozen=True)
class EventFilter:
    """Declarative predicate restricting which events a sink keeps.

    All clauses must hold (conjunction); an unset clause admits everything.

    Attributes:
        kinds: event kinds to keep (``None`` = all kinds).
        nodes: node ids to keep (``None`` = all nodes); events with
            ``node=-1`` (not node-specific) always pass a node clause.
        start: keep events with ``time >= start``.
        end: keep events with ``time < end`` (``None`` = no upper bound).
    """

    kinds: frozenset[str] | None = None
    nodes: frozenset[int] | None = None
    start: float = 0.0
    end: float | None = None

    def admits(self, event: TraceEvent) -> bool:
        """True when ``event`` passes every clause."""
        if event.time < self.start:
            return False
        if self.end is not None and event.time >= self.end:
            return False
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.nodes is not None and event.node != -1 and event.node not in self.nodes:
            return False
        return True

    @classmethod
    def parse(cls, text: str) -> "EventFilter":
        """Parse the CLI grammar ``"kind=a,b; node=0,1; window=START:END"``.

        Clauses (:mod:`repro.core.clauses`) are ``key=item,…``;
        ``kinds``/``nodes`` are accepted as aliases, and ``window`` reads
        like a clause window (``window=5000:`` keeps everything from 5 s on).

        Raises:
            ConfigurationError: naming ``--trace-filter`` and the clause.
        """
        fields: dict[str, Any] = {}
        for clause in split_clauses(text, "--trace-filter"):
            key = clause.head.rstrip("s")  # kind/kinds, node/nodes
            items = [item.strip() for item in (clause.arg or "").split(",") if item.strip()]
            if not items or clause.start or clause.end is not None:
                raise clause.error("expected key=value, e.g. kind=decide or window=0:5000")
            if key == "kind":
                fields["kinds"] = frozenset(items)
            elif key == "node":
                fields["nodes"] = frozenset(scalar(v, f"{clause.where}: node", int) for v in items)
            elif key == "window":
                fields["start"], fields["end"] = split_window(clause.arg, clause.where)
            else:
                raise clause.error(f"unknown key {key!r}; expected kind, node, or window")
        return cls(**fields)

    def describe(self) -> str:
        parts = []
        if self.kinds is not None:
            parts.append(f"kind={','.join(sorted(self.kinds))}")
        if self.nodes is not None:
            parts.append(f"node={','.join(str(n) for n in sorted(self.nodes))}")
        if self.start or self.end is not None:
            hi = "" if self.end is None else f"{self.end:g}"
            parts.append(f"window={self.start:g}:{hi}")
        return "; ".join(parts) or "<all events>"


class TraceSink:
    """Receives every event a :class:`Trace` records.

    Subclasses implement :meth:`_accept` (store/write one event) and usually
    :meth:`events` (hand the accepted events back).  The base class applies
    the optional :class:`EventFilter` and maintains :attr:`count`, the
    number of events *accepted* (events the filter rejected are not
    counted).
    """

    def __init__(self, filter: EventFilter | None = None) -> None:
        self.filter = filter
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        """Offer one event to the sink (filtered, counted, then accepted)."""
        if self.filter is not None and not self.filter.admits(event):
            return
        self.count += 1
        self._accept(event)

    def record(self, time: float, kind: str, node: int, fields: dict[str, Any]) -> None:
        """Offer one occurrence as its parts — what :meth:`Trace.record`
        hands over; a sink that stores no event objects overrides this."""
        self.emit(TraceEvent(time, kind, node, fields))

    def _accept(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def events(self) -> list[TraceEvent]:
        """The accepted events, in acceptance order."""
        raise TraceBufferUnavailable(
            f"{type(self).__name__} does not buffer events"
        )

    def flush(self) -> None:
        """Push buffered bytes to durable storage (no-op by default)."""

    def close(self) -> None:
        """Release resources; the sink may still serve :meth:`events`."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Close on scope exit — exceptions included — so a crashed run
        still leaves the sink's storage readable (truncated but valid)."""
        self.close()


class MemorySink(TraceSink):
    """Buffers every accepted event in memory (the classic ``Trace`` list).

    The default sink: cheap, random-access, and what the validator replay
    and Fig. 9 view-timeline analysis consume.  Memory grows linearly with
    the event count — for million-event runs use :class:`JsonlSink`.
    """

    def __init__(self, filter: EventFilter | None = None) -> None:
        super().__init__(filter)
        self._events: list[TraceEvent] = []

    def _accept(self, event: TraceEvent) -> None:
        self._events.append(event)

    def events(self) -> list[TraceEvent]:
        return self._events


class NullSink(TraceSink):
    """Counts accepted events and discards them.

    Useful to measure tracing overhead (the record path runs, storage
    does not) and as an explicit "no trace wanted" marker.
    """

    def _accept(self, event: TraceEvent) -> None:
        pass

    def events(self) -> list[TraceEvent]:
        return []


class JsonlSink(TraceSink):
    """Streams accepted events to a newline-delimited JSON file.

    Peak memory is bounded by the write buffer (constant size) no matter
    how many events the run records — the sink that makes full traces of
    the paper's scalability experiments (§V) practical.  The file format is
    exactly :meth:`Trace.to_jsonl`, so ``Trace.from_jsonl``, the validator,
    and ``repro inspect`` all read it back.

    A path ending in ``.gz`` (e.g. ``trace.jsonl.gz``) writes gzip-
    compressed JSONL instead — million-event traces shrink by an order of
    magnitude on disk.  Reads (:meth:`iter_events`, ``repro inspect``,
    :func:`~repro.observability.inspect.analyze_trace`) decompress
    transparently, and a post-pickle reopen appends a second gzip member,
    which every reader also handles transparently.

    The sink is picklable (results cross worker-process pipes): pickling
    flushes and drops the OS file handle, which transparently reopens in
    append mode if more events arrive.

    Args:
        path: output file path; truncated when the first event arrives.
        filter: optional :class:`EventFilter`.
        buffer_bytes: size of the write buffer (the memory bound; advisory
            for gzip paths, which buffer inside the compressor).
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        filter: EventFilter | None = None,
        buffer_bytes: int = 1 << 16,
    ) -> None:
        super().__init__(filter)
        self.path = os.fspath(path)
        self._buffer_bytes = buffer_bytes
        self._handle: io.TextIOWrapper | None = None

    def _accept(self, event: TraceEvent) -> None:
        self._write(event.to_json())

    def record(self, time: float, kind: str, node: int, fields: dict[str, Any]) -> None:
        if self.filter is not None:  # only a filter needs an event object
            super().record(time, kind, node, fields)
        else:
            self.count += 1
            self._write(jsonl_line(time, kind, node, fields))

    def _write(self, line: str) -> None:
        if self._handle is None:
            # First event truncates; a reopen (after close/pickle) appends.
            mode = "w" if self.count <= 1 else "a"
            if self.path.endswith(".gz"):
                self._handle = gzip.open(self.path, mode + "t", encoding="utf-8")
            else:
                self._handle = open(
                    self.path, mode, buffering=self._buffer_bytes,
                    encoding="utf-8",
                )
        self._handle.write(line + "\n")

    def events(self) -> list[TraceEvent]:
        """Read the accepted events back from disk.

        Materializes the whole file — recording stays bounded, reading back
        is an explicit loader (prefer :meth:`iter_events` for streaming).
        """
        return list(self.iter_events())

    def iter_events(self) -> Iterator[TraceEvent]:
        """Stream the accepted events back from disk, one at a time."""
        self.flush()
        if self.count == 0 or not os.path.exists(self.path):
            return
        with open_trace_text(self.path) as handle:
            yield from map(TraceEvent.from_dict, iter_jsonl_dicts(handle))

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __getstate__(self) -> dict[str, Any]:
        self.close()
        return self.__dict__.copy()


class Trace:
    """An append-only sequence of :class:`TraceEvent` objects.

    Recording can be disabled wholesale (``enabled=False``) so the hot path
    of large simulations pays a single branch per event.  Storage is
    delegated to a :class:`TraceSink` (default: :class:`MemorySink`, which
    preserves the historical in-memory behavior exactly); the read API
    (:meth:`events`, iteration, indexing) asks the sink for its buffer, so
    it works wherever the sink can hand events back.
    """

    def __init__(self, enabled: bool = True, sink: TraceSink | None = None) -> None:
        self.enabled = enabled
        self.sink = sink if sink is not None else MemorySink()

    def record(self, time: float, kind: str, node: int = -1, **fields: Any) -> None:
        """Append an event (no-op while disabled)."""
        if self.enabled:
            self.sink.record(time, kind, node, fields)

    def __len__(self) -> int:
        return self.sink.count

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.sink.events())

    def __getitem__(self, index: int) -> TraceEvent:
        return self.sink.events()[index]

    def events(self, kind: str | None = None, node: int | None = None) -> list[TraceEvent]:
        """Events filtered by ``kind`` and/or ``node``."""
        out: Iterable[TraceEvent] = self.sink.events()
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        if node is not None:
            out = (e for e in out if e.node == node)
        return list(out)

    def flush(self) -> None:
        """Flush the sink's buffered bytes (if any)."""
        self.sink.flush()

    def close(self) -> None:
        """Close the sink; reading events back remains possible."""
        self.sink.close()

    def to_jsonl(self) -> str:
        """One JSON object per line — the interchange format the validator
        accepts as ground truth (and the exact on-disk format of
        :class:`JsonlSink`)."""
        return "\n".join(e.to_json() for e in self.sink.events())

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a trace previously produced by :meth:`to_jsonl` (or by an
        external tool emitting the same schema)."""
        sink = MemorySink()
        events = sink.events()
        events.extend(map(TraceEvent.from_dict, iter_jsonl_dicts(text.splitlines())))
        sink.count = len(events)
        return cls(enabled=True, sink=sink)

    def format(self, limit: int | None = 50) -> str:
        """Human-readable rendering of (the first ``limit``) events.

        When ``limit`` truncates the trace, an explicit
        ``"... (+N more events)"`` tail line says so — silent truncation
        reads as "that was everything" when it was not.
        """
        events = self.sink.events()
        shown = events if limit is None else events[:limit]
        lines = [
            f"{e.time:12.3f}  {e.kind:<12} node={e.node:<4} "
            + " ".join(f"{k}={v}" for k, v in sorted(e.fields.items()))
            for e in shown
        ]
        if limit is not None and len(events) > limit:
            lines.append(f"... (+{len(events) - limit} more events)")
        return "\n".join(lines)
