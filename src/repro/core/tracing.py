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

A record has one form inside the package, the ``(time, kind, node,
fields)`` row (:data:`TraceRow`).  Storage is pluggable: a :class:`Trace`
hands every record to a :class:`TraceSink` as its parts.
:class:`MemorySink` (the default) keeps the rows in memory;
:class:`JsonlSink` streams them to a newline-delimited JSON file with
*bounded* memory, so million-event runs can record full traces to disk
without OOM; :class:`NullSink` counts and discards.  Every sink accepts an
optional :class:`EventFilter` restricting what it keeps by kind, node, and
time window, applied to a record's parts in :meth:`TraceSink.record`.  The
copies of one broadcast reach a sink in one :meth:`TraceSink.record_copies`
call.

Every analysis reads rows through :func:`trace_rows`, the one reader: it
takes a JSONL path (gzip-aware), a :class:`Trace` or record dicts, and
checks every record.  :class:`TraceEvent` objects are built only for the
public event API.

The sink classes live here (the :class:`Trace` facade needs them) and are
re-exported by :mod:`repro.observability.sinks`, the telemetry subsystem's
public namespace.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from dataclasses import dataclass, field
from itertools import chain, islice, starmap
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .clauses import scalar, split_clauses, split_window
from .errors import SimulationError

#: One encoder for every record (``json.dumps(sort_keys=True)`` builds a
#: fresh one per call).
_encode = json.JSONEncoder(sort_keys=True).encode

#: One trace record as stored and read inside the package:
#: ``(time, kind, node, fields)``, the parts of a :class:`TraceEvent`.
TraceRow = tuple[float, str, int, dict[str, Any]]


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


def _copies_template(
    time: float, kind: str, node: int, fields: dict[str, Any], keys: Sequence[str]
) -> str:
    """The JSONL line shared by every copy of one record, as a ``%``
    template: the text of ``time``, ``kind``, ``node`` and ``fields`` with
    any ``%`` doubled, and a ``%d`` where each of ``keys`` goes, in sorted
    key order.  Formatting it with a row of plain ``int`` values in that
    order gives :func:`jsonl_line` of the copy, byte for byte."""
    slot = object()
    items = {"time": time, "kind": kind, "node": node, **fields}
    for key in keys:
        items[key] = slot
    parts = []
    for key in sorted(items):
        value = items[key]
        if value is slot:
            text = "%d"
        else:
            text = _SCALAR_TEXT.get(type(value), _encode)(value).replace("%", "%%")
        parts.append(f"{encode_basestring_ascii(key).replace('%', '%%')}: {text}")
    return "{" + ", ".join(parts) + "}"


#: The types :func:`_copies_template`'s slots take: ``bool`` is an ``int`` to
#: ``%d`` but ``true`` to JSON, and a float would be truncated.
_SLOT_TYPES = {int}


#: Lines :func:`iter_jsonl_dicts` decodes per call (its memory bound).
JSONL_BLOCK_LINES = 512

#: What reading a compressed stream that was cut short raises.
_CUT_SHORT = (EOFError, zlib.error)


def iter_jsonl_dicts(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
    """Decode the non-blank lines of a JSONL stream, in order.

    The one JSONL decoder, behind :func:`trace_rows` and
    ``Trace.from_jsonl``.  Lines are decoded a bounded block per
    ``json.loads`` call; a block that does not decode to one value per line
    is decoded line by line instead, so a malformed line raises exactly what
    ``json.loads(line)`` raises, after the lines before it were yielded.  A
    gzip stream cut short raises its error after every complete line before
    the cut was yielded.
    """
    stripped = filter(None, map(str.strip, lines))
    while True:
        block: list[str] = []
        try:
            block.extend(islice(stripped, JSONL_BLOCK_LINES))
        except _CUT_SHORT:  # the complete lines read before the cut are in block
            yield from map(json.loads, block)
            raise
        if not block:
            return
        try:
            rows = json.loads("[" + ",".join(block) + "]")
        except ValueError:
            rows = ()
        yield from rows if len(rows) == len(block) else map(json.loads, block)


def _checked_rows(records: Iterable[Any], where: str, owned: bool) -> Iterator[TraceRow]:
    """``records`` as rows, in order, each checked to be a trace record: a
    dict with a ``time`` and a ``kind``.  A record the caller handed in is
    copied (``owned=False``); a freshly decoded one becomes its row's fields
    with ``time``, ``kind`` and ``node`` popped.

    Raises:
        ValueError: ``"<where>: trace record N …"``, N counted from 1, or
            ``"<where>: trace truncated after N records"`` when a compressed
            stream ends early (the N records before the cut were yielded).
    """
    index = 0
    try:
        for index, record in enumerate(records, 1):
            if not isinstance(record, dict):
                raise ValueError(
                    f"{where}: trace record {index} must be a JSON object, got {record!r}"
                )
            if "time" not in record or "kind" not in record:
                raise ValueError(f"{where}: trace record {index} must have a 'time' and a 'kind'")
            if not owned:
                record = record.copy()
            yield record.pop("time"), record.pop("kind"), record.pop("node", -1), record
    except _CUT_SHORT as error:
        raise ValueError(f"{where}: trace truncated after {index} records") from error


class TraceBufferUnavailable(SimulationError):
    """Raised when a sink cannot hand back the events it accepted."""


def open_trace_text(path: str | os.PathLike[str]) -> io.TextIOBase:
    """Open a JSONL trace file for reading, gzip-transparent.

    Paths ending in ``.gz`` are decompressed on the fly (multi-member
    archives — produced by a sink reopened after pickling — read as one
    stream).  :func:`trace_rows` is its one caller.
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

    def admits(self, time: float, kind: str, node: int) -> bool:
        """True when a record with these parts passes every clause."""
        if time < self.start:
            return False
        if self.end is not None and time >= self.end:
            return False
        if self.kinds is not None and kind not in self.kinds:
            return False
        if self.nodes is not None and node != -1 and node not in self.nodes:
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
    """Receives every record a :class:`Trace` records, as its parts.

    :meth:`record` is the one entry point: the base form applies the
    optional :class:`EventFilter` and maintains :attr:`count`, the number
    of records *accepted* (records the filter rejected are not counted).  A
    storing sink extends it (``if super().record(...)``: keep the row) and
    usually :meth:`events` / :meth:`rows` (hand the accepted records back).
    :meth:`record_copies` reduces to :meth:`record` and :meth:`emit` is an
    adapter for event objects, so a sink that overrides only :meth:`record`
    sees every record.
    """

    def __init__(self, filter: EventFilter | None = None) -> None:
        self.filter = filter
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        """Offer one event object: :meth:`record` of its parts."""
        self.record(event.time, event.kind, event.node, event.fields)

    def record(self, time: float, kind: str, node: int, fields: dict[str, Any]) -> bool:
        """Offer one record as its parts — what :meth:`Trace.record` hands
        over.  True when the filter admits it, and then it is counted."""
        if self.filter is not None and not self.filter.admits(time, kind, node):
            return False
        self.count += 1
        return True

    def record_copies(
        self, time: float, kind: str, node: int,
        fields: dict[str, Any], keys: Sequence[str], rows: Sequence[tuple],
    ) -> None:
        """Offer every copy of one logical record at once: copy ``i`` is
        ``fields`` plus ``dict(zip(keys, rows[i]))`` (a shared broadcast's
        ``send`` records, where only ``dest``, ``msg_id`` and ``relay``
        vary).  Equal to one :meth:`record` per row, which is what the base
        form does; a sink overrides it to pay per call, not per row."""
        for row in rows:
            copy = fields.copy()
            copy.update(zip(keys, row))
            self.record(time, kind, node, copy)

    def rows(self) -> Iterable[TraceRow]:
        """The accepted records as ``(time, kind, node, fields)`` rows, in
        acceptance order — what the package's own readers walk."""
        return ((e.time, e.kind, e.node, e.fields) for e in self.events())

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
    """Buffers every accepted record in memory, as a row.

    The default sink: cheap, random-access, and what the validator replay
    and Fig. 9 view-timeline analysis consume.  A record is stored as its
    ``(time, kind, node, fields)`` row (:meth:`rows`); :meth:`events` builds
    the :class:`TraceEvent` objects on first read and keeps them, so
    indexing stays O(1).  Memory grows linearly with the event count — for
    million-event runs use :class:`JsonlSink`.
    """

    def __init__(self, filter: EventFilter | None = None) -> None:
        super().__init__(filter)
        self._rows: list[TraceRow] = []
        self._events: list[TraceEvent] = []

    def record(self, time: float, kind: str, node: int, fields: dict[str, Any]) -> bool:
        if super().record(time, kind, node, fields):
            self._rows.append((time, kind, node, fields))
            return True
        return False

    def rows(self) -> list[TraceRow]:
        return self._rows

    def events(self) -> list[TraceEvent]:
        events = self._events
        if len(events) < len(self._rows):
            events.extend(starmap(TraceEvent, islice(self._rows, len(events), None)))
        return events


class NullSink(TraceSink):
    """Counts accepted events and discards them.

    Useful to measure tracing overhead (the record path runs, storage
    does not) and as an explicit "no trace wanted" marker.
    """

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
        self._started = False  # set by the first write, which truncates

    def record(self, time: float, kind: str, node: int, fields: dict[str, Any]) -> bool:
        if super().record(time, kind, node, fields):
            self._write(jsonl_line(time, kind, node, fields))
            return True
        return False

    def record_copies(
        self, time: float, kind: str, node: int,
        fields: dict[str, Any], keys: Sequence[str], rows: Sequence[tuple],
    ) -> None:
        """One line rendered per call, then one ``%`` format per copy.  The
        copies share ``time``, ``kind`` and ``node``, so one filter test
        decides them all."""
        if len(rows) < 2 or not set(map(type, chain.from_iterable(rows))) <= _SLOT_TYPES:
            super().record_copies(time, kind, node, fields, keys, rows)
        elif self.filter is None or self.filter.admits(time, kind, node):
            order = sorted(keys)
            if order != list(keys):
                pick = itemgetter(*map(keys.index, order))
                rows = [pick(row) for row in rows]
            line = _copies_template(time, kind, node, fields, keys)
            self.count += len(rows)
            self._write("\n".join([line % row for row in rows]))

    def _write(self, line: str) -> None:
        if self._handle is None:
            # The first write truncates; a reopen (after close/pickle) appends.
            mode = "a" if self._started else "w"
            self._started = True
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
        return starmap(TraceEvent, self.rows())

    def rows(self) -> Iterator[TraceRow]:
        """Stream the accepted records back from disk, as rows
        (:func:`trace_rows` of the file)."""
        self.flush()
        if self.count == 0 or not os.path.exists(self.path):
            return iter(())
        return trace_rows(self.path)

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

    #: What an analysis calls this trace in an error: the file it was
    #: :meth:`read` from, else ``"trace"``.
    name = "trace"

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

    def rows(self) -> Iterable[TraceRow]:
        """The records as ``(time, kind, node, fields)`` rows, in order: the
        read form of the package's own trace consumers."""
        return self.sink.rows()

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
        return "\n".join(starmap(jsonl_line, self.sink.rows()))

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a trace previously produced by :meth:`to_jsonl` (or by an
        external tool emitting the same schema).

        Raises:
            ValueError: a line that is not JSON, or not a trace record
                (checked as :func:`trace_rows` checks a file).
        """
        return cls._holding(_checked_rows(iter_jsonl_dicts(text.splitlines()), "trace", True))

    @classmethod
    def read(cls, path: str | os.PathLike[str]) -> "Trace":
        """Decode the trace file at ``path`` (``.gz`` too) once, through
        :func:`trace_rows`: for several analyses of one file, each of which
        would otherwise decode it again.  The trace keeps ``path`` as its
        :attr:`name`."""
        trace = cls._holding(trace_rows(path))
        trace.name = os.fspath(path)
        return trace

    @classmethod
    def _holding(cls, rows: Iterable[TraceRow]) -> "Trace":
        sink = MemorySink()
        sink._rows = list(rows)
        sink.count = len(sink._rows)
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


#: What every trace analysis reads: a JSONL trace path, a :class:`Trace`,
#: or trace record dicts (``{"time", "kind", "node", **fields}``).
TraceSource = str | os.PathLike[str] | Trace | Iterable[dict[str, Any]]


def trace_rows(source: TraceSource) -> Iterator[TraceRow]:
    """The records of ``source`` as ``(time, kind, node, fields)`` rows, in
    order: the one trace reader.

    A path is streamed with bounded memory (``.gz`` decompressed
    transparently, multi-member archives included); a :class:`Trace` hands
    back its sink's rows; record dicts are copied, never mutated.  Every
    record read from a file or handed in as a dict is checked.

    Raises:
        ValueError: ``"<path>: trace record N …"`` (``"trace: …"`` for
            dicts) for a record that is not a dict with a ``time`` and a
            ``kind``; ``"<path>: trace truncated after N records"`` for a
            compressed file cut short, after its N complete records.  A line
            that is not JSON raises what ``json.loads`` raises.
    """
    if isinstance(source, Trace):
        return iter(source.rows())
    if isinstance(source, (str, os.PathLike)):
        return _file_rows(os.fspath(source))
    return _checked_rows(source, "trace", False)


def _file_rows(path: str) -> Iterator[TraceRow]:
    with open_trace_text(path) as handle:
        yield from _checked_rows(iter_jsonl_dicts(handle), path, True)
