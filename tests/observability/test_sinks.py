"""Tests for streaming trace sinks and event filters."""

from __future__ import annotations

import pickle
import tracemalloc

import pytest

from repro.core.config import SimulationConfig
from repro.core.errors import ConfigurationError
from repro.core.runner import run_simulation
from repro.core.tracing import Trace, TraceEvent, jsonl_line, trace_rows
from repro.observability.sinks import (
    EventFilter,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceBufferUnavailable,
    TraceSink,
)


def _event(time=1.0, kind="send", node=0, **fields):
    return TraceEvent(time=time, kind=kind, node=node, fields=fields)


def _parts(time=1.0, kind="send", node=0):
    """The ``(time, kind, node)`` a filter decides on."""
    return time, kind, node


class TestEventFilter:
    def test_default_admits_everything(self):
        f = EventFilter()
        assert f.admits(*_parts())
        assert f.admits(*_parts(kind="anything", node=-1, time=0.0))

    def test_kind_clause(self):
        f = EventFilter(kinds=frozenset({"send", "deliver"}))
        assert f.admits(*_parts(kind="send"))
        assert not f.admits(*_parts(kind="timer"))

    def test_node_clause_passes_system_events(self):
        f = EventFilter(nodes=frozenset({0, 1}))
        assert f.admits(*_parts(node=0))
        assert not f.admits(*_parts(node=5))
        # node=-1 means "not node-specific" and always passes.
        assert f.admits(*_parts(node=-1))

    def test_time_window(self):
        f = EventFilter(start=10.0, end=20.0)
        assert not f.admits(*_parts(time=9.9))
        assert f.admits(*_parts(time=10.0))
        assert f.admits(*_parts(time=19.9))
        assert not f.admits(*_parts(time=20.0))  # end is exclusive

    def test_parse_full_grammar(self):
        f = EventFilter.parse("kind=send,deliver; node=0,1; window=100:200")
        assert f.kinds == frozenset({"send", "deliver"})
        assert f.nodes == frozenset({0, 1})
        assert f.start == 100.0 and f.end == 200.0

    def test_parse_plural_aliases_and_open_window(self):
        f = EventFilter.parse("kinds=view; nodes=3; window=5000:")
        assert f.kinds == frozenset({"view"})
        assert f.nodes == frozenset({3})
        assert f.start == 5000.0 and f.end is None

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="--trace-filter"):
            EventFilter.parse("colour=red")

    def test_parse_rejects_missing_equals(self):
        with pytest.raises(ConfigurationError, match="--trace-filter"):
            EventFilter.parse("send,deliver")

    def test_describe_round_trips_the_intent(self):
        assert EventFilter().describe() == "<all events>"
        text = EventFilter.parse("kind=send; window=1:2").describe()
        assert "kind=send" in text and "window=1:2" in text


class TestMemorySink:
    def test_buffers_in_order(self):
        sink = MemorySink()
        sink.emit(_event(time=1.0))
        sink.emit(_event(time=2.0))
        assert [e.time for e in sink.events()] == [1.0, 2.0]
        assert sink.count == 2

    def test_filter_rejects_and_does_not_count(self):
        sink = MemorySink(filter=EventFilter(kinds=frozenset({"decide"})))
        sink.emit(_event(kind="send"))
        sink.emit(_event(kind="decide"))
        assert sink.count == 1
        assert [e.kind for e in sink.events()] == ["decide"]


class TestNullSink:
    def test_counts_and_discards(self):
        sink = NullSink()
        for _ in range(5):
            sink.emit(_event())
        assert sink.count == 5
        assert sink.events() == []


class TestBaseSink:
    def test_base_events_raises_buffer_unavailable(self):
        class WriteOnly(TraceSink):
            def record(self, time, kind, node, fields):
                return super().record(time, kind, node, fields)  # keeps no rows

        sink = WriteOnly()
        sink.emit(_event())
        assert sink.count == 1
        with pytest.raises(TraceBufferUnavailable):
            sink.events()


class TestJsonlSink:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit(_event(time=1.0, kind="send", node=0, dest=1, size=42))
        sink.emit(_event(time=2.0, kind="decide", node=1, slot=0, value="x"))
        sink.close()
        events = sink.events()
        assert [e.to_dict() for e in events] == [
            {"time": 1.0, "kind": "send", "node": 0, "dest": 1, "size": 42},
            {"time": 2.0, "kind": "decide", "node": 1, "slot": 0, "value": "x"},
        ]

    def test_file_matches_to_jsonl_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = Trace(sink=JsonlSink(path))
        trace.record(1.5, "send", 0, dest=3, msg_type="VOTE", msg_id=7)
        trace.record(2.5, "decide", 3, slot=0, value="x")
        trace.close()
        reference = Trace()
        reference.record(1.5, "send", 0, dest=3, msg_type="VOTE", msg_id=7)
        reference.record(2.5, "decide", 3, slot=0, value="x")
        assert path.read_text().strip() == reference.to_jsonl()
        restored = Trace.from_jsonl(path.read_text())
        assert len(restored) == 2

    def test_no_file_until_first_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        assert sink.events() == []
        assert not path.exists()

    def test_truncates_stale_file_on_first_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale previous run\n")
        sink = JsonlSink(path)
        sink.emit(_event(time=1.0))
        sink.close()
        assert "stale" not in path.read_text()
        assert len(sink.events()) == 1

    def test_pickle_mid_stream_then_continue(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit(_event(time=1.0))
        restored = pickle.loads(pickle.dumps(sink))
        assert restored.count == 1
        restored.emit(_event(time=2.0))  # reopens in append mode
        restored.close()
        assert [e.time for e in restored.events()] == [1.0, 2.0]

    def test_filtered_recording(self, tmp_path):
        sink = JsonlSink(
            tmp_path / "t.jsonl",
            filter=EventFilter.parse("kind=decide"),
        )
        trace = Trace(sink=sink)
        trace.record(1.0, "send", 0, dest=1)
        trace.record(2.0, "decide", 0, slot=0, value="v")
        trace.close()
        assert len(trace) == 1
        assert trace.events(kind="decide")

    def test_bounded_memory_for_large_traces(self, tmp_path):
        """Recording 120k events through JsonlSink must not buffer them:
        its peak memory stays far below MemorySink's for the same stream."""
        n_events = 120_000

        def record_all(trace: Trace) -> None:
            for i in range(n_events):
                trace.record(float(i), "send", i % 7, dest=(i + 1) % 7, msg_id=i)
            trace.close()

        tracemalloc.start()
        jsonl_trace = Trace(sink=JsonlSink(tmp_path / "big.jsonl", buffer_bytes=1 << 16))
        record_all(jsonl_trace)
        _, jsonl_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        memory_trace = Trace(sink=MemorySink())
        record_all(memory_trace)
        _, memory_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert jsonl_trace.sink.count == n_events
        assert memory_trace.sink.count == n_events
        assert sum(1 for _ in open(tmp_path / "big.jsonl")) == n_events
        # The in-memory buffer holds 120k TraceEvent objects; the JSONL sink
        # holds one write buffer.  An order of magnitude is a loose bound.
        assert jsonl_peak < memory_peak / 10

    def test_iter_events_streams(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        for i in range(10):
            sink.emit(_event(time=float(i)))
        it = sink.iter_events()
        assert next(it).time == 0.0
        assert sum(1 for _ in it) == 9


class TestTraceWithSinks:
    def test_controller_sink_injection(self, tmp_path):
        from repro.core.config import SimulationConfig
        from repro.core.runner import run_simulation

        path = tmp_path / "run.jsonl"
        config = SimulationConfig(protocol="pbft", n=4, seed=3)
        result = run_simulation(config, sink=JsonlSink(path))
        assert result.terminated
        # record_trace defaults False, but an explicit sink enables tracing.
        assert len(result.trace) > 0
        assert path.exists()
        restored = Trace.from_jsonl(path.read_text())
        assert len(restored) == len(result.trace)

    def test_null_sink_counts_engine_events(self):
        from repro.core.config import SimulationConfig
        from repro.core.runner import run_simulation

        sink = NullSink()
        result = run_simulation(
            SimulationConfig(protocol="pbft", n=4, seed=3), sink=sink
        )
        assert sink.count > 0
        assert result.trace.events(kind="send") == []


class TestCrashSafeClose:
    """A run that dies mid-simulation must leave a readable trace file."""

    @staticmethod
    def _register_crasher():
        from repro.core.errors import ConfigurationError
        from repro.protocols.base import BFTProtocol
        from repro.protocols.registry import register_protocol

        try:
            @register_protocol("_trace-crash")
            class CrashAfterTraffic(BFTProtocol):
                """Crash-test double: generates real traffic, then raises
                from a message handler mid-run."""

                def on_start(self) -> None:
                    self.broadcast(type="PING")

                def on_message(self, message) -> None:
                    raise RuntimeError("injected mid-run crash")
        except ConfigurationError:
            pass  # already registered by a previous import

    def test_sink_is_context_manager(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceEvent(time=1.0, kind="send", node=0))
            assert sink is sink.__enter__()
        assert path.read_text().count("\n") == 1

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "ctx.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                sink.emit(TraceEvent(time=1.0, kind="send", node=0))
                raise RuntimeError("boom")
        # The buffered event reached disk despite the exception.
        restored = Trace.from_jsonl(path.read_text())
        assert len(restored) == 1
        assert restored.events(kind="send")

    def test_crashed_run_leaves_readable_trace(self, tmp_path):
        """Regression (PR 5): before the controller's try/finally, a run
        that raised left the JSONL sink unflushed — the trace file was
        missing its buffered tail or locked open.  Now every recorded
        event is on disk and parseable, line by line."""
        import json as json_module

        from repro.core.config import SimulationConfig
        from repro.core.runner import run_simulation

        self._register_crasher()
        path = tmp_path / "crash.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(RuntimeError, match="injected mid-run crash"):
            run_simulation(
                SimulationConfig(protocol="_trace-crash", n=4, seed=7),
                sink=sink,
            )
        assert sink._handle is None  # closed: nothing left buffered
        assert path.exists()
        lines = path.read_text().splitlines()
        assert len(lines) == sink.count
        kinds = {json_module.loads(line)["kind"] for line in lines}
        assert "send" in kinds  # the pre-crash traffic made it to disk


class TestGzipSink:
    """``.jsonl.gz`` traces: written compressed, read transparently."""

    def _run_to(self, path):
        from repro.core.runner import run_simulation
        from tests.conftest import quick_config

        sink = JsonlSink(path)
        result = run_simulation(quick_config(record_trace=True), sink=sink)
        return sink, result

    def test_gz_suffix_writes_real_gzip(self, tmp_path):
        import gzip

        path = tmp_path / "run.jsonl.gz"
        sink, _ = self._run_to(path)
        raw = path.read_bytes()
        assert raw[:2] == b"\x1f\x8b"  # gzip magic: actually compressed
        lines = gzip.decompress(raw).decode().splitlines()
        assert len(lines) == sink.count

    def test_gz_trace_reads_like_plain_jsonl(self, tmp_path):
        from repro.observability.inspect import analyze_trace

        gz_path = tmp_path / "run.jsonl.gz"
        plain_path = tmp_path / "run.jsonl"
        self._run_to(gz_path)
        self._run_to(plain_path)
        gz_rows = list(trace_rows(gz_path))
        assert gz_rows == list(trace_rows(plain_path))
        gz_report = analyze_trace(gz_path)
        assert gz_report.to_dict() == analyze_trace(plain_path).to_dict()

    def test_plain_suffix_stays_plain_text(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._run_to(path)
        text = path.read_text()  # would raise UnicodeDecodeError on gzip
        assert text.startswith("{")


FILTERS = [
    "node=0,3",
    "kind=send,deliver",
    "window=300:900",
    "kind=send; node=2; window=0:1200",
]


class TestFilteredRuns:
    """A filtered sink keeps exactly the records of the unfiltered trace
    that pass its filter, in order — shared broadcasts included, which
    reach the filter through ``record_copies``."""

    @staticmethod
    def _config(mode: str) -> SimulationConfig:
        from tests.conftest import quick_config

        return quick_config(n=16, seed=3, num_decisions=2, dissemination=mode)

    @pytest.fixture(scope="class")
    def unfiltered(self):
        return {
            mode: list(run_simulation(self._config(mode), sink=MemorySink()).trace.rows())
            for mode in ("full", "tree")
        }

    @pytest.mark.parametrize("spec", FILTERS)
    @pytest.mark.parametrize("mode", ["full", "tree"])
    def test_filtered_sinks_keep_the_admitted_records(self, unfiltered, mode, spec, tmp_path):
        event_filter = EventFilter.parse(spec)
        expected = [row for row in unfiltered[mode] if event_filter.admits(*row[:3])]
        assert 0 < len(expected) < len(unfiltered[mode])

        memory = MemorySink(filter=event_filter)
        run_simulation(self._config(mode), sink=memory)
        assert memory.rows() == expected and memory.count == len(expected)

        path = tmp_path / "filtered.jsonl"
        jsonl = JsonlSink(path, filter=event_filter)
        run_simulation(self._config(mode), sink=jsonl)
        assert path.read_text(encoding="utf-8") == "".join(
            jsonl_line(*row) + "\n" for row in expected
        )
        assert jsonl.count == len(expected)
