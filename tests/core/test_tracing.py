"""Tests for trace recording and serialization."""

from __future__ import annotations

import copy
import gzip
import json
import os
import pickle
import re
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.core import tracing
from repro.core.tracing import (
    EventFilter,
    JsonlSink,
    MemorySink,
    NullSink,
    Trace,
    TraceEvent,
    iter_jsonl_dicts,
    jsonl_line,
    open_trace_text,
    trace_rows,
)
from repro.observability import (
    CausalityGraph,
    analyze_phases,
    analyze_trace,
    analyze_trace_health,
    replay_health,
)


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "send", 0, dest=1)
    assert len(trace) == 0


def test_record_and_index():
    trace = Trace()
    trace.record(1.0, "send", 0, dest=1)
    trace.record(2.0, "deliver", 1, source=0)
    assert len(trace) == 2
    assert trace[0].kind == "send"
    assert trace[1].fields["source"] == 0


def test_filter_by_kind_and_node():
    trace = Trace()
    trace.record(1.0, "view", 0, view=1)
    trace.record(2.0, "view", 1, view=1)
    trace.record(3.0, "decide", 0, slot=0, value="v")
    assert len(trace.events(kind="view")) == 2
    assert len(trace.events(node=0)) == 2
    assert len(trace.events(kind="view", node=1)) == 1


def test_jsonl_roundtrip():
    trace = Trace()
    trace.record(1.5, "send", 0, dest=3, msg_type="VOTE", msg_id=7)
    trace.record(2.5, "decide", 3, slot=0, value="x")
    restored = Trace.from_jsonl(trace.to_jsonl())
    assert [e.to_dict() for e in restored] == [e.to_dict() for e in trace]


def test_from_jsonl_skips_blank_lines():
    trace = Trace()
    trace.record(1.0, "a", 0)
    text = trace.to_jsonl() + "\n\n"
    assert len(Trace.from_jsonl(text)) == 1


def test_format_truncates():
    trace = Trace()
    for t in range(10):
        trace.record(float(t), "tick", 0)
    text = trace.format(limit=3)
    assert "7 more events" in text


def test_format_truncation_is_explicit():
    """Silent truncation reads as "that was everything"; the tail line must
    spell out exactly how many events were cut."""
    trace = Trace()
    for t in range(60):
        trace.record(float(t), "tick", 0)
    text = trace.format()  # default limit=50
    assert text.splitlines()[-1] == "... (+10 more events)"
    assert len(text.splitlines()) == 51


def test_format_exact_limit_has_no_tail():
    trace = Trace()
    for t in range(3):
        trace.record(float(t), "tick", 0)
    assert "more events" not in trace.format(limit=3)


def test_format_unlimited():
    trace = Trace()
    trace.record(0.0, "tick", 0)
    assert "more events" not in trace.format(limit=None)


def test_event_from_dict_roundtrip():
    event = TraceEvent(time=2.0, kind="send", node=1, fields={"dest": 2})
    assert TraceEvent.from_dict(event.to_dict()) == event


def test_trace_len_and_iteration_via_sink():
    trace = Trace()
    trace.record(1.0, "a", 0)
    trace.record(2.0, "b", 1)
    assert len(trace) == 2
    assert [e.kind for e in trace] == ["a", "b"]


event_fields = st.dictionaries(
    st.sampled_from(["view", "slot", "value", "dest"]),
    st.one_of(st.integers(-10, 10), st.text(max_size=8)),
    max_size=3,
)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6),
            st.sampled_from(["send", "deliver", "view", "decide"]),
            st.integers(min_value=-1, max_value=32),
            event_fields,
        ),
        max_size=40,
    )
)
def test_property_jsonl_roundtrip(entries):
    trace = Trace()
    for time, kind, node, fields in entries:
        trace.record(time, kind, node, **fields)
    restored = Trace.from_jsonl(trace.to_jsonl())
    assert [e.to_dict() for e in restored] == [e.to_dict() for e in trace]


# -- the JSONL line: template ≡ encoder ---------------------------------------

SEND = dict(dest=1, msg_type="VOTE", msg_id=7, size=120, cause="m3", slot=0, view=2)
DELIVER = dict(source=1, msg_type="VOTE", msg_id=7, cause=None, slot=None, view=2)


def encoded(time, kind, node, fields) -> str:
    """The reference line: the generic encoder over ``to_dict()``."""
    return json.dumps(TraceEvent(time, kind, node, fields).to_dict(), sort_keys=True)


@pytest.fixture
def encoder_calls(monkeypatch):
    """Records handed to the generic encoder (the template's fallback)."""
    calls = []
    encode = tracing._encode
    monkeypatch.setattr(tracing, "_encode", lambda record: calls.append(record) or encode(record))
    return calls


@pytest.mark.parametrize("kind, fields", [("send", SEND), ("deliver", DELIVER)])
def test_fixed_shape_records_skip_the_encoder(kind, fields, encoder_calls):
    assert jsonl_line(12.5, kind, 3, fields) == encoded(12.5, kind, 3, fields)
    assert encoder_calls == []


@pytest.mark.parametrize(
    "time, kind, node, fields",
    [
        (12, "send", 3, SEND),  # an int-valued time is "12", not "12.0"
        (float("inf"), "send", 3, SEND),
        (12.5, "send", True, SEND),
        (12.5, "send", 3, {**SEND, "relay": 4}),
        (12.5, "send", 3, {**SEND, "byzantine": True, "origin": "attacker"}),
        (12.5, "send", 3, {**SEND, "slot": 1.5}),
        (12.5, "send", 3, {**SEND, "view": False}),
        (12.5, "send", 3, {**SEND, "slot": [1, 2]}),
        (12.5, "deliver", 3, SEND),  # as many fields as the template, other names
        (12.5, "deliver", 3, {k: v for k, v in DELIVER.items() if k != "view"}),
        (12.5, "decide", 3, {"slot": 0, "value": "x", "cause": "m1"}),
    ],
)
def test_any_other_shape_takes_the_encoder(time, kind, node, fields, encoder_calls):
    assert jsonl_line(time, kind, node, fields) == encoded(time, kind, node, fields)
    assert len(encoder_calls) == 1


plain = st.one_of(st.none(), st.integers(), st.text(max_size=6))  # quotes, non-ASCII, controls
odd = st.one_of(st.booleans(), st.floats(), st.lists(st.integers(), max_size=2))
#: Mostly template-shaped draws, so both paths are well covered.
scalars = st.one_of(plain, plain, plain, odd)


@given(
    time=st.one_of(st.floats(), st.floats(0, 1e6), st.floats(0, 1e6), st.integers()),
    kind_and_shape=st.sampled_from(
        [("send", SEND), ("deliver", DELIVER)] * 3 + [("deliver", SEND), ("decide", DELIVER)]
    ),
    node=st.one_of(st.integers(-1, 64), st.integers(), st.booleans()),
    msg_type=st.text(max_size=8),
    cause=st.one_of(st.none(), st.text(max_size=6)),
    slot=scalars,
    view=scalars,
    extra=st.dictionaries(
        st.sampled_from(["relay", "byzantine", "origin", "forged"]), scalars, max_size=1
    ),
)
def test_property_line_equals_sorted_json_dumps(
    time, kind_and_shape, node, msg_type, cause, slot, view, extra
):
    kind, shape = kind_and_shape
    fields = {**shape, "msg_type": msg_type, "cause": cause, "slot": slot, "view": view, **extra}
    assert jsonl_line(time, kind, node, fields) == encoded(time, kind, node, fields)


def test_jsonl_sink_writes_the_lines_of_to_jsonl(tmp_path):
    """Sink path (parts, no event object) ≡ ``Trace.to_jsonl`` (events)."""
    path = tmp_path / "t.jsonl"
    streamed, buffered = Trace(sink=JsonlSink(path)), Trace()
    for trace in (streamed, buffered):
        trace.record(1.5, "send", 0, **SEND)
        trace.record(2.5, "send", 0, **SEND, relay=2)
        trace.record(3.5, "deliver", 1, **DELIVER)
        trace.record(4.5, "decide", 1, slot=0, value="é\"x")
    streamed.close()
    assert path.read_text(encoding="utf-8") == buffered.to_jsonl() + "\n"
    assert len(streamed) == 4
    assert [e.to_dict() for e in streamed] == [e.to_dict() for e in buffered]


# -- the one JSONL reader: blocks ≡ line by line ------------------------------


def per_line(lines):
    return [json.loads(line) for line in lines if line.strip()]


def numbered(count):
    return [json.dumps({"time": float(i), "kind": "tick", "node": i}) for i in range(count)]


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 17])
def test_reader_equals_per_line_loads_across_block_boundaries(count, monkeypatch):
    monkeypatch.setattr(tracing, "JSONL_BLOCK_LINES", 4)
    lines = numbered(count)
    assert list(iter_jsonl_dicts(lines)) == per_line(lines)


def test_reader_skips_blank_and_padded_lines():
    lines = ["", "  \n", *numbered(3), "\n", "  " + numbered(5)[4] + "  \n", ""]
    assert list(iter_jsonl_dicts(lines)) == per_line(lines)
    assert len(per_line(lines)) == 4


@pytest.mark.parametrize(
    "bad",
    [
        '{"time": 9.0, "kind": "ti',  # a truncated last line
        '{"a": 1},{"b": 2}',  # decodes inside a block, not on its own
        '1, 2',
        '{"a": [1}',
    ],
)
def test_a_malformed_line_raises_what_json_loads_raises_after_the_good_lines(bad, monkeypatch):
    monkeypatch.setattr(tracing, "JSONL_BLOCK_LINES", 4)
    lines = [*numbered(6), bad]
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad)
    seen = []
    with pytest.raises(json.JSONDecodeError) as raised:
        for row in iter_jsonl_dicts(lines):
            seen.append(row)
    assert seen == per_line(lines[:6])
    assert str(raised.value) == str(expected.value)
    assert raised.value.doc == bad


def test_every_reader_reads_a_multi_member_gzip_trace(tmp_path, monkeypatch):
    """A sink reopened after pickling appends a second gzip member."""
    monkeypatch.setattr(tracing, "JSONL_BLOCK_LINES", 4)
    path = tmp_path / "t.jsonl.gz"
    sink = JsonlSink(path)
    for i in range(6):
        sink.record(float(i), "send", i, dict(SEND))
    sink = pickle.loads(pickle.dumps(sink))
    for i in range(6, 11):
        sink.record(float(i), "deliver", i, dict(DELIVER))
    sink.close()

    with gzip.open(path, "rt", encoding="utf-8") as handle:
        rows = per_line(handle)
    assert [row["node"] for row in rows] == list(range(11))
    assert [TraceEvent(*row).to_dict() for row in trace_rows(path)] == rows
    assert [e.to_dict() for e in sink.iter_events()] == rows
    with open_trace_text(path) as handle:
        restored = Trace.from_jsonl(handle.read())
    assert [e.to_dict() for e in restored] == rows and len(restored) == 11

    # Cut inside the second member, where the last block read is partial:
    # every reader yields each complete record, then one ValueError.
    raw = path.read_bytes()
    for size in range(len(raw) - 1, 0, -1):
        path.write_bytes(raw[:size])
        complete = decompressed_lines(path)
        if complete > 6 and complete % 4:
            break
    assert complete > 6 and complete % 4, "no cut inside a block of the second member"
    truncated = re.escape(f"{path}: trace truncated after {complete} records")
    for read in (
        lambda: trace_rows(path),
        sink.rows,
        lambda: map(TraceEvent.to_dict, sink.iter_events()),
    ):
        seen = []
        with pytest.raises(ValueError, match=truncated):
            seen.extend(read())
        assert len(seen) == complete
    for read in (sink.events, lambda: analyze_trace(path), lambda: CausalityGraph.build(path)):
        with pytest.raises(ValueError, match=truncated):
            read()


def test_read_decodes_a_file_once_and_analysis_errors_name_the_file(tmp_path):
    """``Trace.read`` holds the rows ``trace_rows`` streams from a ``.gz``
    file, and an analysis handed that trace names the file, as it does
    when handed the path."""
    path = tmp_path / "t.jsonl.gz"
    with JsonlSink(path) as sink:
        sink.record(0.0, "send", 0, dict(SEND))
        sink.record(1.0, "deliver", 1, {"source": 0})
    trace = Trace.read(path)
    assert trace.name == str(path) and Trace().name == "trace"
    assert list(trace.rows()) == list(trace_rows(path)) and len(trace) == 2
    for source in (path, trace):
        with pytest.raises(ValueError, match=re.escape(
            f"{path}: trace record 2 is a 'deliver' record without a 'msg_id'"
        )):
            CausalityGraph.build(source)


def decompressed_lines(path) -> int:
    """Complete lines in what a cut gzip file still decompresses to."""
    data = bytearray()
    with gzip.open(path, "rb") as handle:
        try:
            while chunk := handle.read(1):
                data += chunk
        except EOFError:
            pass
    return data.count(b"\n")


# -- one sink call per broadcast: the batch ≡ the per-row loop -----------------


def row_fields(fields, keys, row):
    return {**fields, **dict(zip(keys, row))}


def record_both_ways(make_sink, time, kind, node, fields, keys, rows):
    """The same records offered as one batch and as one ``record`` per
    row, each between two ordinary records."""
    sinks = []
    for batched in (True, False):
        sink = make_sink(batched)
        sink.record(0.0, "start", -1, {})
        if batched:
            sink.record_copies(time, kind, node, dict(fields), keys, rows)
        else:
            for row in rows:
                sink.record(time, kind, node, row_fields(fields, keys, row))
        sink.record(1e9, "end", 0, {"note": "%d"})
        sink.close()
        sinks.append(sink)
    return sinks


json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.floats(), st.integers(),
        st.text(alphabet=st.sampled_from('%"\\ aé€\n\x00d'), max_size=6), st.text(max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
key_names = st.one_of(
    st.sampled_from(["dest", "msg_id", "relay", "msg_type", "size", "time", "%d", '"q"', "é"]),
    st.text(max_size=4),
)
#: Slots of a batch: plain ``int`` only (the template path), or anything.
slot_values = st.sampled_from([st.integers(), st.one_of(st.integers(), st.booleans(), json_values)])
filters = st.sampled_from([
    None,
    EventFilter(kinds=frozenset({"send"})),
    EventFilter(nodes=frozenset({0, 1})),
    EventFilter(start=5.0, end=50.0),
    None,
])


@st.composite
def batches(draw):
    keys = draw(st.lists(key_names, min_size=1, max_size=3, unique=True))
    fields = draw(st.dictionaries(
        key_names.filter(lambda key: key not in keys), json_values, max_size=5
    ))
    slots = draw(slot_values)
    rows = draw(st.lists(st.tuples(*[slots] * len(keys)), max_size=5))  # zero rows: n=1
    return dict(
        time=draw(st.one_of(st.floats(0, 100), st.floats(), st.integers(0, 100))),
        kind=draw(st.sampled_from(["send", "deliver", "decide", "%s"])),
        node=draw(st.one_of(st.integers(-1, 3), st.booleans())),
        fields=fields, keys=tuple(keys), rows=rows,
    )


@given(batch=batches(), filter=filters)
def test_property_batched_jsonl_records_equal_the_per_row_loop(batch, filter):
    with tempfile.TemporaryDirectory() as directory:
        paths = {True: os.path.join(directory, "batch.jsonl"),
                 False: os.path.join(directory, "loop.jsonl")}
        batched, looped = record_both_ways(
            lambda b: JsonlSink(paths[b], filter=filter), **batch
        )
        written = {}
        for batched_form, path in paths.items():
            if os.path.exists(path):  # no file until a record is accepted
                with open(path, "rb") as handle:
                    written[batched_form] = handle.read()
        assert written.get(True) == written.get(False)
        assert batched.count == looped.count


@given(batch=batches(), filter=filters)
def test_property_batched_memory_and_null_records_equal_the_per_row_loop(batch, filter):
    batched, looped = record_both_ways(lambda _b: MemorySink(filter=filter), **batch)
    assert batched.count == looped.count
    assert [e.to_dict() for e in batched.events()] == [e.to_dict() for e in looped.events()]
    assert [TraceEvent(*row).to_dict() for row in batched.rows()] == [
        e.to_dict() for e in looped.events()
    ]
    counted = record_both_ways(lambda _b: NullSink(filter=filter), **batch)
    assert counted[0].count == counted[1].count == batched.count


def test_a_first_record_batch_truncates_a_stale_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("stale previous run\n" * 3)
    sink = JsonlSink(path)
    sink.record_copies(1.0, "send", 0, {"msg_type": "B"}, ("dest", "msg_id"), [(1, 2), (2, 3)])
    sink.close()
    assert path.read_text().splitlines() == [
        jsonl_line(1.0, "send", 0, {"msg_type": "B", "dest": 1, "msg_id": 2}),
        jsonl_line(1.0, "send", 0, {"msg_type": "B", "dest": 2, "msg_id": 3}),
    ]


def test_a_batch_after_one_record_and_a_pickle_reopen_appends(tmp_path):
    """Only the sink's first write truncates, however many records the
    reopened sink had counted."""
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.record(1.0, "tick", 0, {})
    sink = pickle.loads(pickle.dumps(sink))
    sink.record_copies(2.0, "send", 1, {}, ("dest", "msg_id"), [(0, 4), (2, 5)])
    sink.close()
    assert [e.kind for e in sink.events()] == ["tick", "send", "send"]
    assert sink.count == 3


def test_a_batch_after_a_pickle_reopen_appends(tmp_path):
    path = tmp_path / "t.jsonl"
    sink = JsonlSink(path)
    sink.record_copies(1.0, "send", 0, {}, ("dest", "msg_id"), [(1, 2), (2, 3)])
    sink = pickle.loads(pickle.dumps(sink))
    sink.record_copies(2.0, "send", 1, {}, ("dest", "msg_id"), [(0, 4), (2, 5)])
    sink.close()
    assert [(e.time, e.fields["msg_id"]) for e in sink.events()] == [
        (1.0, 2), (1.0, 3), (2.0, 4), (2.0, 5)
    ]


# -- malformed records: one ValueError naming the record ------------------------


NOT_TRACE_RECORDS = [
    ("[1, 2]", "trace record 1 must be a JSON object"),
    ('{"time": 1.0, "kind": "a"}\n"x"', "trace record 2 must be a JSON object"),
    ('{"kind": "send", "node": 0}', "trace record 1 must have a 'time' and a 'kind'"),
    ('{"time": 1.0, "node": 0}', "trace record 1 must have a 'time' and a 'kind'"),
]

#: The analyses that read a trace through ``trace_rows``.
ANALYSES = {
    "analyze_trace": analyze_trace,
    "CausalityGraph.build": CausalityGraph.build,
    "analyze_phases": analyze_phases,
    "replay_health": lambda source: replay_health(source, 4),
    "analyze_trace_health": analyze_trace_health,
}


@pytest.mark.parametrize("text, problem", NOT_TRACE_RECORDS)
def test_from_jsonl_rejects_what_is_not_a_trace_record(text, problem):
    with pytest.raises(ValueError, match=problem):
        Trace.from_jsonl(text)


@pytest.mark.parametrize("analysis", ANALYSES.values(), ids=list(ANALYSES))
@pytest.mark.parametrize("text, problem", NOT_TRACE_RECORDS + [
    ('{"kind": "send", "msg_id": 1}', "trace record 1 must have a 'time' and a 'kind'"),
])
def test_every_analysis_rejects_in_memory_records_that_are_not_trace_records(
    analysis, text, problem
):
    records = [json.loads(line) for line in text.splitlines()]
    with pytest.raises(ValueError, match="^" + re.escape(f"trace: {problem}")):
        analysis(records)


def test_analyses_read_record_dicts_without_changing_them():
    from repro.core.runner import run_simulation
    from tests.conftest import health_state, quick_config

    config = quick_config(num_decisions=3, record_trace=True)
    trace = run_simulation(config, health=True).trace
    records = [event.to_dict() for event in trace]
    before = copy.deepcopy(records)
    for name, analysis in ANALYSES.items():
        from_dicts, from_trace = analysis(records), analysis(trace)
        assert records == before, f"{name} changed the records it read"
        if name == "CausalityGraph.build":
            from_dicts, from_trace = vars(from_dicts), vars(from_trace)
        elif name == "replay_health":
            from_dicts, from_trace = health_state(from_dicts), health_state(from_trace)
        elif name != "analyze_trace_health":
            from_dicts, from_trace = from_dicts.to_dict(), from_trace.to_dict()
        assert from_dicts == from_trace, name


def test_from_jsonl_reuses_each_decoded_record_as_its_rows_fields():
    trace = Trace.from_jsonl('{"time": 1.5, "kind": "send", "node": 2, "dest": 0}\n'
                             '{"time": 2.5, "kind": "tick"}')
    assert list(trace.rows()) == [(1.5, "send", 2, {"dest": 0}), (2.5, "tick", -1, {})]
    assert trace[1] == TraceEvent(2.5, "tick")
    assert trace[0] is trace[0], "events are built once and kept"
