"""Property-based tests for :class:`repro.core.events.EventQueue`.

The queue's contract is the bedrock of the determinism guarantee: events
pop in ``(time, insertion order)`` total order, so equal-time events are
FIFO and every run is a pure function of its configuration.  These tests
drive the queue through hundreds of randomly generated interleavings of
push / pop / cancel (seeded generator, so the suite itself is
deterministic) and compare against a reference model.

Uses ``hypothesis`` when installed for extra adversarial inputs; the
hand-rolled generator below runs everywhere.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.errors import SchedulingError
from repro.core.events import Event, EventQueue, MessageEvent, TimeEvent
from repro.core.message import BROADCAST, Message


def reference_order(entries: list[tuple[float, int]]) -> list[int]:
    """Expected pop order: stable sort of (time, insertion seq)."""
    return [seq for _time, seq in sorted(entries, key=lambda e: (e[0], e[1]))]


def drain_handles(queue: EventQueue, pushed: dict[int, int]) -> list[int]:
    """Pop everything; map each popped event back to its insertion seq via
    its unique identity stored in ``pushed`` (id(event) -> seq)."""
    out = []
    while queue:
        out.append(pushed[id(queue.pop())])
    return out


@pytest.mark.parametrize("seed", range(50))
def test_random_interleavings_preserve_total_order(seed):
    """Arbitrary push/pop interleavings: the concatenation of everything
    popped equals the (time, seq) order of everything pushed.  Pushes land
    at or after the last popped time, as the queue requires."""
    rng = random.Random(seed)
    queue = EventQueue()
    pushed: dict[int, int] = {}
    live: list[tuple[float, int]] = []  # (time, seq) still in the queue
    popped: list[int] = []
    seq = 0
    now = 0.0
    for _step in range(rng.randrange(5, 120)):
        if live and rng.random() < 0.35:
            event = queue.pop()
            popped.append(pushed[id(event)])
            expected = min(live, key=lambda e: (e[0], e[1]))
            assert pushed[id(event)] == expected[1]
            live.remove(expected)
            now = expected[0]
        else:
            # Coarse times force plenty of exact ties.
            time_ = now + rng.randrange(0, 8)
            event = Event(time=time_)
            queue.push(event)
            pushed[id(event)] = seq
            live.append((time_, seq))
            seq += 1
    popped.extend(drain_handles(queue, pushed))
    # Every popped prefix respected the total order at the moment of the
    # pop (asserted inline); the full sequence must contain every event.
    assert sorted(popped) == list(range(seq))
    assert len(queue) == 0


@pytest.mark.parametrize("seed", range(30))
def test_fifo_among_equal_times(seed):
    """All events at one timestamp pop in exact insertion order."""
    rng = random.Random(1000 + seed)
    queue = EventQueue()
    pushed: dict[int, int] = {}
    entries: list[tuple[float, int]] = []
    for seq in range(rng.randrange(2, 60)):
        time_ = float(rng.choice([0.0, 1.5, 1.5, 3.0]))  # heavy ties
        event = Event(time=time_)
        queue.push(event)
        pushed[id(event)] = seq
        entries.append((time_, seq))
    assert drain_handles(queue, pushed) == reference_order(entries)


@pytest.mark.parametrize("seed", range(30))
def test_cancellation_never_perturbs_survivors(seed):
    """Cancelling an arbitrary subset leaves the survivors' order intact."""
    rng = random.Random(2000 + seed)
    queue = EventQueue()
    pushed: dict[int, int] = {}
    entries: list[tuple[float, int]] = []
    handles: list[int] = []
    for seq in range(rng.randrange(2, 60)):
        time_ = float(rng.randrange(0, 5))
        event = Event(time=time_)
        handles.append(queue.push(event))
        pushed[id(event)] = seq
        entries.append((time_, seq))
    cancelled = {
        seq for seq in range(len(entries)) if rng.random() < 0.4
    }
    for seq in cancelled:
        queue.cancel(handles[seq])
        queue.cancel(handles[seq])  # double-cancel is a no-op
    survivors = [e for e in entries if e[1] not in cancelled]
    assert drain_handles(queue, pushed) == reference_order(survivors)
    assert len(queue) == 0


def test_cancel_after_pop_is_noop():
    """Regression: cancelling a handle whose event already popped is a no-op.

    Protocol code commonly pops a timer event and only later runs the
    cleanup that cancels the (now stale) handle; the queue must tolerate
    that instead of raising, and must not disturb any live entry."""
    queue = EventQueue()
    first, second = Event(time=1.0), Event(time=2.0)
    stale = queue.push(first)
    live = queue.push(second)
    assert queue.pop() is first
    queue.cancel(stale)  # already popped: must not raise
    queue.cancel(stale)  # idempotent
    assert queue.pop() is second
    queue.cancel(live)  # popped last: still a no-op on an empty queue
    queue.cancel(10_000)  # never-issued handle: equally ignored
    assert len(queue) == 0


@pytest.mark.parametrize("seed", range(20))
def test_stale_cancels_never_perturb_survivors(seed):
    """Random interleavings of push / pop / cancel where cancels may target
    already-popped (stale) or already-cancelled handles: stale cancels are
    no-ops and the survivors' pop order stays the reference order."""
    rng = random.Random(3000 + seed)
    queue = EventQueue()
    pushed: dict[int, int] = {}
    handles: dict[int, int] = {}  # seq -> handle
    live: list[tuple[float, int]] = []
    gone: list[int] = []  # seqs popped or cancelled (stale targets)
    seq = 0
    now = 0.0
    for _step in range(rng.randrange(10, 150)):
        choice = rng.random()
        if live and choice < 0.25:  # pop the minimum
            event = queue.pop()
            expected = min(live, key=lambda e: (e[0], e[1]))
            assert pushed[id(event)] == expected[1]
            live.remove(expected)
            gone.append(expected[1])
            now = expected[0]
        elif live and choice < 0.40:  # cancel a live entry
            time_, victim = live.pop(rng.randrange(len(live)))
            queue.cancel(handles[victim])
            gone.append(victim)
        elif gone and choice < 0.55:  # stale cancel: popped or cancelled
            queue.cancel(handles[rng.choice(gone)])
        else:
            time_ = now + rng.randrange(0, 6)
            event = Event(time=time_)
            handles[seq] = queue.push(event)
            pushed[id(event)] = seq
            live.append((time_, seq))
            seq += 1
    assert drain_handles(queue, pushed) == reference_order(live)
    assert len(queue) == 0


def test_peek_time_matches_next_pop():
    rng = random.Random(99)
    queue = EventQueue()
    for _ in range(40):
        queue.push(Event(time=float(rng.randrange(0, 10))))
    while queue:
        peeked = queue.peek_time()
        assert queue.pop().time == peeked
    assert queue.peek_time() is None
    with pytest.raises(SchedulingError):
        queue.pop()



# -- every operation against a flat reference model --------------------------


def check_against_flat_model(rng: random.Random, steps: int) -> None:
    """Drive a queue through ``steps`` random operations of every kind and
    compare each observable with a flat list kept in ``sorted((time,
    handle))`` order.  Pops take a random bound, and pushes land at or after
    the last popped time but one, which must be refused.

    A broadcast's deliveries are one cursor entry in the heap but ``k``
    rows in the model, so every view of the queue — pop order, ``len``,
    ``live_count``, ``live_events``, ``cancel_if`` counts — must account
    for them one by one.  Times are multiples of 0.5 over a short range, so
    ties abound within a batch, across batches and against timers.
    """
    queue = EventQueue()
    model: list[tuple] = []  # (time, handle, event, dest[, batch's first handle])
    handles: list[int] = []  # every handle ``push`` ever returned
    next_handle = 0
    now = 0.0

    def coarse() -> float:
        return now + rng.randrange(0, 6) / 2

    def timer() -> TimeEvent:
        return TimeEvent(time=coarse(), owner=rng.randrange(3), name="t")

    for _step in range(steps):
        op = rng.randrange(10)
        if op == 0:
            event = timer()
            handle = queue.push(event)
            assert handle == next_handle
            handles.append(handle)
            model.append((event.time, handle, event, None))
            next_handle += 1
        elif op == 1:
            events = [timer() for _ in range(rng.randrange(4))]
            queue.push_batch(events)
            for event in events:
                model.append((event.time, next_handle, event, None))
                next_handle += 1
        elif op in (2, 3):
            size = rng.choice([0, 1, 1, 2, 5, 17])
            times = [coarse() for _ in range(size)]
            if size > 1:
                times[rng.randrange(size)] = now  # the sender's loopback
            dests = [rng.randrange(40) for _ in range(size)]
            event = MessageEvent(
                time=now, message=Message(source=0, dest=BROADCAST, payload={})
            )
            if op == 3 and size:
                # An attacked broadcast: a reserved span of handles, some
                # of them deliveries of this cursor, the rest left unused.
                span = size + rng.randrange(3)
                base = queue.reserve(span)
                assert base == next_handle
                offsets = sorted(rng.sample(range(span), size))
                at = [0] * span
                for offset, dest in zip(offsets, dests):
                    at[offset] = dest
                queue.push_deliveries(event, times, at, offsets, base)
                for time_, offset in zip(times, offsets):
                    model.append((time_, base + offset, event, at[offset], base))
                next_handle += span
            else:
                queue.push_deliveries(event, times, dests)
                base = next_handle
                for time_, dest in zip(times, dests):
                    model.append((time_, next_handle, event, dest, base))
                    next_handle += 1
        elif op == 4 and handles:
            handle = rng.choice(handles)  # live, popped or cancelled already
            queue.cancel(handle)
            model = [row for row in model if row[1] != handle]
        elif op == 5 and model:
            if rng.random() < 0.5:
                victim = rng.choice(model)[2]  # one timer, or a whole broadcast
                doomed = lambda e: e is victim
            else:
                owner = rng.randrange(3)
                doomed = lambda e: type(e) is TimeEvent and e.owner == owner
            survivors = [row for row in model if not doomed(row[2])]
            assert queue.cancel_if(doomed) == len(model) - len(survivors)
            model = survivors
        elif op in (6, 7) and model:
            model.sort(key=lambda row: row[:2])
            # The bounded pop: the head when it fires at or before the
            # bound, else None with the queue untouched (the checks below).
            limit = math.inf if op == 7 else rng.choice(
                [math.inf, now + rng.randrange(-2, 12) / 4])
            if model[0][0] > limit:
                assert queue.pop_entry(limit) is None
            else:
                expected = model.pop(0)
                if op == 6:
                    entry = queue.pop_entry(limit)
                    assert entry[:len(expected)] == expected
                    time_, _handle, event, dest = entry[:4]
                    assert type(time_) is float
                    assert dest is None or type(dest) is int
                else:
                    event = queue.pop()
                assert event is expected[2]
                now = expected[0]
                assert queue.clock.now == now
        elif op == 8 and now > 0:
            # A push before the last popped time is refused at the push, and
            # takes no handle.
            with pytest.raises(SchedulingError):
                queue.push(TimeEvent(time=now - 0.5))
        else:
            peeked = queue.peek_time()
            assert peeked == min((row[0] for row in model), default=None)
            assert peeked is None or type(peeked) is float
            if not model:
                assert queue.pop_entry(rng.choice([math.inf, now])) is None

        assert len(queue) == len(model)
        assert bool(queue) == bool(model)
        for kind in (MessageEvent, TimeEvent):
            assert queue.live_count(kind) == sum(type(r[2]) is kind for r in model)
        model.sort(key=lambda row: row[:2])
        live = queue.live_events()
        assert len(live) == len(model)
        assert all(a is b[2] for a, b in zip(live, model))

    assert [id(e) for e in queue.drain()] == [id(row[2]) for row in model]
    assert len(queue) == 0 and queue.peek_time() is None


@pytest.mark.parametrize("seed", range(60))
def test_every_operation_matches_the_flat_model(seed):
    rng = random.Random(4000 + seed)
    check_against_flat_model(rng, steps=rng.randrange(20, 250))


# -- hypothesis reinforcement (skipped cleanly when not installed) ----------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=80,
    )
)
def test_hypothesis_pop_order_is_stable_sort(ops):
    """For arbitrary float times (including ties), pop order is exactly a
    stable sort by time, and cancelled entries never surface."""
    queue = EventQueue()
    pushed: dict[int, int] = {}
    survivors: list[tuple[float, int]] = []
    for seq, (time_, cancel) in enumerate(ops):
        event = Event(time=time_)
        handle = queue.push(event)
        pushed[id(event)] = seq
        if cancel:
            queue.cancel(handle)
        else:
            survivors.append((time_, seq))
    assert len(queue) == len(survivors)
    assert drain_handles(queue, pushed) == reference_order(survivors)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=120))
def test_hypothesis_every_operation_matches_the_flat_model(rng, steps):
    check_against_flat_model(rng, steps)
