"""Unit and property tests for the event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SchedulingError
from repro.core.events import EventQueue, MessageEvent, TimeEvent
from repro.core.message import BROADCAST, Message


def timer(time: float, name: str = "t") -> TimeEvent:
    return TimeEvent(time=time, owner=0, name=name, data=None, timer_id=0)


def shared_event() -> MessageEvent:
    """The one event a shared-tier broadcast schedules for all recipients."""
    message = Message(source=0, dest=BROADCAST, payload={"type": "B"})
    return MessageEvent(time=1.0, message=message)


class TestEventQueueBasics:
    def test_empty_queue_is_falsy(self):
        assert not EventQueue()
        assert len(EventQueue()) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(SchedulingError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulingError):
            EventQueue().push(timer(-1.0))

    def test_a_push_before_the_last_pop_is_refused(self):
        queue = EventQueue()
        queue.push_deliveries(shared_event(), [5.0, 6.0], [0, 1])
        queue.pop_entry()
        for push in (lambda: queue.push(timer(4.5)),
                     lambda: queue.push_deliveries(shared_event(), [7.0, 4.0], [0, 1])):
            with pytest.raises(SchedulingError, match="before the current time 5.0"):
                push()
        assert queue.push(timer(5.0)) == 2  # the refusals took no handle
        assert [queue.pop_entry()[:2] for _ in range(2)] == [(5.0, 2), (6.0, 1)]

    def test_the_clock_holds_floats(self):
        """A config may give integer times; ``now`` (and every time stamped
        from it) stays a float, as the clock always wrote it."""
        queue = EventQueue()
        queue.push(timer(3))
        assert queue.pop_entry()[0] == 3.0
        assert type(queue.clock.now) is float and queue.clock.now == 3.0

    def test_pops_in_time_order(self):
        queue = EventQueue()
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            queue.push(timer(t))
        assert [queue.pop().time for _ in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        queue.push(timer(1.0, "first"))
        queue.push(timer(1.0, "second"))
        queue.push(timer(1.0, "third"))
        assert [queue.pop().name for _ in range(3)] == ["first", "second", "third"]

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(timer(7.0))
        queue.push(timer(3.0))
        assert queue.peek_time() == 3.0
        assert len(queue) == 2  # peek does not consume

    def test_len_tracks_pushes_and_pops(self):
        queue = EventQueue()
        handles = [queue.push(timer(float(i))) for i in range(4)]
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3
        queue.cancel(handles[2])
        assert len(queue) == 2


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        queue.push(timer(1.0, "keep"))
        handle = queue.push(timer(2.0, "drop"))
        queue.push(timer(3.0, "keep2"))
        queue.cancel(handle)
        assert [queue.pop().name for _ in range(2)] == ["keep", "keep2"]
        assert not queue

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        handle = queue.push(timer(1.0))
        queue.cancel(handle)
        queue.cancel(handle)
        assert not queue

    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        handle = queue.push(timer(1.0))
        other = queue.push(timer(2.0))
        queue.pop()
        queue.cancel(handle)  # already popped
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_cancel_head_updates_peek(self):
        queue = EventQueue()
        head = queue.push(timer(1.0))
        queue.push(timer(5.0))
        queue.cancel(head)
        assert queue.peek_time() == 5.0


class TestDrain:
    def test_drain_yields_everything_in_order(self):
        queue = EventQueue()
        for t in (3.0, 1.0, 2.0):
            queue.push(timer(t))
        assert [e.time for e in queue.drain()] == [1.0, 2.0, 3.0]
        assert not queue


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
def test_property_pops_sorted(times):
    queue = EventQueue()
    for t in times:
        queue.push(timer(t))
    popped = [queue.pop().time for _ in range(len(times))]
    assert popped == sorted(times)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100),
    st.data(),
)
def test_property_cancel_subset(times, data):
    """Cancelling any subset leaves exactly the complement, still sorted."""
    queue = EventQueue()
    handles = [queue.push(timer(t, name=str(i))) for i, t in enumerate(times)]
    to_cancel = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(times) - 1), max_size=len(times))
    )
    for index in to_cancel:
        queue.cancel(handles[index])
    remaining = sorted(
        (times[i] for i in range(len(times)) if i not in to_cancel)
    )
    popped = [queue.pop().time for _ in range(len(queue))]
    assert popped == remaining


class TestSharedDeliveries:
    """push_deliveries / pop_entry: one shared event, per-entry time+dest."""

    def test_entries_fire_at_their_own_times_and_dests(self):
        queue = EventQueue()
        event = shared_event()
        queue.push_deliveries(event, [3.0, 1.0, 2.0], [7, 5, 6])
        popped = [queue.pop_entry() for _ in range(3)]
        assert [(e[0], e[3]) for e in popped] == [(1.0, 5), (2.0, 6), (3.0, 7)]
        assert all(e[2] is event for e in popped)

    def test_interleaves_with_ordinary_events(self):
        queue = EventQueue()
        queue.push(timer(1.5, "mid"))
        queue.push_deliveries(shared_event(), [1.0, 2.0], [3, 4])
        first, second, third = (queue.pop_entry() for _ in range(3))
        assert first[3] == 3
        assert second[2].name == "mid" and second[3] is None
        assert third[3] == 4

    def test_handle_sequence_shared_with_push(self):
        """Tie-breaking across push and push_deliveries is insertion order."""
        queue = EventQueue()
        queue.push(timer(1.0, "a"))
        queue.push_deliveries(shared_event(), [1.0], [9])
        queue.push(timer(1.0, "b"))
        kinds = []
        for _ in range(3):
            entry = queue.pop_entry()
            kinds.append(entry[2].name if entry[3] is None else "delivery")
        assert kinds == ["a", "delivery", "b"]

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SchedulingError):
            queue.push_deliveries(shared_event(), [1.0, -0.5], [0, 1])

    def test_pop_is_event_view_of_pop_entry(self):
        queue = EventQueue()
        event = shared_event()
        queue.push_deliveries(event, [1.0], [4])
        assert queue.pop() is event

    def test_rejected_batch_leaves_the_queue_untouched(self):
        """All or nothing: a bad time anywhere in the batch schedules none
        of it and consumes no handle."""
        queue = EventQueue()
        queue.push_deliveries(shared_event(), [2.0, 1.0], [0, 1])
        queue.pop_entry()
        for times, dests in ([3.0, 0.5, -0.5], [0, 1, 2]), ([1.0, 2.0], [0]):
            with pytest.raises(SchedulingError):
                queue.push_deliveries(shared_event(), times, dests)
            assert len(queue) == 1 and len(queue._heap) == 1
        assert queue.push(timer(2.0)) == 2
        assert [(e[0], e[1], e[3]) for e in (queue.pop_entry(), queue.pop_entry())] == [
            (2.0, 0, 0), (2.0, 2, None),
        ]

    def test_a_reserved_span_leaves_unused_handles_unused(self):
        """Rows under handles ``base + offsets[i]`` of a reserved span; the
        recipient is ``dests[offsets[i]]``, and a later push takes the next
        handle after the span."""
        queue = EventQueue()
        assert queue.reserve(5) == 0
        event = shared_event()
        queue.push_deliveries(event, [2.0, 1.0, 2.0], [9, 8, 7, 6, 5], [0, 2, 4], 0)
        assert queue.push(timer(2.0)) == 5
        assert len(queue) == 4
        popped = [queue.pop_entry() for _ in range(4)]
        assert [(e[0], e[1], e[3]) for e in popped] == [
            (1.0, 2, 7), (2.0, 0, 9), (2.0, 4, 5), (2.0, 5, None)]

    def test_empty_batch_is_a_no_op(self):
        queue = EventQueue()
        queue.push_deliveries(shared_event(), [], [])
        assert not queue and len(queue) == 0 and not queue._heap
        assert queue.push(timer(1.0)) == 0

    def test_one_heap_entry_per_batch_and_plain_floats_out(self):
        import numpy as np

        queue = EventQueue()
        queue.push_deliveries(shared_event(), np.array([3.0, 1.0, 2.0]), [7, 5, 6])
        assert len(queue) == 3 and len(queue._heap) == 1
        assert queue.peek_time() == 1.0 and type(queue.peek_time()) is float
        popped = [queue.pop_entry() for _ in range(3)]
        assert [tuple(e[:2]) + (e[3],) for e in popped] == [(1.0, 1, 5), (2.0, 2, 6), (3.0, 0, 7)]
        assert all(type(e[0]) is float and type(e[3]) is int for e in popped)
        assert not queue and not queue._heap

    def test_introspection_counts_every_pending_delivery(self):
        queue = EventQueue()
        first, second = shared_event(), shared_event()
        queue.push_deliveries(first, [4.0, 2.0, 2.0], [0, 1, 2])
        queue.push(timer(2.0, "t"))
        queue.push_deliveries(second, [2.0, 1.0], [3, 4])
        assert len(queue) == 6
        assert queue.live_count(MessageEvent) == 5
        assert queue.live_count(TimeEvent) == 1
        assert [getattr(e, "name", e) for e in queue.live_events()] == [
            second, first, first, "t", second, first,
        ]
        queue.pop_entry()
        assert len(queue) == 5 and queue.live_count(MessageEvent) == 4
        # Cancelling a shared event cancels each remaining delivery of it.
        assert queue.cancel_if(lambda e: e is first) == 3
        assert len(queue) == 2 and queue.live_count(MessageEvent) == 1
        assert [getattr(e, "name", e) for e in queue.drain()] == ["t", second]
        assert not queue and queue.peek_time() is None


class TestTombstoneCompaction:
    """Heavy cancellation churn must not let the heap grow unboundedly:
    at n=1000 a protocol run cancels hundreds of thousands of timers."""

    def test_heap_stays_bounded_under_100k_cancels(self):
        queue = EventQueue()
        cancels = 0
        for i in range(120_000):
            handle = queue.push(timer(float(i % 977)))
            if i % 10 != 0:  # cancel 90% immediately
                queue.cancel(handle)
                cancels += 1
        assert cancels > 100_000
        live = len(queue)
        # Without compaction the heap would hold all 120k entries.
        assert len(queue._heap) < 2 * live + EventQueue.COMPACT_MIN_TOMBSTONES + 1

    def test_pop_order_correct_after_compaction(self):
        queue = EventQueue()
        handles = {}
        for i in range(5_000):
            handles[i] = queue.push(timer(float((i * 37) % 1009), name=str(i)))
        for i in range(0, 5_000, 2):
            queue.cancel(handles[i])
        for i in range(1, 5_000, 4):
            queue.cancel(handles[i])
        expected = sorted(
            (float((i * 37) % 1009), i)
            for i in range(5_000)
            if i % 2 != 0 and i % 4 != 1
        )
        popped = [queue.pop() for _ in range(len(queue))]
        assert [(e.time, int(e.name)) for e in popped] == expected
        assert not queue

    def test_cancel_if_triggers_compaction(self):
        queue = EventQueue()
        for i in range(10_000):
            queue.push(timer(float(i), name="victim" if i % 4 else "keep"))
        removed = queue.cancel_if(lambda e: e.name == "victim")
        assert removed == 7_500
        # Dead entries outnumber live ones, so the sweep compacts the heap.
        assert len(queue._heap) == 2_500

    def test_live_cursors_are_not_tombstones(self):
        """Deliveries are not in ``_entries``; counting their heap entries
        as dead would compact on every cancel past the floor."""
        queue = EventQueue()
        for i in range(200):
            queue.push_deliveries(shared_event(), [float(i), i + 0.5], [0, 1])
        keep = [queue.push(timer(float(i))) for i in range(100)]
        victims = [queue.push(timer(i + 0.25, name="victim")) for i in range(150)]
        heap = queue._heap
        for handle in victims:  # dead (<= 150) never outnumbers live (>= 300)
            queue.cancel(handle)
        assert queue._heap is heap and len(heap) == 450
        for handle in keep:  # 250 dead > 200 live cursors: compacts once
            queue.cancel(handle)
        assert queue._heap is not heap
        assert len(queue) == 400
        popped = [queue.pop_entry() for _ in range(400)]
        assert [(e[0], e[3]) for e in popped] == [
            (i + half, int(2 * half)) for i in range(200) for half in (0.0, 0.5)
        ]

    def test_cancel_if_compacts_cancelled_cursors_away(self):
        queue = EventQueue()
        doomed = shared_event()
        for i in range(100):
            queue.push_deliveries(doomed, [float(i), i + 0.5], [0, 1])
        survivor = shared_event()
        queue.push_deliveries(survivor, [7.0, 3.0], [8, 9])
        assert queue.cancel_if(lambda e: e is doomed) == 200
        assert len(queue) == 2 and len(queue._heap) == 1
        assert [queue.pop_entry()[3] for _ in range(2)] == [9, 8]

    def test_compaction_keeps_shared_delivery_entries(self):
        queue = EventQueue()
        queue.push_deliveries(shared_event(), [10.0, 20.0], [1, 2])
        handles = [queue.push(timer(float(i))) for i in range(500)]
        for handle in handles:
            queue.cancel(handle)
        assert len(queue) == 2
        assert [queue.pop_entry()[3] for _ in range(2)] == [1, 2]
