"""Discrete-event machinery: events and the priority event queue.

The paper's simulator (§III-A2) advances a simulation clock from a priority
queue ordered by event timestamps, with two event kinds: *message events*
(a node receives a message) and *time events* (a registered timer fires).
This module implements both, plus the queue.

Determinism: ties on the timestamp are broken by a monotonically increasing
sequence number assigned at scheduling time, giving a total order on events.
Together with seeded randomness (:mod:`repro.core.rng`) this makes every
simulation run a pure function of its configuration.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .clock import SimulationClock
from .errors import SchedulingError
from .message import Message


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for queue entries.

    Attributes:
        time: simulation time (ms) at which the event fires.
    """

    time: float


@dataclass(frozen=True, slots=True)
class MessageEvent(Event):
    """Delivery of a message to its destination node.

    The recipient is normally ``message.dest``; a broadcast on the shared
    delivery tier (any dissemination mode) schedules one *shared* event and
    message for all n recipients, and the queue keeps their firing times
    and recipients in one cursor entry (:meth:`EventQueue.push_deliveries`):
    n copies cost ~16 bytes each, not n event + message structures.

    Attributes:
        message: the message being delivered.
    """

    message: Message = field(default=None)  # type: ignore[assignment]

    def describe(self) -> str:
        return f"msg[{self.message.describe()}] deliver@{self.time:.1f}"


@dataclass(frozen=True, slots=True)
class TimeEvent(Event):
    """A timer registered by a node, the attacker, or the controller.

    Attributes:
        owner: node id for protocol timers, ``ATTACKER_OWNER`` for attacker
            timers, ``CONTROLLER_OWNER`` for controller-internal deadlines.
        name: protocol-defined label (e.g. ``"view-timeout"``).
        data: arbitrary context the owner attached when registering.
        timer_id: unique id so owners can cancel specific timers.
        cause: causal-lineage id of the event being handled when the timer
            was registered (observability metadata, never read by engine or
            protocol logic; see :attr:`repro.core.message.Message.cause`).
    """

    owner: int = 0
    name: str = ""
    data: Any = None
    timer_id: int = -1
    cause: str | None = None

    def describe(self) -> str:
        return f"timer[{self.name}#{self.timer_id} owner={self.owner}] @{self.time:.1f}"


#: Pseudo-owner ids for non-node timers.
ATTACKER_OWNER: int = -2
CONTROLLER_OWNER: int = -3


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events pop in ``(time, insertion order)`` order.  Cancellation is lazy:
    cancelled entries stay in the heap as tombstones and are skipped on pop,
    which keeps both operations O(log n).

    Hot-path layout: a heap entry is a tuple that starts ``(time, handle,
    event, dest)``.  The unique handle breaks time ties before the event is
    reached, and a tuple holds its items inline, so a heap compare reads two
    objects per side (the tuple and its time) where a list reads three: on a
    heap of a few hundred entries the compares are most of a pop.  An
    ordinary event's entry is ``(time, handle, event, None)``, live while
    its handle is in ``_entries``; :meth:`cancel` removes the handle, and
    the entry left in the heap is a tombstone.

    A shared-tier broadcast (:meth:`push_deliveries`) is **one** heap entry
    however many nodes it reaches: ``(time, handle, event, dest, base,
    cursor, pos)`` describes arrival ``pos`` of ``cursor = (times, order,
    dests)``, its arrivals sorted by ``(time, handle)``, and ``base`` is the
    batch's first handle.  ``times`` and ``order`` (each arrival's handle
    offset) are ``array``s, 16 bytes per pending delivery.  Popping hands
    out the head entry and puts the next arrival's entry in its place with
    one ``heapreplace``, so n concurrent broadcasts hold O(n) heap entries,
    not O(n²).  A cursor's keys ascend and handles are unique, so pop order is
    exactly that of per-recipient entries.  Deliveries are not in
    ``_entries`` (they cannot be cancelled singly); ``dest`` is ``None``
    only for ordinary events, which tells the kinds apart.
    :meth:`pop_entry` exposes the recipient; :meth:`pop` stays the
    event-only view.

    The queue keeps time: each pop stores the released event's time in
    ``clock.now``, and a push earlier than it raises
    :class:`~repro.core.errors.SchedulingError` at the push.  So pops never
    go back in time, and the run loop moves its clock without a call.

    Args:
        clock: the clock to keep (the controller's); a fresh one at 0 when
            omitted.
    """

    __slots__ = ("_heap", "_entries", "_next_handle", "_pending", "_cursors", "clock")

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock if clock is not None else SimulationClock()
        self._heap: list[tuple] = []
        #: live handle -> its heap entry, for every *ordinary* event: the
        #: single source of truth for their queue membership (tombstoned and
        #: popped entries are absent).
        self._entries: dict[int, tuple] = {}
        self._next_handle = 0
        #: Running counts — pending deliveries over all live cursors, and
        #: live cursors — keep ``len()`` and tombstone accounting O(1).
        self._pending = 0
        self._cursors = 0

    def __len__(self) -> int:
        return len(self._entries) + self._pending

    def __bool__(self) -> bool:
        return bool(self._entries) or self._pending > 0

    def push(self, event: Event) -> int:
        """Schedule ``event``; returns a handle usable with :meth:`cancel`."""
        time = float(event.time)  # the clock, set from it, holds a float
        if time < self.clock.now:
            self._refuse(time)
        handle = self._next_handle
        self._next_handle = handle + 1
        entry = (time, handle, event, None)
        self._entries[handle] = entry
        heappush(self._heap, entry)
        return handle

    # No caller left in src/, but bench/tracing.py wraps it by name.
    def push_batch(self, events: "Iterable[Event]") -> None:
        """Schedule many events in iteration order (one handle each).

        Exactly equivalent to calling :meth:`push` per event — same handle
        sequence, same tie-breaking — minus the per-call overhead.
        """
        entries = self._entries
        heap = self._heap
        handle = self._next_handle
        now = self.clock.now
        try:
            for event in events:
                time = float(event.time)
                if time < now:
                    self._refuse(time)
                entry = (time, handle, event, None)
                entries[handle] = entry
                heappush(heap, entry)
                handle += 1
        finally:
            self._next_handle = handle

    def push_deliveries(
        self,
        event: "MessageEvent",
        times: "Sequence[float] | np.ndarray",
        dests: "Sequence[int]",
        offsets: "Sequence[int] | None" = None,
        base: int | None = None,
    ) -> None:
        """Schedule one *shared* delivery event at many ``(time, dest)`` pairs.

        The shared broadcast tier's bulk insert: pair ``i`` gets handle
        ``base + i`` (same sequence and tie-breaking as per-event
        :meth:`push`), the batch one cursor entry.  Dispatch must read the
        recipient and firing time from :meth:`pop_entry`, never from the
        shared event.  ``dests`` is kept by reference and must index to
        plain ``int``.  A rejected batch leaves the queue and the handle
        counter untouched; an empty one is a no-op.

        With ``offsets`` the handles were taken beforehand (:meth:`reserve`
        returned ``base``): pair ``i`` gets handle ``base + offsets[i]``,
        ascending, and its recipient is ``dests[offsets[i]]``.  An attacked
        broadcast uses this to leave a dropped copy's handle unused.
        """
        times = np.asarray(times, dtype=np.float64)
        count = len(times)
        if len(dests) != count and offsets is None:
            raise SchedulingError(f"{count} delivery times for {len(dests)} recipients")
        if not count:
            return
        order = times.argsort(kind="stable")  # ties by index == by handle
        times = array("d", times[order].tobytes())
        if times[0] < self.clock.now:
            self._refuse(times[0])
        if offsets is None:
            base = self._next_handle
            self._next_handle = base + count
        else:
            order = np.asarray(offsets, dtype=order.dtype)[order]
        self._pending += count
        self._cursors += 1
        order = array(order.dtype.char, order.tobytes())
        first = order[0]
        heappush(
            self._heap,
            (times[0], base + first, event, dests[first], base, (times, order, dests), 0),
        )

    def reserve(self, count: int) -> int:
        """Take the next ``count`` handles for :meth:`push_deliveries`'
        ``offsets``; returns the first."""
        base = self._next_handle
        self._next_handle = base + count
        return base

    def _refuse(self, time: float) -> None:
        raise SchedulingError(
            f"event scheduled at {time} before the current time {self.clock.now}"
        )

    #: Tombstone-compaction trigger: once the heap holds more dead entries
    #: than live ones (and more than this floor), it is rebuilt from the
    #: live set.  Keeps pop cost O(log live) under cancellation churn — a
    #: protocol at n = 1000 cancels hundreds of thousands of timers — while
    #: staying amortized O(1) per cancel.
    COMPACT_MIN_TOMBSTONES = 64

    def cancel(self, handle: int) -> None:
        """Cancel a previously pushed event.

        Cancelling twice, or cancelling an already-popped handle, is a no-op:
        protocols routinely cancel timers that may have just fired.
        """
        if self._entries.pop(handle, None) is not None:
            live = len(self._entries) + self._cursors
            dead = len(self._heap) - live
            if dead > self.COMPACT_MIN_TOMBSTONES and dead > live:
                self._compact()

    def _live(self) -> list[tuple]:
        """The heap's entries without its tombstones, in heap order."""
        entries = self._entries
        return [entry for entry in self._heap if entry[3] is not None or entry[1] in entries]

    def _compact(self) -> None:
        """Rebuild the heap from live entries, dropping every tombstone.

        The pop order is untouched — entries compare by ``(time, handle)``,
        a total order independent of heap layout.
        """
        live = self._live()
        heapify(live)
        self._heap = live

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        entry = self.pop_entry()
        if entry is None:
            raise SchedulingError("pop from an empty event queue")
        return entry[2]

    def pop_entry(self, limit: float = math.inf) -> tuple | None:
        """Remove and return the earliest live entry ``(time, handle, event,
        dest)`` if it fires at or before ``limit``; else ``None``, leaving
        the queue as it was (an empty queue also gives ``None``).

        The run loop's one queue call per event: it passes the earliest
        time at which it must look up from dispatching (horizon, stall
        deadline, observer window), so the common event costs one compare.
        For shared broadcast deliveries (:meth:`push_deliveries`) the
        authoritative firing time and recipient live in the entry, not the
        event.  ``dest`` is ``None`` for ordinary events; a delivery's entry
        has a fifth slot, the first handle of its batch, so ``handle - base``
        is the delivery's index in the ``push_deliveries`` call (its last
        two slots are the queue's own).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            time = entry[0]
            if time > limit:
                return None
            if entry[3] is None:
                heappop(heap)
                if self._entries.pop(entry[1], None) is None:
                    continue  # a tombstone
                self.clock.now = time
                return entry
            self.clock.now = time
            times, order, dests = cursor = entry[5]
            pos = entry[6] + 1
            try:
                next_time = times[pos]
            except IndexError:  # the broadcast's last delivery
                heappop(heap)
                self._cursors -= 1
            else:
                base = entry[4]
                offset = order[pos]
                heapreplace(heap, (
                    next_time, base + offset, entry[2], dests[offset], base, cursor, pos,
                ))
            self._pending -= 1
            return entry
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when empty."""
        heap = self._heap
        entries = self._entries
        while heap:
            entry = heap[0]
            if entry[3] is None and entry[1] not in entries:
                heappop(heap)
                continue
            return entry[0]
        return None

    def cancel_if(self, predicate: "Callable[[Event], bool]") -> int:
        """Cancel every live event satisfying ``predicate``; returns count.

        A matching shared delivery event loses every remaining delivery,
        each counted.  O(heap), and the heap is rebuilt without the
        cancelled entries and the tombstones; used for rare structural
        operations such as a node crash discarding that node's pending
        timers.
        """
        removed = 0
        entries = self._entries
        kept = []
        for entry in self._live():
            if predicate(entry[2]):
                if entry[3] is None:
                    del entries[entry[1]]
                    removed += 1
                else:
                    remaining = len(entry[5][0]) - entry[6]
                    self._pending -= remaining
                    self._cursors -= 1
                    removed += remaining
            else:
                kept.append(entry)
        if len(kept) < len(self._heap):
            heapify(kept)
            self._heap = kept
        return removed

    def live_count(self, event_type: type) -> int:
        """Number of live events of exactly ``event_type``, a shared
        delivery event counting once per remaining recipient.

        O(heap); used by the metrics registry's in-flight-messages gauge,
        which samples at interval boundaries, never per event.
        """
        return sum(
            1 if entry[3] is None else len(entry[5][0]) - entry[6]
            for entry in self._live()
            if type(entry[2]) is event_type
        )

    def live_events(self) -> list[Event]:
        """Every live (non-cancelled) event in firing order, without
        popping; a shared delivery event once per remaining recipient.

        Diagnostic view used by the liveness watchdog's pending-event
        census; O(n log n), never on the hot path.
        """
        firings = []  # (time, handle, event)
        for entry in self._live():
            if entry[3] is None:
                firings.append(entry[:3])
            else:
                event, base, (times, order, _dests), pos = entry[2], entry[4], entry[5], entry[6]
                firings.extend(
                    (times[i], base + order[i], event) for i in range(pos, len(times))
                )
        firings.sort(key=itemgetter(0, 1))
        return [firing[2] for firing in firings]

    def drain(self) -> Iterator[Event]:
        """Pop every remaining live event, in order (mainly for tests)."""
        while self:
            yield self.pop()
