"""Performance metrics and online safety checking.

The paper evaluates protocols with two low-level metrics (§II-C): **time
usage** (simulated time between protocol start and termination) and
**message usage** (number of transmitted messages).  This module collects
both, tracks per-slot decisions, detects termination, and verifies safety
(agreement between honest nodes) as decisions arrive.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from .errors import SafetyViolationError


@dataclass(frozen=True, slots=True)
class Decision:
    """A single ``decide`` report from an honest node."""

    node: int
    slot: int
    value: Any
    time: float


@dataclass(slots=True)
class MessageCounts:
    """Breakdown of network traffic during a run.

    Attributes:
        sent: messages transmitted over the network by honest nodes
            (broadcast expanded; loopback self-deliveries excluded).  This is
            the paper's "message usage".
        byzantine: messages transmitted by corrupted nodes or forged by the
            attacker.
        dropped: messages removed in flight (by the attacker or because the
            destination crashed).
        delivered: messages actually dispatched to a destination node.
    """

    sent: int = 0
    byzantine: int = 0
    dropped: int = 0
    delivered: int = 0
    bytes_sent: int = 0


@dataclass(slots=True)
class FaultCounts:
    """Counters of environmental fault events during a run.

    These count *benign environment* effects (the :mod:`repro.faults`
    layer), never attacker actions — keeping the attacker-vs-environment
    boundary visible in every result.  Like ``wall_clock_seconds``, fault
    counters are excluded from :func:`~repro.core.results.result_fingerprint`.

    Attributes:
        lost: messages dropped by a ``loss`` fault process.
        duplicated: extra copies injected by a ``duplicate`` process.
        corrupted: messages tampered by a ``corrupt`` process.
        rejected: tampered messages rejected at delivery (the receiver's
            signature/checksum verification stand-in).
        delayed: messages re-timed by a ``delay`` process.
        link_down: messages dropped inside a ``link-down`` window.
        crashes: node crash events.
        recoveries: node recovery events.
        crash_dropped: messages addressed to a crashed node at delivery time.
    """

    lost: int = 0
    duplicated: int = 0
    corrupted: int = 0
    rejected: int = 0
    delayed: int = 0
    link_down: int = 0
    crashes: int = 0
    recoveries: int = 0
    crash_dropped: int = 0

    def total(self) -> int:
        """Total number of fault events (all counters summed)."""
        return (
            self.lost + self.duplicated + self.corrupted + self.rejected
            + self.delayed + self.link_down + self.crashes + self.recoveries
            + self.crash_dropped
        )

    def any(self) -> bool:
        """True when any environmental fault occurred."""
        return self.total() > 0


class MetricsCollector:
    """Accumulates metrics for a single simulation run.

    Safety is enforced online: the first pair of honest decisions that
    disagree on a slot raises
    :class:`~repro.core.errors.SafetyViolationError` immediately (carrying
    both decisions), so violating executions fail fast and loudly.
    """

    def __init__(self, n: int, num_decisions: int) -> None:
        self.n = n
        self.num_decisions = num_decisions
        self.counts = MessageCounts()
        self.faults = FaultCounts()
        self.decisions: list[Decision] = []
        self._by_slot: dict[int, dict[int, Decision]] = defaultdict(dict)
        self._per_node: dict[int, int] = defaultdict(int)
        self._faulty: set[int] = set()
        #: Non-faulty nodes that have decided >= num_decisions slots.
        #: Maintained incrementally so the controller's per-event
        #: termination check is O(1) instead of scanning every node.
        self._satisfied: set[int] = set()
        self.start_time = 0.0
        self.end_time: float | None = None

    # -- faults --------------------------------------------------------------

    def mark_faulty(self, node: int) -> None:
        """Exclude ``node`` from honest-node accounting from now on.

        Called by the controller when the attacker crashes or corrupts a
        node.  Decisions the node made while honest remain valid.
        """
        self._faulty.add(node)
        self._satisfied.discard(node)

    @property
    def faulty(self) -> frozenset[int]:
        return frozenset(self._faulty)

    def honest_nodes(self) -> list[int]:
        """Ids of nodes currently considered honest."""
        return [i for i in range(self.n) if i not in self._faulty]

    # -- traffic ---------------------------------------------------------------

    def on_sent(self, byzantine: bool = False) -> None:
        if byzantine:
            self.counts.byzantine += 1
        else:
            self.counts.sent += 1

    def on_bytes(self, size: int) -> None:
        """Account estimated wire bytes for one transmitted message."""
        self.counts.bytes_sent += size

    def on_delivered(self) -> None:
        self.counts.delivered += 1

    # -- decisions ---------------------------------------------------------------

    def on_decision(self, node: int, slot: int, value: Any, time: float) -> None:
        """Record a decision; checks agreement and duplicate reports."""
        if node in self._faulty:
            return  # faulty nodes' reports are ignored entirely
        slot_decisions = self._by_slot[slot]
        if node in slot_decisions:
            existing = slot_decisions[node]
            if existing.value != value:
                raise SafetyViolationError(
                    f"node {node} decided twice for slot {slot}: "
                    f"{existing.value!r} then {value!r}"
                )
            return  # idempotent duplicate
        # The honest decisions of a slot always agree (each was checked on
        # arrival, and mark_faulty only ever shrinks the honest set), so the
        # most recent honest one decides the check.  On a mismatch the
        # forward scan names the first honest decider that disagrees.
        for latest in reversed(slot_decisions.values()):
            if latest.node in self._faulty:
                continue
            if latest.value != value:
                for other in slot_decisions.values():
                    if other.value != value and other.node not in self._faulty:
                        raise SafetyViolationError(
                            f"slot {slot}: node {node} decided {value!r} at {time:.1f} "
                            f"but node {other.node} decided {other.value!r} "
                            f"at {other.time:.1f}"
                        )
            break
        decision = Decision(node=node, slot=slot, value=value, time=time)
        slot_decisions[node] = decision
        self.decisions.append(decision)
        self._per_node[node] += 1
        if self._per_node[node] >= self.num_decisions:
            self._satisfied.add(node)

    def decisions_of(self, node: int) -> int:
        """How many slots ``node`` has decided."""
        return self._per_node[node]

    def decided_value(self, slot: int) -> Any:
        """The agreed value for ``slot`` (any honest decision; they agree)."""
        for decision in self._by_slot.get(slot, {}).values():
            if decision.node not in self._faulty:
                return decision.value
        raise KeyError(f"no honest decision recorded for slot {slot}")

    def decided_slots(self) -> list[int]:
        """Slots with at least one honest decision, sorted."""
        return sorted(
            slot
            for slot, per_node in self._by_slot.items()
            if any(d.node not in self._faulty for d in per_node.values())
        )

    # -- termination ---------------------------------------------------------------

    def terminated(self) -> bool:
        """True once every honest node has decided ``num_decisions`` slots.

        O(1): ``_satisfied`` only ever contains non-faulty nodes
        (``on_decision`` ignores faulty reporters and ``mark_faulty``
        evicts), so it covers the honest set exactly when every honest node
        has decided enough slots.
        """
        honest = self.n - len(self._faulty)
        return honest > 0 and len(self._satisfied) >= honest

    def finish(self, time: float) -> None:
        self.end_time = time

    # -- derived results ---------------------------------------------------------------

    def latency(self) -> float:
        """Total time usage: start to termination (or to horizon)."""
        end = self.end_time if self.end_time is not None else 0.0
        return end - self.start_time

    def latency_per_decision(self) -> float:
        """Average latency per decided value — the paper's per-decision
        metric for pipelined protocols (§IV)."""
        return self.latency() / max(1, self.num_decisions)

    def messages_per_decision(self) -> float:
        """Average honest message count per decided value."""
        return self.counts.sent / max(1, self.num_decisions)

    def slot_completion_times(self) -> dict[int, float]:
        """For each decided slot, the time the *last* honest node decided it
        (only slots every honest node has decided are included)."""
        honest = set(self.honest_nodes())
        out: dict[int, float] = {}
        for slot, per_node in self._by_slot.items():
            deciders = {d.node for d in per_node.values() if d.node in honest}
            if honest <= deciders:
                out[slot] = max(
                    d.time for d in per_node.values() if d.node in honest
                )
        return out
