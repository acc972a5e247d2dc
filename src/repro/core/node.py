"""The node abstraction protocols are written against.

The paper's consensus module exposes three functions (§III-A3): a message
callback (``onMsgEvent``), a timer callback (``onTimeEvent``), and a result
channel (``reportToSystem``).  :class:`Node` maps these to ``on_message``,
``on_timer``, and ``decide``/``report``, and adds the convenience helpers
protocols need (``send``, ``broadcast``, ``set_timer``).

Nodes never touch the event queue, clock, or network directly; they interact
through a :class:`NodeEnvironment` facade implemented by the controller.
This keeps protocol code identical whether it runs under the fast
message-level simulator or the packet-level baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Protocol

from .events import TimeEvent
from .message import BROADCAST, Message


@dataclass(frozen=True, slots=True)
class TimerHandle:
    """Opaque reference to a pending timer, for cancellation."""

    timer_id: int
    queue_handle: int


class NodeEnvironment(Protocol):
    """Services the controller provides to nodes (and only these)."""

    @property
    def now(self) -> float:
        """Current simulation time (ms)."""

    @property
    def n(self) -> int:
        """Total number of nodes."""

    @property
    def f(self) -> int:
        """Number of tolerated faults."""

    @property
    def lam(self) -> float:
        """The protocol's configured timeout parameter lambda (ms)."""

    @property
    def seed(self) -> int:
        """The run's root random seed (shared setup, e.g. VRF keys)."""

    def protocol_param(self, name: str, default: Any = None) -> Any:
        """Look up an entry of ``config.protocol_params``."""

    def send_message(self, message: Message) -> None:
        """Hand a message to the network module."""

    def register_timer(self, owner: int, delay: float, name: str, data: Any) -> TimerHandle:
        """Schedule a time event for ``owner`` after ``delay`` ms."""

    def cancel_timer(self, handle: TimerHandle) -> None:
        """Cancel a pending timer (no-op if already fired)."""

    def report_decision(self, node_id: int, slot: int, value: Any) -> None:
        """Record that ``node_id`` decided ``value`` for ``slot``."""

    def report_to_system(self, node_id: int, kind: str, **fields: Any) -> None:
        """Record a protocol-defined trace event (view changes, phases...)."""

    def report_phase(self, node_id: int, phase: str, **fields: Any) -> None:
        """Record a protocol phase transition (pure observability; unlike
        :meth:`report_to_system` it has no engine side effects)."""

    def rng(self, name: str) -> random.Random:
        """A named deterministic random stream."""


class Node:
    """Base class for honest protocol replicas.

    Subclasses implement :meth:`on_start`, :meth:`on_message`, and
    :meth:`on_timer`.  The controller guarantees that crashed or corrupted
    nodes stop receiving callbacks, so protocol code never needs to model
    its own failure.

    Attributes:
        id: this node's identifier in ``range(n)``.
        env: the controller facade (see :class:`NodeEnvironment`).
    """

    #: Whether this protocol supports a crashed replica rejoining the run
    #: (the environmental crash–recovery fault, :mod:`repro.faults`).
    #: Protocols that cannot support rejoin leave this False and the
    #: controller rejects crash+recovery schedules for them up front.
    supports_recovery: bool = False

    def __init__(self, node_id: int, env: NodeEnvironment) -> None:
        self.id = node_id
        self.env = env
        self._decided_log: list[tuple[int, Any]] = []
        # n and f are fixed for a run, so quorum sizes are computed once per
        # (node, kind) — protocols call quorum() on every vote delivery.
        self._quorum_cache: dict[str, int] = {}

    # -- lifecycle callbacks (override in subclasses) ----------------------

    def on_start(self) -> None:
        """Called once at time 0, before any event is dispatched."""

    def on_message(self, message: Message) -> None:
        """Called when a message event for this node fires."""

    def on_timer(self, timer: TimeEvent) -> None:
        """Called when a time event registered by this node fires."""

    def on_recover(self) -> None:
        """Called when the environment recovers this node from a crash.

        The crash model assumes stable storage: in-memory protocol state
        survives, but every pending timer was lost and messages addressed to
        the node while it was down were dropped.  The safe default replays
        the node's own decided slots (idempotent — the metrics collector
        deduplicates equal reports), so a recovered replica re-asserts what
        it already agreed to.  Protocols that set ``supports_recovery``
        extend this to re-arm their timers and resume participation.
        """
        for slot, value in self._decided_log:
            self.env.report_decision(self.id, slot, value)

    # -- convenience properties --------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def n(self) -> int:
        return self.env.n

    @property
    def f(self) -> int:
        return self.env.f

    @property
    def lam(self) -> float:
        return self.env.lam

    def quorum(self, kind: str = "byzantine") -> int:
        """Common quorum sizes.

        ``"byzantine"`` returns ``ceil((n+f+1)/2)`` — the smallest set size
        whose pairwise intersections contain at least one honest node (for
        the canonical ``n = 3f+1`` this is the familiar ``2f+1``; for
        ``n > 3f+1`` a flat ``2f+1`` would be *unsafe*: two disjoint
        "quorums" could decide different values).  ``"available"`` returns
        ``n - f`` (every honest node), ``"plurality"`` returns ``f + 1``
        (at least one honest node).
        """
        size = self._quorum_cache.get(kind)
        if size is None:
            if kind == "byzantine":
                size = (self.n + self.f) // 2 + 1
            elif kind == "available":
                size = self.n - self.f
            elif kind == "plurality":
                size = self.f + 1
            else:
                raise ValueError(f"unknown quorum kind {kind!r}")
            self._quorum_cache[kind] = size
        return size

    # -- actions ------------------------------------------------------------

    def send(self, dest: int, **payload: Any) -> None:
        """Send ``payload`` to node ``dest`` through the network module."""
        self.env.send_message(Message(source=self.id, dest=dest, payload=payload))

    def broadcast(self, **payload: Any) -> None:
        """Send ``payload`` to every node, including this one.

        The self-addressed copy is delivered like any other message (with a
        sampled network delay of zero enforced by the network module for
        loopback), so protocol handlers can treat their own messages
        uniformly.
        """
        self.env.send_message(Message(source=self.id, dest=BROADCAST, payload=payload))

    def set_timer(self, delay: float, name: str, **data: Any) -> TimerHandle:
        """Register a time event ``delay`` ms from now."""
        return self.env.register_timer(self.id, delay, name, data)

    def cancel_timer(self, handle: TimerHandle | None) -> None:
        """Cancel ``handle`` if it is a live timer; ``None`` is accepted."""
        if handle is not None:
            self.env.cancel_timer(handle)

    def decide(self, slot: int, value: Any) -> None:
        """Report a decision for consensus instance ``slot``.

        Equivalent to the paper's ``reportToSystem``: the controller records
        the decision, checks safety against other honest nodes, and
        terminates the run once every honest node has decided the configured
        number of slots.
        """
        self._decided_log.append((slot, value))
        self.env.report_decision(self.id, slot, value)

    def report(self, kind: str, **fields: Any) -> None:
        """Record a protocol-level trace event (e.g. a view change)."""
        self.env.report_to_system(self.id, kind, **fields)

    def phase(self, name: str, **fields: Any) -> None:
        """Tag this replica's current protocol phase (e.g. ``"prepare"``).

        A no-op-by-default observability hook: it records a ``"phase"``
        trace event when tracing is on, never touches engine state (no
        watchdog/activity side effects), and silently does nothing under
        environments that predate the hook — so instrumenting a protocol
        can never change its behaviour.
        """
        report = getattr(self.env, "report_phase", None)
        if report is not None:
            report(self.id, name, **fields)

    def rng(self, name: str) -> random.Random:
        """Deterministic per-purpose random stream, namespaced by node id."""
        return self.env.rng(f"node.{self.id}.{name}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id})"
