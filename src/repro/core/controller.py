"""The controller: initialization, event dispatch, termination.

The controller is the paper's §III-A1 component: it builds every other
module from the configuration, owns the event queue and simulation clock,
dispatches message and time events to the consensus and attacker modules,
and produces the final :class:`~repro.core.results.SimulationResult` from
the metrics collector.

It also implements the :class:`~repro.core.node.NodeEnvironment` facade —
the only surface protocol code can touch.
"""

from __future__ import annotations

import math
import random
import time as _time
from collections import Counter
from typing import TYPE_CHECKING, Any

from ..attacks.base import Attacker, AttackerContext
from ..attacks.registry import make_attacker
from ..faults.engine import FaultInjector
from ..network.module import NetworkModule
from ..observability.logging import SimLogger, get_logger
from ..observability.signals import LiveSignals
from ..protocols.registry import get_protocol
from .clock import SimulationClock
from .config import SimulationConfig
from .errors import ConfigurationError, LivenessTimeoutError
from .events import (
    ATTACKER_OWNER,
    CONTROLLER_OWNER,
    EventQueue,
    MessageEvent,
    TimeEvent,
)
from .message import Message
from .metrics import MetricsCollector
from .node import Node, TimerHandle
from .results import SimulationResult, StallReport
from .rng import RandomSource
from .tracing import Trace, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from ..observability.health import HealthMonitor
    from ..observability.metrics import MetricsRegistry
    from ..workload.manager import WorkloadManager


def _copy_id(entry: list) -> int:
    """Per-run id of the message copy that delivery ``entry`` carries.

    A shared broadcast is one :class:`Message` holding the first of the ids
    it reserved; ids and queue handles are reserved in lockstep, so copy
    ``i`` (handle ``base + i``) has id ``msg_id + i`` — what the per-copy
    tier stamps on its own message object.
    """
    msg_id = entry[2].message.msg_id
    if entry[3] is None:
        return msg_id
    return msg_id + entry[1] - entry[4]


def _hooks(observers: tuple, name: str) -> tuple:
    """The bound ``name`` method of every observer that has one, in order."""
    return tuple(getattr(o, name) for o in observers if hasattr(o, name))


class Controller:
    """Builds and runs one simulation.

    Typical use goes through :func:`repro.core.runner.run_simulation`; the
    controller is public for tests and for embedding the simulator in other
    harnesses (the validator module drives it directly).

    Args:
        config: the run's complete configuration.
        sink: optional :class:`~repro.core.tracing.TraceSink` receiving the
            run's trace events; passing one enables tracing regardless of
            ``config.record_trace`` (telemetry routing is a caller concern,
            not part of the experiment's identity — the configuration, and
            therefore the determinism fingerprint, is untouched).
        metrics: optional :class:`~repro.observability.metrics.MetricsRegistry`;
            when set, the engine binds its standard instruments (queue depth,
            in-flight messages, per-node wire bytes, delivery latency...) and
            samples them on the simulated clock.  The result then carries a
            :class:`~repro.observability.metrics.RunMetrics` (outside the
            fingerprint).  Like the other telemetry arguments, this is a run
            argument, never part of the experiment's identity.
        health: optional :class:`~repro.observability.health.HealthMonitor`;
            when set, the dispatch loop feeds its O(1) anomaly detectors
            and the result carries a
            :class:`~repro.observability.health.HealthReport` (outside the
            fingerprint).  OBSERVE-only and RNG-free, like the other
            telemetry arguments.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        sink: TraceSink | None = None,
        metrics: "MetricsRegistry | None" = None,
        health: "HealthMonitor | None" = None,
    ) -> None:
        config.validate()
        self.config = config
        protocol_cls = get_protocol(config.protocol)
        self.n = config.n
        self.f = config.f if config.f is not None else protocol_cls.max_resilience(config.n)
        if self.f >= config.n:
            raise ConfigurationError(f"f={self.f} must be < n={config.n}")
        protocol_cls.check_resilience(self.n, self.f)
        if config.faults.requires_recovery() and not protocol_cls.supports_recovery:
            raise ConfigurationError(
                f"protocol {config.protocol!r} does not support crash recovery; "
                "schedule a permanent crash (omit the recovery time) or pick a "
                "protocol whose class sets supports_recovery = True"
            )

        self.clock = SimulationClock()
        self.queue = EventQueue()
        self.random_source = RandomSource(config.seed)
        self._shared_rngs: dict[str, random.Random] = {}
        self.metrics = MetricsCollector(self.n, config.num_decisions)
        if sink is not None:
            self.trace = Trace(enabled=True, sink=sink)
        else:
            self.trace = Trace(enabled=config.record_trace)
        #: Simulated-time metrics registry (or None).
        self.obs_metrics = metrics
        #: Streaming run-health monitor (or None); bound at the end of
        #: construction, once the workload ledger it samples exists.
        self.health = health
        #: What is being handled right now: the dispatched queue entry, or
        #: the literal setup cause ("a" during attacker setup, "s<node>"
        #: during on_start).  None before the run starts.  Read through
        #: :attr:`_current_cause`.
        self._cause: list | str | None = None
        self.log = SimLogger(get_logger("controller"), clock=self.clock)

        self.attacker: Attacker = make_attacker(config.attack)
        #: Live run signals for signal-driven adversaries; allocated only
        #: when the attacker asks for them (``wants_signals``), so benign
        #: runs carry no extra per-event state and no RNG perturbation.
        self.signals: "LiveSignals | None" = (
            LiveSignals(self.n) if self.attacker.wants_signals else None
        )
        self.attacker_ctx = AttackerContext(self, self.attacker.capabilities)
        self.attacker.bind(self.attacker_ctx)

        #: The observer seam: who hears a send, a delivery, a decision and
        #: a view entry is resolved here, once, into tuples of bound
        #: methods; every site is ``for hook in hooks: hook(...)``, so a
        #: bare run iterates empty tuples.  This is the one place an
        #: observer is listed, and the order is a contract: the monitor
        #: closes its window before the registry samples at the same
        #: boundary (two of the registry's gauges read the monitor).
        observers = tuple(
            o for o in (self.signals, health, metrics) if o is not None
        )
        self._on_send = _hooks(observers, "on_send")
        self._on_deliver = _hooks(observers, "on_deliver")
        self._on_decide = _hooks(observers, "on_decide")
        self._on_view = _hooks(observers, "on_view")
        #: Observers with a clock: ``advance(now)`` closes every window up
        #: to ``now``, ``next_boundary`` is when the next one is due,
        #: ``finish(now)`` closes the last.
        self._clocks = tuple(o for o in observers if hasattr(o, "advance"))
        if metrics is not None:
            metrics.bind_engine(self)

        self._timer_ids = iter(range(1, 1 << 62))
        self._last_message_id = 0

        self.fault_injector: FaultInjector | None = None
        if config.faults.link_specs():
            self.fault_injector = FaultInjector(
                config.faults,
                self.random_source,
                config.network,
                self.metrics,
                self.trace,
                self.next_message_id,
            )

        self.network = NetworkModule(
            self,
            config.network,
            self.random_source.numpy("network.delay"),
            self.attacker,
            self.attacker_ctx,
            faults=self.fault_injector,
        )

        self.nodes: list[Node] = [protocol_cls(i, self) for i in range(self.n)]
        self._halted: set[int] = set()
        self._down: set[int] = set()
        self._permanent_crashes: set[int] = set()
        self._events_processed = 0
        self._max_view = 0
        self._stop_reason: str | None = None
        self._stall: StallReport | None = None
        self._last_progress = 0.0
        self._node_activity: dict[int, float] = {i: 0.0 for i in range(self.n)}
        #: Per-node activity tracking feeds only the stall report, which is
        #: built only when the liveness watchdog is armed — gate the
        #: per-event dict write (two of them per delivered event at n=1000)
        #: behind that.
        self._watchdog = config.stall_timeout is not None
        #: Termination-check gate: ``metrics.terminated()`` can only change
        #: after a decision or a change to the honest set, so the run loop
        #: re-evaluates it only when this flag is raised (one attribute load
        #: per event instead of a full predicate call).
        self._termination_dirty = True
        #: Open-loop client workload (or None).  Built from its own
        #: ``workload.{client}`` substreams, so benign runs draw nothing
        #: extra and their fingerprints are untouched.
        self._workload: "WorkloadManager | None" = None
        if config.workload is not None:
            from ..workload.manager import WorkloadManager

            self._workload = WorkloadManager(config.workload, self.random_source)
        self._schedule_crash_events()
        if self._workload is not None:
            self._schedule_workload_events()
        if health is not None:
            health.bind_engine(self)

    # ------------------------------------------------------------------
    # NodeEnvironment facade
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def lam(self) -> float:
        return self.config.lam

    @property
    def seed(self) -> int:
        return self.config.seed

    def protocol_param(self, name: str, default: Any = None) -> Any:
        return self.config.protocol_params.get(name, default)

    @property
    def _current_cause(self) -> str | None:
        """Causal id of the event being dispatched: "m<msg_id>" or
        "t<timer_id>" (or the setup cause).  Derived on read — most
        dispatched events send, schedule and decide nothing."""
        cause = self._cause
        if type(cause) is list:
            event = cause[2]
            if type(event) is TimeEvent:
                return f"t{event.timer_id}"
            return f"m{_copy_id(cause)}"
        return cause

    def send_message(self, message: Message) -> None:
        if message.source in self._halted and not message.forged:
            return  # a halted replica's late sends vanish silently
        if message.source in self._down and not message.forged:
            return  # a crashed node cannot transmit while down
        self.network.submit(message)

    def register_timer(self, owner: int, delay: float, name: str, data: Any) -> TimerHandle:
        if delay < 0:
            raise ConfigurationError(f"timer delay must be >= 0, got {delay}")
        timer_id = next(self._timer_ids)
        event = TimeEvent(
            time=self.clock.now + delay,
            owner=owner,
            name=name,
            data=data,
            timer_id=timer_id,
            cause=self._current_cause,
        )
        handle = self.queue.push(event)
        return TimerHandle(timer_id=timer_id, queue_handle=handle)

    def cancel_timer(self, handle: TimerHandle) -> None:
        self.queue.cancel(handle.queue_handle)

    def cut_batch(self, proposer: int, slot: int, view: int | None = None) -> str | None:
        """Cut a mempool batch for ``slot``, or ``None`` for synthetic.

        The propose-from-mempool hook behind
        :meth:`~repro.protocols.base.ProtocolNode.proposal_value`: returns a
        batch tag string when a workload is configured and a cut trigger is
        ready, else ``None`` so the synthetic-payload path stays the
        default.
        """
        if self._workload is None:
            return None
        return self._workload.cut_batch(proposer, slot, view, self.clock.now)

    def report_decision(self, node_id: int, slot: int, value: Any) -> None:
        now = self.clock.now
        self.metrics.on_decision(node_id, slot, value, now)
        if self._workload is not None and node_id not in self.metrics.faulty:
            # First honest decision of a slot stamps decided-at on the
            # winning batch's requests and requeues the losers (idempotent
            # per slot inside the manager).
            self._workload.on_decided(slot, value, now)
        self._termination_dirty = True
        self._last_progress = now
        self._node_activity[node_id] = now
        for hook in self._on_decide:
            hook(node_id, now)
        if self.trace.enabled:
            self.trace.record(
                now, "decide", node_id,
                slot=slot, value=value, cause=self._current_cause,
            )

    def report_phase(self, node_id: int, phase: str, **fields: Any) -> None:
        """Record a protocol phase transition (no-op unless tracing).

        Deliberately side-effect free with respect to the engine: unlike
        :meth:`report_to_system` it touches neither the liveness watchdog
        nor node-activity bookkeeping, so instrumented and uninstrumented
        protocols terminate identically.
        """
        if self.trace.enabled:
            self.trace.record(self.clock.now, "phase", node_id, phase=phase, **fields)

    def report_to_system(self, node_id: int, kind: str, **fields: Any) -> None:
        if kind == "view" and "view" in fields:
            # Round-complexity accounting (§II-C): the highest view/round/
            # iteration any honest node entered, tracked even when full
            # tracing is disabled.
            view = int(fields["view"])
            if view > self._max_view:
                self._max_view = view
            # A view advance counts as liveness progress for the watchdog.
            self._last_progress = self.clock.now
            for hook in self._on_view:
                hook(node_id, view, self.clock.now)
        self._node_activity[node_id] = self.clock.now
        if self.trace.enabled:
            self.trace.record(self.clock.now, kind, node_id, **fields)

    def rng(self, name: str) -> random.Random:
        return self.shared_rng(name)

    def shared_rng(self, name: str) -> random.Random:
        """Cached named random stream (stable across calls)."""
        if name not in self._shared_rngs:
            self._shared_rngs[name] = self.random_source.python(name)
        return self._shared_rngs[name]

    # ------------------------------------------------------------------
    # Scheduling / attacker callbacks
    # ------------------------------------------------------------------

    def next_message_id(self, count: int = 1) -> int:
        """Reserve ``count`` consecutive per-run message ids; returns the first.

        Ids are deterministic across identical runs.  A broadcast on the
        shared-delivery tier reserves as many as the per-copy tier assigns,
        so the counter never depends on which tier a broadcast took.
        """
        first = self._last_message_id + 1
        self._last_message_id += count
        return first

    def on_node_corrupted(self, node: int) -> None:
        """Attacker corrupted ``node``: halt its replica from now on."""
        self._halted.add(node)
        self.metrics.mark_faulty(node)
        # Shrinking the honest set can flip the termination predicate.
        self._termination_dirty = True
        self.trace.record(self.clock.now, "corrupt", node)

    # ------------------------------------------------------------------
    # Environmental faults (crash/recovery lifecycle)
    # ------------------------------------------------------------------

    @property
    def down_nodes(self) -> frozenset[int]:
        """Nodes currently crashed by the environment (not the attacker)."""
        return frozenset(self._down)

    def _schedule_crash_events(self) -> None:
        """Register controller-owned timers for every crash/recovery spec."""
        for spec in self.config.faults.crash_specs():
            assert spec.node is not None  # guaranteed by FaultSpec.validate
            if spec.end is None:
                self._permanent_crashes.add(spec.node)
            self.queue.push(TimeEvent(
                time=spec.start, owner=CONTROLLER_OWNER,
                name="env-crash", data=spec.node, timer_id=next(self._timer_ids),
            ))
            if spec.end is not None:
                self.queue.push(TimeEvent(
                    time=spec.end, owner=CONTROLLER_OWNER,
                    name="env-recover", data=spec.node, timer_id=next(self._timer_ids),
                ))

    def _schedule_workload_events(self) -> None:
        """Register one controller-owned submit event per client request."""
        assert self._workload is not None
        for request in self._workload.requests:
            self.queue.push(TimeEvent(
                time=request.submit_time, owner=CONTROLLER_OWNER,
                name="workload-submit", data=request.index,
                timer_id=next(self._timer_ids),
            ))

    def _on_env_event(self, event: TimeEvent) -> None:
        """Handle a controller-owned environment lifecycle event."""
        # Crash/recovery may change the honest set (permanent crashes are
        # marked faulty), which can flip the termination predicate; the
        # last workload submission arms the mempool's drain trigger.
        self._termination_dirty = True
        if event.name == "workload-submit":
            assert self._workload is not None
            self._workload.submit(int(event.data))
            if self.trace.enabled:
                request = self._workload.requests[int(event.data)]
                self.trace.record(
                    event.time, "workload-submit", CONTROLLER_OWNER,
                    request=request.id, client=request.client,
                )
            return
        node = int(event.data)
        if event.name == "env-crash":
            if node in self._down:
                return  # overlapping crash windows: already down
            self._down.add(node)
            # In-memory timers do not survive a crash; pending deliveries
            # are dropped at delivery time (see _dispatch).
            cancelled = self.queue.cancel_if(
                lambda e: isinstance(e, TimeEvent) and e.owner == node
            )
            self.metrics.faults.crashes += 1
            self.trace.record(event.time, "env-crash", node, timers_cancelled=cancelled)
            self.log.info(
                "environment crashed node", node=node, timers_cancelled=cancelled,
                permanent=node in self._permanent_crashes,
            )
            if node in self._permanent_crashes:
                # A permanent fail-stop leaves the honest set for good;
                # a temporary crash stays in honest accounting (it must
                # still decide every slot after recovering).
                self.metrics.mark_faulty(node)
        elif event.name == "env-recover":
            if node not in self._down:
                return
            self._down.discard(node)
            self.metrics.faults.recoveries += 1
            self.trace.record(event.time, "env-recover", node)
            self.log.info("environment recovered node", node=node)
            self.nodes[node].on_recover()
        else:  # pragma: no cover - only the two lifecycle events exist
            raise ConfigurationError(f"unknown controller event {event.name!r}")

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation to termination (or horizon).

        Returns:
            The complete :class:`SimulationResult`.  When the liveness
            watchdog (``config.stall_timeout``) detects a stall, the result
            carries a :class:`StallReport` instead of the run raising — a
            diagnosed stall is a *finding*, not an error.

        Raises:
            LivenessTimeoutError: the run hit ``max_time``/``max_events`` or
                ran out of events before termination, the watchdog is
                disabled, and ``allow_horizon`` is False.
            SafetyViolationError: two honest nodes disagreed.
        """
        started = _time.perf_counter()
        config = self.config
        stall_timeout = config.stall_timeout

        self.log.debug(
            "run starting",
            protocol=config.protocol, n=self.n, f=self.f, seed=config.seed,
        )
        try:
            return self._run_to_completion(started, config, stall_timeout)
        finally:
            # Closed on *every* exit path (safety violations, liveness
            # errors, protocol bugs) so a crashed run still leaves a
            # flushed, readable — truncated but valid — trace behind.
            self.trace.close()

    def run_and_release(self) -> SimulationResult:
        """:meth:`run`, then drop every reference this controller holds.

        For callers that keep only the result.  Nodes, the network module,
        the attacker context and the telemetry observers all point back at
        the controller, so a finished controller is cyclic garbage: it
        lingers (with its queue and every in-flight message) until the
        cycle collector happens to run.  Emptying the controller breaks
        every such cycle and the run is freed by reference counting when
        this returns.  The controller is unusable afterwards; callers that
        inspect it use :meth:`run`.
        """
        try:
            return self.run()
        finally:
            vars(self).clear()

    def _run_to_completion(
        self,
        started: float,
        config: SimulationConfig,
        stall_timeout: float | None,
    ) -> SimulationResult:
        self._cause = "a"
        self.attacker.setup()
        for node in self.nodes:
            if node.id not in self._halted:
                self._cause = f"s{node.id}"
                node.on_start()

        # Hot loop: every name used per iteration is a local (the loop runs
        # once per event — ~100k times for the paper's large configs), and
        # the event counter is flushed back to the instance attribute on
        # every exit path so exceptions (safety violations) still leave an
        # accurate count behind.
        queue = self.queue
        clock = self.clock
        terminated_check = (
            self.metrics.terminated
            if self._workload is None
            else self._workload_terminated
        )
        peek_time = queue.peek_time
        pop_entry = queue.pop_entry
        advance_to = clock.advance_to
        dispatch = self._dispatch
        max_time = config.max_time
        max_events = config.max_events
        events_processed = self._events_processed
        # The earliest window boundary of the observers that have a clock,
        # as a local float: the common iteration pays one compare.
        clocks = self._clocks
        next_window = min((o.next_boundary for o in clocks), default=math.inf)
        try:
            while True:
                # The termination predicate can only change when a decision
                # lands or the honest set shrinks; those paths raise the
                # dirty flag, so the common iteration pays one attribute
                # load instead of the full predicate.
                if self._termination_dirty:
                    self._termination_dirty = False
                    if terminated_check():
                        break
                next_time = peek_time()
                if next_time is None:
                    if stall_timeout is not None:
                        self._stall = self._build_stall(
                            "event queue drained before termination", clock.now
                        )
                        self._stop_reason = "stalled: event queue drained"
                    else:
                        self._stop_reason = "event queue empty before termination"
                    break
                if stall_timeout is not None:
                    deadline = self._last_progress + stall_timeout
                    if next_time > deadline and deadline <= max_time:
                        # No decision, view advance, or honest delivery for a
                        # full watchdog window of simulated time — and nothing
                        # scheduled that could change that before the deadline.
                        advance_to(deadline)
                        self._stall = self._build_stall(
                            f"no honest progress for {stall_timeout:g} ms", deadline
                        )
                        self._stop_reason = "stalled: liveness watchdog"
                        break
                if next_time > max_time:
                    self._stop_reason = f"horizon max_time={max_time} reached"
                    advance_to(max_time)
                    break
                if events_processed >= max_events:
                    self._stop_reason = f"max_events={max_events} reached"
                    break
                entry = pop_entry()
                event_time = entry[0]
                advance_to(event_time)
                events_processed += 1
                # Window closes happen *before* the boundary-crossing
                # event's own trace lines — the ordering contract behind
                # online == offline health replay.
                if event_time >= next_window:
                    for observer in clocks:
                        observer.advance(event_time)
                    next_window = min(o.next_boundary for o in clocks)
                dispatch(entry)
        finally:
            self._events_processed = events_processed

        terminated = terminated_check()
        if self._stall is not None:
            self.log.warning(
                "liveness watchdog stopped the run",
                reason=self._stall.reason,
                last_progress_ms=self._stall.last_progress,
            )
        elif self._stop_reason is not None:
            self.log.info("run stopped before termination", reason=self._stop_reason)
        if not terminated and self._stall is None and not config.allow_horizon:
            raise LivenessTimeoutError(
                f"{config.protocol} did not terminate: {self._stop_reason} "
                f"(decisions: { {i: self.metrics.decisions_of(i) for i in range(self.n)} })"
            )
        self.metrics.finish(self.clock.now)
        for observer in self._clocks:
            observer.finish(self.clock.now)
        wall = _time.perf_counter() - started
        self.log.debug(
            "run finished",
            terminated=terminated,
            events=self._events_processed,
            wall_seconds=round(wall, 4),
        )
        return self._build_result(terminated, wall)

    def _dispatch(self, entry: list) -> None:
        # The unit of dispatch is the queue *entry* (``pop_entry``): the
        # network module's shared tier schedules one MessageEvent for a whole
        # broadcast, so the per-copy firing time, recipient and message id
        # (``_copy_id``) are entry data, not event fields.  For ordinary
        # events they equal ``event.time`` / ``message.dest`` / ``msg_id``.
        #
        # ``type() is`` instead of ``isinstance``: MessageEvent/TimeEvent are
        # the only event kinds the engine schedules, and the exact-type check
        # skips the subclass machinery on the hottest branch in the run loop.
        event_time = entry[0]
        event = entry[2]
        if type(event) is MessageEvent:
            message = event.message
            dest = entry[3]
            if dest is None:
                dest = message.dest
            # Everything sent or scheduled while this delivery is being
            # handled was caused by this message.
            self._cause = entry
            # Slow checks (crashed destination, corrupted replica, tampered
            # payload) only run when such state exists at all — benign runs
            # never enter this block.
            if self._down or self._halted or message.corrupted:
                if dest in self._down:
                    # The destination is crashed: the packet arrives at a dead
                    # host and is lost (recovery does not replay it).
                    self.metrics.faults.crash_dropped += 1
                    self.trace.record(
                        event_time, "env-crash-drop", dest,
                        source=message.source, msg_type=message.type,
                        msg_id=_copy_id(entry),
                    )
                    return
                if dest in self._halted:
                    self.trace.record(
                        event_time, "suppress", dest,
                        msg_type=message.type, msg_id=_copy_id(entry),
                    )
                    return
                if message.corrupted:
                    # Environmental corruption: signature/checksum
                    # verification fails at the receiver; protocol logic
                    # never sees it.
                    self.metrics.faults.rejected += 1
                    self.trace.record(
                        event_time, "env-reject", dest,
                        source=message.source, msg_type=message.type,
                        msg_id=_copy_id(entry),
                    )
                    return
            self.metrics.counts.delivered += 1
            self._last_progress = event_time
            if self._watchdog:
                self._node_activity[dest] = event_time
            for hook in self._on_deliver:
                hook(dest, message.source, message.type, event_time, message.sent_at)
            trace = self.trace
            if trace.enabled:
                # Deliveries carry the message's own cause plus its slot/view
                # coordinates (under the protocol's native key aliases):
                # loopback self-sends never produce a send record, so the
                # causality DAG must be walkable from deliveries alone.  The
                # record goes to the sink as its fields dict, with no
                # keyword hop through ``Trace.record``.
                payload = message.payload
                trace.sink.record(event_time, "deliver", dest, {
                    "source": message.source, "msg_type": message.type,
                    "msg_id": _copy_id(entry), "cause": message.cause,
                    "slot": payload.get("slot", payload.get("height")),
                    "view": payload.get("view", payload.get("round")),
                })
            self.nodes[dest].on_message(message)
        elif type(event) is TimeEvent:
            self._cause = entry
            owner = event.owner
            if owner == ATTACKER_OWNER:
                self.attacker.on_timer(event)
                return
            if owner == CONTROLLER_OWNER:
                self._on_env_event(event)
                return
            if owner in self._halted or owner in self._down:
                return
            if self._watchdog:
                self._node_activity[owner] = event_time
            trace = self.trace
            if trace.enabled:
                trace.record(
                    event_time, "timer", owner,
                    name=event.name, timer_id=event.timer_id, cause=event.cause,
                )
            self.nodes[owner].on_timer(event)
        else:  # pragma: no cover - no other event kinds exist
            raise ConfigurationError(f"unknown event type {type(event).__name__}")

    def _workload_terminated(self) -> bool:
        """Termination predicate for workload runs.

        Three conditions compose: the protocol floor
        (``metrics.terminated()`` — every honest node decided
        ``num_decisions`` slots, so an empty workload still runs the
        protocol), the ledger (every request submitted and decided), and
        full replication (every slot whose decided value carried requests
        has been decided by *every* honest node — clients are only
        answered once the fleet agrees, not just the first replica).
        """
        workload = self._workload
        assert workload is not None
        if not self.metrics.terminated():
            return False
        if not workload.complete():
            return False
        completed = self.metrics.slot_completion_times()
        return all(slot in completed for slot in workload.slots_with_requests())

    def _build_stall(self, reason: str, detected_at: float) -> StallReport:
        """Snapshot the run state into a structured stall diagnosis."""
        census: Counter[str] = Counter()
        for pending in self.queue.live_events():
            if isinstance(pending, MessageEvent):
                census[f"message:{pending.message.type}"] += 1
            elif isinstance(pending, TimeEvent):
                census[f"timer:{pending.name}"] += 1
        return StallReport(
            detected_at=detected_at,
            last_progress=self._last_progress,
            stall_timeout=float(self.config.stall_timeout or 0.0),
            reason=reason,
            node_last_activity=dict(self._node_activity),
            pending_events=dict(census),
            fault_counts=self.metrics.faults,
            down_nodes=tuple(sorted(self._down)),
            halted_nodes=tuple(sorted(self._halted)),
        )

    def _build_result(self, terminated: bool, wall: float) -> SimulationResult:
        metrics = self.metrics
        decided_values = {
            slot: metrics.decided_value(slot) for slot in metrics.decided_slots()
        }
        return SimulationResult(
            config=self.config,
            terminated=terminated,
            latency=metrics.latency(),
            latency_per_decision=metrics.latency_per_decision(),
            messages=metrics.counts.sent,
            messages_per_decision=metrics.messages_per_decision(),
            counts=metrics.counts,
            decisions=list(metrics.decisions),
            decided_values=decided_values,
            faulty=metrics.faulty,
            events_processed=self._events_processed,
            max_view=self._max_view,
            wall_clock_seconds=wall,
            trace=self.trace,
            fault_counts=metrics.faults,
            stall=self._stall,
            run_metrics=(
                self.obs_metrics.build(sim_time_ms=self.clock.now)
                if self.obs_metrics is not None
                else None
            ),
            signals_summary=(
                self.signals.summary_dict() if self.signals is not None else None
            ),
            workload=(
                self._workload.build(self.clock.now)
                if self._workload is not None
                else None
            ),
            health=self.health.report() if self.health is not None else None,
        )
