"""A BFTSim-style packet-level baseline simulator (Fig. 2 comparison).

BFTSim (Singh et al., NSDI'08) — the baseline the paper compares against —
couples a P2 declarative-dataflow engine with the ns-2 packet-level network
simulator.  Its artifact is not available, so this module rebuilds its
*cost structure*, which is all Fig. 2 depends on:

* **Packet-level network.**  Every protocol message is split into MTU-sized
  packets, each pushed hop-by-hop (sender uplink -> switch -> receiver
  downlink) through FIFO links with serialization and propagation delay,
  one simulator event per packet per hop.  A message-level simulator pays
  one event per message; this pays Theta(packets x hops).
* **Dataflow evaluation.**  P2 evaluates declarative rules by joining each
  newly derived tuple against the node's stored tables.  The baseline
  archives one tuple per delivered message and performs the corresponding
  linear scan on every delivery, so per-event work grows with history —
  semi-naive Datalog evaluation, honestly executed.
* **Memory behaviour.**  Every archived tuple is charged
  ``tuple_bytes * n`` virtual bytes (per-peer indexes), against a 4 GiB
  budget (a 2008-class machine).  Exceeding it raises
  :class:`~repro.core.errors.BaselineCapacityError` — the out-of-memory
  failure the paper reports for BFTSim beyond 32 nodes.

The baseline runs the *same* protocol implementations as the main
simulator (they only see the ``NodeEnvironment`` facade), so Fig. 2 is a
pure simulator-architecture comparison — and the validator module can
cross-check traces between the two engines, standing in for the paper's
BFTSim cross-validation (§III-D).

Like BFTSim, the baseline models only benign failures: it accepts the
``null`` and ``failstop`` attacks and rejects everything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import SimulationConfig
from ..core.controller import Controller
from ..core.errors import BaselineCapacityError, ConfigurationError
from ..core.events import Event, MessageEvent
from ..core.message import BROADCAST, Message, estimate_message_bytes
from ..core.results import SimulationResult
from ..crypto.signatures import canonical
from ..network.delays import DelayModel
from .links import Link, packetize

#: Attacks BFTSim-style simulation can express (benign failures only).
SUPPORTED_ATTACKS = ("null", "failstop")

#: Virtual bytes charged per archived tuple, per node it is indexed for.
#: P2 materializes per-peer dataflow state (session tables, retransmission
#: buffers, rule indexes); 48 KiB per tuple per peer calibrates the model to
#: BFTSim's reported failure point (out-of-memory just past 32 nodes).
TUPLE_BYTES: int = 48 * 1024

#: Default memory budget: a 2008-class 4 GiB machine.
DEFAULT_BUDGET_BYTES: int = 4 * 1024**3

#: Link bandwidth: 1 Gbit/s in bytes per millisecond.
GIGABIT_BYTES_PER_MS: float = 125_000.0

#: Fixed protocol header overhead per message, bytes.
HEADER_BYTES: int = 128


@dataclass(frozen=True)
class PacketHopEvent(Event):
    """One packet finishing one hop."""

    message: Message = None  # type: ignore[assignment]
    packet_index: int = 0
    packet_count: int = 1
    size_bytes: int = 0
    hop: str = "switch"  # "switch" -> at the fabric; "dest" -> at receiver
    residual_delay: float = 0.0  # second-half propagation for the next hop


class PacketLevelNetwork:
    """Star topology: every node has an uplink and a downlink to a switch."""

    def __init__(self, controller: "BaselineController") -> None:
        self._controller = controller
        self.delay_model = DelayModel(
            controller.config.network,
            controller.random_source.numpy("baseline.delay"),
        )
        n = controller.n
        self.uplinks = [Link(GIGABIT_BYTES_PER_MS, 0.0) for _ in range(n)]
        self.downlinks = [Link(GIGABIT_BYTES_PER_MS, 0.0) for _ in range(n)]

    def submit(self, message: Message) -> None:
        now = self._controller.clock.now
        message.sent_at = now
        if message.dest == BROADCAST:
            for dest in range(self._controller.n):
                self._submit_single(message.copy_for(dest))
        else:
            self._submit_single(message)

    def _submit_single(self, message: Message) -> None:
        controller = self._controller
        now = controller.clock.now
        message.msg_id = controller.next_message_id()
        if message.dest == message.source:
            message.delay = 0.0
            controller.queue.push(MessageEvent(time=now, message=message))
            return
        counts = controller.metrics.counts
        counts.sent += 1
        counts.bytes_sent += estimate_message_bytes(message)
        controller.trace.record(
            now, "send", message.source,
            dest=message.dest, msg_type=message.type, msg_id=message.msg_id,
        )
        # The end-to-end propagation budget for this message, split across
        # the two hops, reproduces the configured delay distribution.
        total_delay = self.delay_model.sample_delay(now)
        half = total_delay / 2.0
        sizes = packetize(HEADER_BYTES + len(canonical(message.payload)))
        uplink = self.uplinks[message.source]
        for index, size in enumerate(sizes):
            timing = uplink.transmit(size, now)
            controller.record_packet_trace(
                timing.start, "enqueue", message, index, size
            )
            controller.queue.push(
                PacketHopEvent(
                    time=timing.arrival + half,
                    message=message,
                    packet_index=index,
                    packet_count=len(sizes),
                    size_bytes=size,
                    hop="switch",
                    residual_delay=half,
                )
            )

    def forward_from_switch(self, event: PacketHopEvent) -> None:
        """Second hop: switch -> destination downlink."""
        downlink = self.downlinks[event.message.dest]
        timing = downlink.transmit(event.size_bytes, event.time)
        self._controller.record_packet_trace(
            event.time, "forward", event.message, event.packet_index, event.size_bytes
        )
        self._controller.queue.push(
            PacketHopEvent(
                time=timing.arrival + event.residual_delay,
                message=event.message,
                packet_index=event.packet_index,
                packet_count=event.packet_count,
                size_bytes=event.size_bytes,
                hop="dest",
                residual_delay=0.0,
            )
        )

    def send_ack(self, event: PacketHopEvent) -> None:
        """Transport-level per-packet acknowledgement (BFTSim ran its
        protocols over TCP in ns-2): a small reverse-path packet through
        both links, one more simulator event per data packet."""
        ack_size = 64
        up = self.uplinks[event.message.dest]
        timing = up.transmit(ack_size, event.time)
        self._controller.queue.push(
            PacketHopEvent(
                time=timing.arrival + self.delay_model.config.min_delay,
                message=event.message,
                packet_index=event.packet_index,
                packet_count=event.packet_count,
                size_bytes=ack_size,
                hop="ack",
                residual_delay=0.0,
            )
        )


@dataclass
class _NodeStore:
    """A node's P2-style tuple archive."""

    tuples: list[str] = field(default_factory=list)

    def insert_and_evaluate(self, tuple_kind: str) -> int:
        """Archive a tuple and run the semi-naive join: scan the existing
        store for tuples of the same kind (quorum-counting rules).  The
        scan is the honest per-event cost of declarative evaluation."""
        matches = sum(1 for kind in self.tuples if kind == tuple_kind)
        self.tuples.append(tuple_kind)
        return matches


class BaselineController(Controller):
    """Controller wired to the packet-level network and tuple stores."""

    def __init__(
        self, config: SimulationConfig, budget_bytes: int = DEFAULT_BUDGET_BYTES
    ) -> None:
        if config.attack.name not in SUPPORTED_ATTACKS:
            raise ConfigurationError(
                f"the baseline simulator models benign failures only "
                f"(attack {config.attack.name!r} unsupported; "
                f"supported: {SUPPORTED_ATTACKS})"
            )
        super().__init__(config)
        self.network = PacketLevelNetwork(self)  # type: ignore[assignment]
        self.budget_bytes = budget_bytes
        self._stores = [_NodeStore() for _ in range(config.n)]
        self._archived_tuples = 0
        self._reassembly: dict[int, int] = {}
        self._packet_trace: list[str] = []

    # -- memory model ---------------------------------------------------------

    @property
    def virtual_bytes(self) -> int:
        """Modelled memory footprint of the archived dataflow state."""
        return self._archived_tuples * TUPLE_BYTES * self.n

    def _charge_tuple(self) -> None:
        self._archived_tuples += 1
        if self.virtual_bytes > self.budget_bytes:
            raise BaselineCapacityError(
                f"baseline out of memory: {self.virtual_bytes / 1024**3:.1f} GiB "
                f"of archived dataflow state exceeds the "
                f"{self.budget_bytes / 1024**3:.1f} GiB budget at n={self.n}"
            )

    # -- event dispatch ---------------------------------------------------------

    def _dispatch(self, entry: list) -> None:
        event = entry[2]
        if isinstance(event, PacketHopEvent):
            if event.hop == "switch":
                self.network.forward_from_switch(event)
            elif event.hop == "ack":
                self.record_packet_trace(
                    event.time, "ack", event.message, event.packet_index, event.size_bytes
                )
            else:
                self._on_packet_at_destination(event)
            return
        super()._dispatch(entry)

    def record_packet_trace(
        self, time: float, action: str, message: Message, index: int, size: int
    ) -> None:
        """Append an ns-2-style trace line for a packet action.

        ns-2 runs with per-packet tracing on; the formatted line is part of
        the baseline's honest per-event cost and its retained state."""
        self._packet_trace.append(
            f"{action} {time:.6f} {message.source} {message.dest} "
            f"{message.type} pkt={index} size={size} id={message.msg_id}"
        )

    def _on_packet_at_destination(self, event: PacketHopEvent) -> None:
        message = event.message
        self.network.send_ack(event)
        self.record_packet_trace(
            event.time, "recv", message, event.packet_index, event.size_bytes
        )
        received = self._reassembly.get(message.msg_id, 0) + 1
        if received < event.packet_count:
            self._reassembly[message.msg_id] = received
            return
        self._reassembly.pop(message.msg_id, None)
        if message.dest in self._halted:
            return
        self._stores[message.dest].insert_and_evaluate(message.type)
        self._charge_tuple()
        self.metrics.counts.delivered += 1
        self.trace.record(
            event.time, "deliver", message.dest,
            source=message.source, msg_type=message.type, msg_id=message.msg_id,
        )
        self.nodes[message.dest].on_message(message)


def run_baseline_simulation(
    config: SimulationConfig, budget_bytes: int = DEFAULT_BUDGET_BYTES
) -> SimulationResult:
    """Run ``config`` on the packet-level baseline engine.

    Raises:
        BaselineCapacityError: when the modelled memory budget is exceeded
            (the paper's BFTSim OOM beyond 32 nodes).
    """
    return BaselineController(config, budget_bytes=budget_bytes).run_and_release()
