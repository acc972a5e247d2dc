"""Replay network: re-run a simulation under a ground-truth delivery schedule.

The paper's validator module (§III-A6) is "a special mode of the network
module" that replays message events according to a ground-truth event
sequence produced by another simulator (BFTSim there; our packet-level
baseline or a golden trace here), then checks that the consensus module
produces the same result.

Mechanics: the ground-truth trace pairs each ``send`` with its ``deliver``,
giving every transmitted message an observed transit delay.  The replay
network assigns those recorded delays — matched by
``(source, dest, message type, occurrence index)``, which is stable across
engines because protocol logic is deterministic — instead of sampling new
ones.  Messages without a ground-truth counterpart (the replayed run drifted)
fall back to the median recorded delay and are counted as mismatches.
"""

from __future__ import annotations

import statistics
from collections import defaultdict, deque

from ..core.config import SimulationConfig
from ..core.controller import Controller
from ..core.errors import ValidationError
from ..core.message import Message
from ..core.results import SimulationResult
from ..core.tracing import Trace


def extract_delivery_schedule(trace: Trace) -> dict[tuple[int, int, str], list[float]]:
    """Per ``(source, dest, msg_type)`` stream, the observed transit delays
    in send order."""
    send_times: dict[int, tuple[float, tuple[int, int, str]]] = {}
    delivered: list[tuple[int, float]] = []
    for event in trace:
        if event.kind == "send":
            fields = event.fields
            key = (event.node, int(fields["dest"]), str(fields["msg_type"]))
            send_times[int(fields["msg_id"])] = (event.time, key)
        elif event.kind == "deliver":
            delivered.append((int(event.fields["msg_id"]), event.time))
    schedule: dict[tuple[int, int, str], list[float]] = defaultdict(list)
    order: dict[tuple[int, int, str], list[tuple[float, float]]] = defaultdict(list)
    for msg_id, time in delivered:
        if msg_id not in send_times:
            continue
        sent_at, key = send_times[msg_id]
        order[key].append((sent_at, time - sent_at))
    for key, entries in order.items():
        entries.sort()
        schedule[key] = [delay for _sent, delay in entries]
    return schedule


class ReplayController(Controller):
    """A controller whose network assigns ground-truth delays.

    The delay override re-times single copies, so every broadcast of a
    replay takes the network's per-copy tier (one message per recipient),
    whatever tier the recorded run used.
    """

    def __init__(self, config: SimulationConfig, ground_truth: Trace) -> None:
        replay_config = config.replace(record_trace=True)
        super().__init__(replay_config)
        schedule = extract_delivery_schedule(ground_truth)
        self._schedule = {key: deque(delays) for key, delays in schedule.items()}
        all_delays = [d for delays in schedule.values() for d in delays]
        if not all_delays:
            raise ValidationError("ground-truth trace contains no deliveries to replay")
        self._fallback_delay = statistics.median(all_delays)
        self.unmatched_messages = 0
        # First-class extension point: the network consults the override for
        # every message that still needs a delay (loopback self-deliveries
        # are pinned to zero before the hook and never reach it).
        self.network.set_delay_override(self._replay_delay)

    def _replay_delay(self, message: Message) -> float:
        """The ground-truth transit delay for ``message``.

        Delays are matched by ``(source, dest, message type)`` stream in
        send order; a message the ground truth never sent (the replayed run
        drifted) gets the median recorded delay and is counted in
        :attr:`unmatched_messages`.
        """
        key = (message.source, message.dest, message.type)
        pending = self._schedule.get(key)
        if pending:
            return pending.popleft()
        self.unmatched_messages += 1
        return self._fallback_delay


def replay_simulation(config: SimulationConfig, ground_truth: Trace) -> SimulationResult:
    """Run ``config`` under the delivery schedule recorded in ``ground_truth``."""
    return ReplayController(config, ground_truth).run_and_release()
