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
fall back to the median recorded delay and are counted as mismatches.  The
recorded delays reach the network as a per-copy delay override
(:class:`RecordedDelays`), which the shared broadcast tier honours too, so
a replay runs on the tier the recorded run took.
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
    for time, kind, node, fields in trace.rows():
        if kind == "send":
            key = (node, int(fields["dest"]), str(fields["msg_type"]))
            send_times[int(fields["msg_id"])] = (time, key)
        elif kind == "deliver":
            delivered.append((int(fields["msg_id"]), time))
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


class RecordedDelays:
    """The replay's delay-override hook: ``hook(message, dest)`` is the
    ground-truth transit delay of the copy of ``message`` to ``dest``.

    Delays are matched by ``(source, dest, message type)`` stream in send
    order; a copy the ground truth never sent (the replayed run drifted)
    gets the median recorded delay and is counted in :attr:`unmatched`.
    """

    def __init__(self, ground_truth: Trace) -> None:
        schedule = extract_delivery_schedule(ground_truth)
        self._schedule = {key: deque(delays) for key, delays in schedule.items()}
        all_delays = [d for delays in schedule.values() for d in delays]
        if not all_delays:
            raise ValidationError("ground-truth trace contains no deliveries to replay")
        self._fallback_delay = statistics.median(all_delays)
        self.unmatched = 0

    def __call__(self, message: Message, dest: int) -> float:
        pending = self._schedule.get((message.source, dest, message.type))
        if pending:
            return pending.popleft()
        self.unmatched += 1
        return self._fallback_delay


class ReplayController(Controller):
    """A controller whose network assigns ground-truth delays.

    The delay override prices one copy at a time on either network tier, so
    a replay takes the tier the recorded run took: a benign broadcast stays
    one shared message, priced per recipient from the recording.
    """

    def __init__(self, config: SimulationConfig, ground_truth: Trace) -> None:
        replay_config = config.replace(record_trace=True)
        super().__init__(replay_config)
        self.recorded_delays = RecordedDelays(ground_truth)
        # First-class extension point: the network consults the override for
        # every copy that still needs a delay (loopback self-deliveries are
        # pinned to zero before the hook and never reach it).
        self.network.set_delay_override(self.recorded_delays)

    @property
    def unmatched_messages(self) -> int:
        """Copies the ground truth never sent (priced at the median)."""
        return self.recorded_delays.unmatched


def replay_simulation(config: SimulationConfig, ground_truth: Trace) -> SimulationResult:
    """Run ``config`` under the delivery schedule recorded in ``ground_truth``."""
    return ReplayController(config, ground_truth).run_and_release()
