"""The fault injector: applies link-level fault processes to messages.

The :class:`FaultInjector` sits between the attacker module and delivery
scheduling inside :class:`~repro.network.module.NetworkModule`: every
message that survives the attacker passes through the active fault schedule
before its delivery event is registered.  Node crash/recovery faults are
*not* handled here — the controller schedules those as timed lifecycle
events (see :mod:`repro.core.controller`).

Determinism: each fault process draws from its own substream named
``faults.<index>`` (index = the spec's position in the schedule), and
duplicate copies sample their independent delay from a dedicated
``faults.delay`` stream.  Fault draws therefore never perturb the network
delay stream, and reordering unrelated specs does not change the draws an
unchanged spec sees.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from ..core.config import LINK_FAULT_KINDS, FaultScheduleConfig, NetworkConfig
from ..core.message import Message
from ..core.rng import RandomSource
from ..network.delays import DelayModel

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import MetricsCollector
    from ..core.tracing import Trace


class FaultInjector:
    """Applies the link-level fault processes of a schedule to messages.

    Args:
        schedule: the run's declarative fault schedule.
        random_source: the run's root random source; the injector derives
            its own substreams and never touches existing ones.
        network_config: network parameters, used to sample independent
            delays for duplicated messages.
        metrics: the run's collector; fault events increment
            ``metrics.faults`` (a :class:`~repro.core.metrics.FaultCounts`),
            never the attacker-facing ``MessageCounts``.
        trace, next_message_id: the run's trace and id allocator; not
            read: the network module numbers every copy (duplicates
            included) and writes the ``env-*`` records, since it alone
            knows each copy's id.
    """

    def __init__(
        self,
        schedule: FaultScheduleConfig,
        random_source: RandomSource,
        network_config: NetworkConfig,
        metrics: "MetricsCollector",
        trace: "Trace",
        next_message_id: Callable[[], int],
    ) -> None:
        self.schedule = schedule
        self._metrics = metrics
        self._link_specs = [
            (index, spec)
            for index, spec in enumerate(schedule.specs)
            if spec.kind in LINK_FAULT_KINDS
        ]
        self._rngs: dict[int, random.Random] = {
            index: random_source.python(f"faults.{index}")
            for index, _spec in self._link_specs
        }
        # Hot-path bindings: one (spec, bound rng.random) pair per process so
        # ``apply`` touches no dict lookups per copy.  The substreams and
        # their draw order are exactly the ones in ``_rngs``.
        self._active = [
            (spec, self._rngs[index].random) for index, spec in self._link_specs
        ]
        self._fault_counts = metrics.faults
        self._dup_delays = DelayModel(
            network_config, random_source.numpy("faults.delay")
        )

    def apply(
        self, message: Message, links: list[int], dests: list[int],
        delays: list[float], keep: list[bool],
    ) -> list[tuple[int, str, float]]:
        """The fault schedule's decisions for the wire copies of one
        message, sent at ``message.sent_at``.

        Row ``i`` is the copy for ``dests[i]``, sent over the link from
        ``links[i]`` (the relaying node on a dissemination hop: link faults
        are physical) with delay ``delays[i]``; a row whose ``keep`` is
        already false is skipped.  Specs apply in schedule order: loss and
        link-down clear ``keep`` and end the row, a delay fault scales
        ``delays`` in place, and a duplicate is an independent extra copy,
        not re-processed.  Returns what happened as ``(row, kind, value)``,
        copy by copy and in schedule order within a copy: a ``duplicate``
        carries the extra copy's delay, a ``delay`` its factor.  Each
        stream is drawn in that order too.  The counters move here,
        except ``corrupted``, which depends on the copy's flag; the
        network module numbers the copies, flags them and writes the
        ``env-*`` records.
        """
        sent_at = message.sent_at
        active = [(spec, draw) for spec, draw in self._active if spec.in_window(sent_at)]
        happened: list[tuple[int, str, float]] = []
        if not active:
            return happened
        faults = self._fault_counts
        for row, dest in enumerate(dests):
            if not keep[row]:
                continue
            for spec, draw in active:
                if not spec.matches_link(links[row], dest):
                    continue
                kind = spec.kind
                if kind == "link-down":
                    faults.link_down += 1
                elif draw() >= spec.rate:
                    continue
                elif kind == "loss":
                    faults.lost += 1
                elif kind == "duplicate":
                    faults.duplicated += 1
                    happened.append((row, kind, self._dup_delays.sample_delay(sent_at)))
                    continue
                elif kind == "corrupt":
                    happened.append((row, kind, 0.0))
                    continue
                else:  # delay
                    delays[row] = delays[row] * spec.factor
                    faults.delayed += 1
                    happened.append((row, kind, spec.factor))
                    continue
                happened.append((row, kind, 0.0))
                keep[row] = False
                break
        return happened

