"""The adaptive signal-driven adversary.

A generic adaptive attacker that reads the run's **own live signals**
(:class:`~repro.observability.signals.LiveSignals`, maintained by the
controller because this class declares ``wants_signals``) to decide whom to
hurt next: the senders that keep closing quorums (the tail of every
decision's critical path), the current quorum-timeline stragglers, or the
fan-in hot spots.  It periodically re-targets on an attacker timer and acts
through one of two verbs:

* ``action="delay"`` — inflate the transit delay of all traffic touching
  the chosen victims (a pure-``NETWORK`` action; combined with ``OBSERVE``
  for the signals and ``ADAPTIVE`` because targets change mid-run).
* ``action="corrupt"`` — spend the corruption budget on the current most
  critical sender, one victim per tick.  Corruption halts the replica
  (the framework fail-stops it), so this is "crash the node the protocol
  can least afford to lose, again and again".

The attacker draws no randomness at all — target selection is a
deterministic function of the signal counters — and the signals themselves
are maintained without RNG, so benign fingerprints are untouched and every
run with this attacker is a pure function of its configuration.

Re-targeting ticks are capped (``max_ticks``) so the event queue drains
once the protocol stops generating work: the liveness watchdog and the
termination predicate behave exactly as they do under every other attacker.

Parameters (``AttackConfig.params``):
    action: ``"delay"`` (default) or ``"corrupt"``.
    signal: which ranking picks victims — ``"critical"`` (default, quorum-
        closing senders with straggler fallback), ``"stragglers"``,
        ``"busiest"`` (overall delivery fan-in), or ``"fan-in"`` (delivery
        fan-in of one message kind — set ``kind``; falls back to the
        overall ranking until that kind has been seen).
    kind: the message type the ``"fan-in"`` signal ranks by (e.g.
        ``"PREPARE"``; required for that signal).
    k: victims targeted per tick (default 1; ``delay`` action only).
    factor: delay multiplier for matching messages (default 4.0).
    extra_delay: flat ms added to matching messages (default 0).
    period: re-targeting interval in ms (default: the protocol's lambda).
    max_ticks: re-targeting ticks before the attacker goes quiet
        (default 256).
    budget: corruptions to spend under ``action="corrupt"``
        (default ``f``).
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError
from ..core.events import TimeEvent
from .base import Attacker, Capability
from .registry import register_attack

#: Victim-ranking signals accepted by the ``signal`` parameter.
SIGNALS = ("critical", "stragglers", "busiest", "fan-in")

#: Actions accepted by the ``action`` parameter.
ACTIONS = ("delay", "corrupt")


@register_attack("adaptive")
class AdaptiveAttacker(Attacker):
    """Re-targets delay or corruption using live run signals."""

    capabilities = Capability.OBSERVE | Capability.NETWORK | Capability.ADAPTIVE
    wants_signals = True

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        params = self.params
        self.action = params.get("action", "delay")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"adaptive attacker action must be one of {list(ACTIONS)}, "
                f"got {self.action!r}"
            )
        if self.action == "corrupt":
            # Corruption needs BYZANTINE instead of NETWORK: the framework
            # halts corrupted replicas, no message tampering is involved.
            self.capabilities = (
                Capability.OBSERVE | Capability.BYZANTINE | Capability.ADAPTIVE
            )
        self.signal = params.get("signal", "critical")
        if self.signal not in SIGNALS:
            raise ConfigurationError(
                f"adaptive attacker signal must be one of {list(SIGNALS)}, "
                f"got {self.signal!r}"
            )
        self.kind = str(params.get("kind", ""))
        if self.signal == "fan-in" and not self.kind:
            raise ConfigurationError(
                "adaptive attacker signal 'fan-in' needs a 'kind' parameter "
                "naming the message type to rank by (e.g. 'PREPARE')"
            )
        self.k = int(params.get("k", 1))
        self.factor = float(params.get("factor", 4.0))
        self.extra_delay = float(params.get("extra_delay", 0.0))
        self.max_ticks = int(params.get("max_ticks", 256))
        # Defaults from the run (lambda, f) are resolved in ``setup``.
        period, budget = params.get("period"), params.get("budget")
        self.period = None if period is None else float(period)
        self.budget = None if budget is None else int(budget)
        if self.period is not None and self.period <= 0:
            raise ConfigurationError("adaptive attacker period must be > 0 ms")

    @classmethod
    def corruption_demand(cls, params, f):
        if params.get("action", "delay") == "corrupt":
            return int(params.get("budget", f))
        return 0

    def setup(self) -> None:
        if self.period is None:
            self.period = float(self.ctx.lam)
        if self.budget is None:
            self.budget = self.ctx.f
        self._ticks = 0
        self._targets: frozenset[int] = frozenset()
        if self.max_ticks > 0:
            self.ctx.set_timer(self.period, "adaptive-tick")

    # -- target selection ----------------------------------------------------

    def _pick(self, k: int) -> list[int]:
        signals = self.ctx.signals
        exclude = self.ctx.corrupted
        if self.signal == "stragglers":
            return signals.stragglers(k, exclude=exclude)
        if self.signal == "busiest":
            return signals.busiest_nodes(k, exclude=exclude)
        if self.signal == "fan-in":
            return signals.hottest_by_kind(self.kind, k, exclude=exclude)
        picks = signals.critical_senders(k, exclude=exclude)
        if len(picks) < k:
            # Early in the run no quorum has closed yet; fall back to the
            # stragglers so the attacker is never idle.
            for node in signals.stragglers(k, exclude=exclude):
                if node not in picks:
                    picks.append(node)
                    if len(picks) == k:
                        break
        return picks

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name != "adaptive-tick":
            return
        self._ticks += 1
        if self.action == "corrupt":
            if self._spend_corruption() and self._ticks < self.max_ticks:
                self.ctx.set_timer(self.period, "adaptive-tick")
            return
        self._targets = frozenset(self._pick(self.k))
        if self._ticks < self.max_ticks:
            self.ctx.set_timer(self.period, "adaptive-tick")

    def _spend_corruption(self) -> bool:
        """Corrupt the current top victim; False once the budget is done."""
        spent = len(self.ctx.corrupted)
        if spent >= min(self.budget, self.ctx.f):
            return False
        picks = self._pick(1)
        if picks:
            self.ctx.corrupt(picks[0])
        return True

    # -- per-message action --------------------------------------------------

    def attack_broadcast(self, view, dests, delays, keep):
        targets = self._targets
        if self.action != "delay" or not targets:
            return
        every = view.source in targets
        factor, extra = self.factor, self.extra_delay
        for row, dest in enumerate(dests):
            if every or dest in targets:
                delays[row] = delays[row] * factor + extra
