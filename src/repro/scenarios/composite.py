"""The ``"scenario"`` composite attacker.

Executes a :class:`~repro.scenarios.spec.ScenarioSpec`'s attack clauses as
one attacker: children run in clause order per message, each only inside
its activation window, all sharing a single corruption budget (``f`` total,
not ``f`` each).

The composite declares the **union** of its children's capabilities (the
network module enforces that outer bound), but additionally holds every
child to its **own** declared capabilities:

* each child acts through a :class:`_ChildContext` whose ``capabilities``
  are the child's — so ``corrupt``/``forge``/``signals``/``overlay_relays``
  raise unless *that child* declared the right;
* a child without ``OBSERVE`` sees redacted payloads even when a sibling
  is observing;
* payload edits, re-timing, drops and forged inserts by a child pass
  that child's own :func:`~repro.attacks.base.row_gate`, against the one
  payload snapshot of the message.

The composite acts on a message's rows (:meth:`Attacker.attack_broadcast`):
each child in turn, behind its own gate, over the rows the children before
it kept — all at once, or one row at a time for a child that overrides
``attack``.  What the children rewrite or insert rides the rows too.

Child timers are namespaced (``sc<i>:<name>``) so the composite can route
each firing back to the owning clause; the original name is restored on a
reconstructed event, so children are written exactly as they would be
standalone.  Child RNG streams are namespaced the same way
(``attack.sc<i>.<name>``), keeping every clause's draws independent of its
siblings and of clause order-preserving edits elsewhere in the spec.

A clause with ``start > 0`` is *dormant* until its window opens: its
``setup`` runs when the activation timer fires (which is why the validator
demands ``ADAPTIVE`` for windowed corrupting clauses), and its hook is
only consulted for messages sent inside the window.
"""

from __future__ import annotations

import random
from typing import Any

from ..attacks.base import Attacker, AttackerContext, Capability, row_gate
from ..attacks.registry import register_attack
from ..core.events import TimeEvent
from ..core.node import TimerHandle
from .spec import ScenarioSpec

#: Timer-name prefix separating clause index from the child's own name.
_PREFIX = "sc"
#: Reserved child timer fired when a windowed clause activates.
_ACTIVATE = "__activate__"


class _ChildContext(AttackerContext):
    """A clause-scoped view of the shared attacker context.

    Shares the parent's corruption ledger (one budget for the whole
    scenario) but presents the *child's* declared capabilities, so the
    capability checks inherited from :class:`AttackerContext` enforce the
    clause's own threat model.  Timer and RNG names are prefixed with the
    clause index, and capability errors name the clause.
    """

    def __init__(self, parent: AttackerContext, capabilities: Capability,
                 index: int, name: str) -> None:
        super().__init__(
            parent._controller, capabilities, f"scenario clause #{index} ({name})"
        )
        # Shared object, not a copy: every clause draws from one budget.
        self._corrupted_since = parent._corrupted_since
        self._index = index
        #: True once the clause's ``setup`` has run.
        self.ready = False

    def rng(self, name: str = "attacker") -> random.Random:
        return self._controller.shared_rng(
            f"attack.{_PREFIX}{self._index}.{name}"
        )

    def set_timer(self, delay: float, name: str, **data: Any) -> TimerHandle:
        return super().set_timer(
            delay, f"{_PREFIX}{self._index}:{name}", **data
        )


@register_attack("scenario")
class CompositeAttacker(Attacker):
    """Runs a scenario's attack clauses as one budget-sharing adversary."""

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        self.spec = ScenarioSpec.from_dict(self.params)
        self._clauses = self.spec.attacks
        self._children = [
            clause.attacker_class()(clause.params) for clause in self._clauses
        ]
        caps = Capability.NONE
        for child in self._children:
            caps |= child.capabilities
        self.capabilities = caps
        self.wants_signals = any(child.wants_signals for child in self._children)
        self._child_ctxs: list[_ChildContext] = []
        #: Per clause, its gate over that clause's context.
        self._gates: list = []
        #: The gates of the clauses acting on messages sent at ``_active_at``.
        self._active: list = []
        self._active_at: float | None = None

    def bind(self, ctx: AttackerContext) -> None:
        super().bind(ctx)
        self._child_ctxs = [
            _ChildContext(ctx, child.capabilities, index, clause.attack)
            for index, (clause, child) in enumerate(zip(self._clauses, self._children))
        ]
        for child, child_ctx in zip(self._children, self._child_ctxs):
            child.bind(child_ctx)
        self._gates = [
            row_gate(child, child_ctx)
            for child, child_ctx in zip(self._children, self._child_ctxs)
        ]

    def setup(self) -> None:
        for index, clause in enumerate(self._clauses):
            if clause.start <= 0:
                self._activate(index)
            else:
                self.ctx.set_timer(
                    clause.start, f"{_PREFIX}{index}:{_ACTIVATE}"
                )

    def _activate(self, index: int) -> None:
        child_ctx = self._child_ctxs[index]
        if not child_ctx.ready:
            self._children[index].setup()
            child_ctx.ready = True
            self._active_at = None

    # -- per-message chain ---------------------------------------------------

    def _active_gates(self, now: float) -> list:
        """The gates of the clauses acting on messages sent at ``now``."""
        if now != self._active_at:
            # Which clauses act depends on the send time alone (readiness
            # changes only in ``_activate``): decided once per broadcast,
            # not once per copy.
            self._active = [
                gate
                for clause, child_ctx, gate in zip(
                    self._clauses, self._child_ctxs, self._gates)
                if clause.in_window(now) and child_ctx.ready
            ]
            self._active_at = now
        return self._active

    def attack_broadcast(self, view, dests, delays, keep):
        # Clause by clause over the rows the gate published: each clause
        # acts only on the rows every clause before it kept.
        rows = self.ctx.rows
        for gate in self._active_gates(view.sent_at):
            gate(rows, view)

    # -- timer routing -------------------------------------------------------

    def on_timer(self, timer: TimeEvent) -> None:
        name = timer.name
        if not name.startswith(_PREFIX):
            return
        index_s, sep, child_name = name[len(_PREFIX):].partition(":")
        if not sep:
            return
        try:
            index = int(index_s)
        except ValueError:
            return
        if not 0 <= index < len(self._children):
            return
        if child_name == _ACTIVATE:
            self._activate(index)
            return
        if not self._child_ctxs[index].ready:
            return
        # TimeEvent is frozen; rebuild it with the child's original name so
        # the clause's own ``on_timer`` dispatch works unmodified.
        self._children[index].on_timer(
            TimeEvent(
                time=timer.time,
                owner=timer.owner,
                name=child_name,
                data=timer.data,
                timer_id=timer.timer_id,
                cause=timer.cause,
            )
        )

    def describe(self) -> str:
        return f"CompositeAttacker({self.spec.describe()})"
