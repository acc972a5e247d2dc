"""Live run signals for signal-driven (adaptive) adversaries.

The causality analyses in :mod:`repro.observability.causality` are post-hoc:
they rebuild quorum timelines and critical paths from a recorded trace.  An
*adaptive* attacker needs the same information **while the run is still
going** — who is the current quorum-timeline straggler, which senders keep
closing quorums (the tail of every decision's critical path), how deliveries
are distributed across nodes — so it can choose whom to delay, corrupt, or
equivocate next.

:class:`LiveSignals` is that channel.  The controller maintains it with O(1)
work per delivered message and per decision, and **only** when the run's
attacker declares ``wants_signals = True`` — benign runs never allocate or
touch it, and it never draws randomness, so fingerprints of signal-free runs
are byte-identical with the feature present.  Attackers reach it through
:attr:`repro.attacks.base.AttackerContext.signals`, which gates access on
the ``OBSERVE`` capability: reading the run's own progress telemetry is
exactly the kind of rushing-adversary knowledge the threat model reserves
for observing attackers.

Signal semantics (all maintained incrementally):

* **delivery counts** — messages dispatched to each node so far;
* **decision counts** — slots each node has decided so far;
* **closing senders** — for every decision, the source of the message the
  deciding node was handling when it decided: the quorum-closing sender,
  i.e. the last hop of that decision's critical path;
* **stragglers** — nodes with the fewest decisions, ties broken by least
  recent activity then lowest id: the live counterpart of the
  quorum-timeline straggler;
* **per-kind fan-in** — deliveries per node *per message kind*
  (``PREPARE``, ``VOTE``...), so an attacker can target the hot spot of a
  specific quorum phase rather than overall traffic.

A :meth:`LiveSignals.summary_dict` snapshot of all of the above is attached
to the result (``SimulationResult.signals_summary``) so the experiment
store can persist what the adversary saw.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable


class LiveSignals:
    """Incrementally maintained run-progress signals.

    Built by the controller when the configured attacker sets
    ``wants_signals = True``; read by attackers via ``ctx.signals``.
    """

    __slots__ = (
        "n",
        "delivered",
        "decided",
        "last_activity",
        "closing_senders",
        "_handling_source",
        "decisions_seen",
        "kind_fan_in",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        #: Per-node count of messages delivered (dispatched) to the node.
        self.delivered = [0] * n
        #: Per-node count of decided slots.
        self.decided = [0] * n
        #: Per-node simulated time of the last delivery or decision.
        self.last_activity = [0.0] * n
        #: node id -> number of decisions whose quorum it closed.
        self.closing_senders: Counter[int] = Counter()
        #: Source of the message each node is currently/last handling.
        self._handling_source = [-1] * n
        #: Total decisions observed.
        self.decisions_seen = 0
        #: message kind -> per-node delivery counts (fan-in by kind).
        self.kind_fan_in: dict[str, list[int]] = {}

    # -- controller-side updates (O(1) each) --------------------------------

    def on_deliver(
        self, dest: int, source: int, kind: str | None, now: float, sent_at: float
    ) -> None:
        self.delivered[dest] += 1
        self._handling_source[dest] = source
        self.last_activity[dest] = now
        if kind is not None:
            per_node = self.kind_fan_in.get(kind)
            if per_node is None:
                per_node = self.kind_fan_in[kind] = [0] * self.n
            per_node[dest] += 1

    def on_decide(self, node: int, now: float) -> None:
        self.decided[node] += 1
        self.decisions_seen += 1
        self.last_activity[node] = now
        closer = self._handling_source[node]
        if closer >= 0 and closer != node:
            self.closing_senders[closer] += 1

    # -- attacker-side queries ----------------------------------------------

    def stragglers(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes furthest behind on decisions.

        Ordered worst-first: fewest decisions, then least recent activity,
        then lowest id — a deterministic live stand-in for the post-hoc
        quorum-timeline straggler.  ``exclude`` removes nodes (e.g. already
        corrupted ones) from consideration.
        """
        skip = set(exclude)
        candidates = [i for i in range(self.n) if i not in skip]
        candidates.sort(key=lambda i: (self.decided[i], self.last_activity[i], i))
        return candidates[:k]

    def critical_senders(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes that closed the most quorums so far.

        Ordered most-critical-first (ties by lowest id).  Nodes that closed
        no quorum yet never appear; callers should fall back to
        :meth:`stragglers` (or fan-in counts) when the list is short.
        """
        skip = set(exclude)
        ranked = sorted(
            (node for node in self.closing_senders if node not in skip),
            key=lambda node: (-self.closing_senders[node], node),
        )
        return ranked[:k]

    def busiest_nodes(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes with the most deliveries (fan-in hot spots)."""
        skip = set(exclude)
        candidates = [i for i in range(self.n) if i not in skip]
        candidates.sort(key=lambda i: (-self.delivered[i], i))
        return candidates[:k]

    def hottest_by_kind(
        self, kind: str, k: int = 1, exclude: Iterable[int] = ()
    ) -> list[int]:
        """The ``k`` nodes receiving the most ``kind`` messages.

        Falls back to overall :meth:`busiest_nodes` ordering when the kind
        has not been seen yet (early in the run), so adaptive attackers
        always get a full target list.
        """
        per_node = self.kind_fan_in.get(kind)
        if per_node is None or not any(per_node):
            return self.busiest_nodes(k, exclude=exclude)
        skip = set(exclude)
        candidates = [i for i in range(self.n) if i not in skip]
        candidates.sort(key=lambda i: (-per_node[i], i))
        return candidates[:k]

    # -- persistence ---------------------------------------------------------

    def summary_dict(self) -> dict[str, Any]:
        """JSON-friendly snapshot for the experiment store's per-run row.

        Fan-in is stored per kind as total plus per-node counts.
        """
        return {
            "decisions_seen": self.decisions_seen,
            "delivered": list(self.delivered),
            "decided": list(self.decided),
            "closing_senders": {
                str(node): count
                for node, count in sorted(self.closing_senders.items())
            },
            "fan_in_by_kind": {
                kind: {"total": sum(counts), "per_node": list(counts)}
                for kind, counts in sorted(self.kind_fan_in.items())
            },
        }

    def describe(self) -> str:
        return (
            f"LiveSignals(n={self.n}, decisions={self.decisions_seen}, "
            f"delivered={sum(self.delivered)})"
        )
