"""The run's one counting table: live signals for adversaries and telemetry.

The causality analyses in :mod:`repro.observability.causality` are post-hoc:
they rebuild quorum timelines and critical paths from a recorded trace.  An
*adaptive* attacker needs the same information **while the run is still
going** — who is the current quorum-timeline straggler, which senders keep
closing quorums (the tail of every decision's critical path), how deliveries
are distributed across nodes — so it can choose whom to delay, corrupt, or
equivocate next.

:class:`LiveSignals` is that channel, and the one place a run counts its
deliveries, decisions and view entries.  The controller maintains it with
O(1) work per delivered message, per decision and per view entry whenever
something reads it: an attacker that declares ``wants_signals = True``, the
:class:`~repro.observability.health.HealthMonitor` (which reads its window
deltas at each close) or the
:class:`~repro.observability.metrics.MetricsRegistry` (which samples its
totals).  A bare run never allocates or touches it, and it never draws
randomness, so fingerprints are byte-identical with it on or off.
Attackers reach it through :attr:`repro.attacks.base.AttackerContext.signals`,
which gates access on the ``OBSERVE`` capability and on ``wants_signals``:
reading the run's own progress telemetry is exactly the kind of
rushing-adversary knowledge the threat model reserves for observing
attackers.

Signal semantics (all maintained incrementally):

* **delivery counts** — messages dispatched to each node so far;
* **decision counts** — slots each node has decided so far, and their total;
* **closing senders** — for every decision, the source of the message the
  deciding node was handling when it decided: the quorum-closing sender,
  i.e. the last hop of that decision's critical path;
* **stragglers** — nodes with the fewest decisions, ties broken by least
  recent activity then lowest id: the live counterpart of the
  quorum-timeline straggler;
* **per-kind fan-in** — deliveries per node *per message kind*
  (``PREPARE``, ``VOTE``...), so an attacker can target the hot spot of a
  specific quorum phase rather than overall traffic;
* **view entries** — per node, and per view with the number of its latest
  entry, kept latest-entered last: the views entered after entry number
  ``k`` are the suffix of :attr:`LiveSignals.views` whose latest entry is
  above ``k``.

When the attacker asked for it, a :meth:`LiveSignals.summary_dict` snapshot
is attached to the result (``SimulationResult.signals_summary``) so the
experiment store can persist what the adversary saw.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable


class LiveSignals:
    """Incrementally maintained run-progress signals.

    Built by the controller when an attacker sets ``wants_signals = True``
    or health or metrics is on; read by attackers via ``ctx.signals``.
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
        "views_by_node",
        "views",
        "views_seen",
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
        #: Per-node count of view entries.
        self.views_by_node = [0] * n
        #: view -> (entries, number of its latest entry), latest-entered last.
        self.views: dict[int, tuple[int, int]] = {}
        #: Total view entries; an entry's number is this count just after it.
        self.views_seen = 0

    # -- controller-side updates (O(1) each; also fed by trace replay) ------

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

    def on_view(self, node: int, view: int, now: float) -> None:
        self.views_seen += 1
        self.views_by_node[node] += 1
        entries = self.views.pop(view, (0, 0))[0]
        self.views[view] = (entries + 1, self.views_seen)

    # -- attacker-side queries ----------------------------------------------

    def stragglers(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes furthest behind on decisions.

        Ordered worst-first: fewest decisions, then least recent activity,
        then lowest id — a deterministic live stand-in for the post-hoc
        quorum-timeline straggler.  ``exclude`` removes nodes (e.g. already
        corrupted ones) from consideration.
        """
        return self._ranked(lambda i: (self.decided[i], self.last_activity[i], i), k, exclude)

    def critical_senders(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes that closed the most quorums so far.

        Ordered most-critical-first (ties by lowest id).  Nodes that closed
        no quorum yet never appear; callers should fall back to
        :meth:`stragglers` (or fan-in counts) when the list is short.
        """
        closers = self.closing_senders
        return self._ranked(lambda node: (-closers[node], node), k, exclude, closers)

    def busiest_nodes(self, k: int = 1, exclude: Iterable[int] = ()) -> list[int]:
        """The ``k`` nodes with the most deliveries (fan-in hot spots)."""
        return self._ranked(lambda i: (-self.delivered[i], i), k, exclude)

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
        return self._ranked(lambda i: (-per_node[i], i), k, exclude)

    def _ranked(self, key: Callable[[int], tuple], k: int, exclude: Iterable[int],
                nodes: Iterable[int] | None = None) -> list[int]:
        """The first ``k`` of ``nodes`` (every node by default) by ``key``,
        leaving out ``exclude``."""
        skip = set(exclude)
        candidates = range(self.n) if nodes is None else nodes
        return sorted((i for i in candidates if i not in skip), key=key)[:k]

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
