"""Base class and shared helpers for BFT protocol implementations.

Every protocol in :mod:`repro.protocols` subclasses :class:`BFTProtocol`,
which extends the simulator's :class:`~repro.core.node.Node` with the
metadata the controller and the experiment harness need: the network model
the protocol assumes, its fault resilience, and whether it is responsive
(§II-C2 — latency depends only on actual network speed, not on the
configured ``lambda``).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from ..core.errors import ConfigurationError
from ..core.node import Node

#: Network-model labels (Table I column "Network Model").
SYNCHRONOUS = "synchronous"
PARTIALLY_SYNCHRONOUS = "partially-synchronous"
ASYNCHRONOUS = "asynchronous"


class BFTProtocol(Node):
    """Base class for honest replicas of a BFT protocol.

    Class attributes (override per protocol):
        protocol_name: registry name.
        network_model: one of the three model labels above.
        responsive: True when agreement latency depends only on actual
            network delay (PBFT, HotStuff, LibraBFT), False when it is tied
            to the ``lambda`` parameter (the synchronous protocols).
        pipelined: True for protocols the paper measures over ten decisions
            (HotStuff+NS, LibraBFT).
        supports_recovery: True when a replica crashed by the environment
            (:mod:`repro.faults` ``crash`` with a recovery time) can rejoin
            the run; such protocols override ``on_recover`` to re-arm their
            timers.  The controller rejects crash+recovery schedules for
            protocols that leave this False.
    """

    protocol_name: str = "abstract"
    network_model: str = PARTIALLY_SYNCHRONOUS
    responsive: bool = False
    pipelined: bool = False
    supports_recovery: bool = False

    @classmethod
    def max_resilience(cls, n: int) -> int:
        """Default ``f`` for ``n`` nodes: the protocol's maximum tolerance.

        Synchronous protocols tolerate a minority (``f < n/2``); partially
        synchronous and asynchronous ones tolerate ``f < n/3``.
        """
        if cls.network_model == SYNCHRONOUS:
            return max(0, (n - 1) // 2)
        return max(0, (n - 1) // 3)

    @classmethod
    def check_resilience(cls, n: int, f: int) -> None:
        """Reject configurations outside the protocol's proven bound."""
        limit = cls.max_resilience(n)
        if f > limit:
            raise ConfigurationError(
                f"{cls.protocol_name} tolerates at most f={limit} of n={n} "
                f"({cls.network_model} resilience); got f={f}"
            )

    def proposal_value(self, slot: int, view: int | None = None) -> Any:
        """A deterministic placeholder value for a fresh proposal.

        The simulator does not execute application payloads, so by default
        proposals are tagged strings carrying the proposer, slot, and view
        (enough for safety checking to be meaningful).

        Setting the protocol parameter ``block_txns`` to ``T > 0`` switches
        proposals to structured *blocks*: a dict carrying the same tag plus a
        list of ``T`` synthetic transaction strings.  The tag alone still
        identifies the value (transactions are a deterministic function of
        it), so protocols may digest blocks by tag.  Blocks give proposals a
        realistic payload weight — under ``full`` dissemination every
        recipient copy structurally copies the transaction list, while the
        ``tree``/``gossip`` overlays share it copy-on-write — without
        touching the default (``block_txns=0``) behaviour or its digests.

        When the run carries an open-loop workload, the environment offers
        a mempool batch first (``env.cut_batch`` — guarded with ``getattr``
        like ``report_phase`` so bare test environments stay valid): a
        ready batch is proposed as its plain string tag (hashable, so
        vote-counter keys and digests work unchanged), and the synthetic
        paths below remain the fallback for empty slots.
        """
        cut = getattr(self.env, "cut_batch", None)
        if cut is not None:
            batch = cut(self.id, slot, view)
            if batch is not None:
                return batch
        suffix = f"/v{view}" if view is not None else ""
        tag = f"value(slot={slot}, proposer={self.id}{suffix})"
        txns = int(self.env.protocol_param("block_txns", 0) or 0)
        if txns <= 0:
            return tag
        return {"tag": tag, "txns": [f"tx{slot}.{i}" for i in range(txns)]}


class VoteCounter:
    """Counts votes per key, guarding against double counting.

    Used by every quorum-based protocol: ``add(key, voter)`` returns the
    number of *distinct* voters for ``key`` so far, making "act exactly once
    when the quorum is first reached" a one-line pattern::

        if votes.add((view, digest), msg.source) == self.quorum():
            ...

    A protocol that scans keys (e.g. every digest voted for in one slot)
    passes ``group``, a function of the key, and reads one group with
    :meth:`keys_in` — so a scan costs the group's size, not the run's
    length.  A group's keys come back in the order they were first voted
    for.
    """

    def __init__(self, group: Callable[[Any], Hashable] | None = None) -> None:
        self._voters: dict[Hashable, set[int]] = {}
        self._group = group
        self._groups: dict[Hashable, list[Hashable]] = {}

    def add(self, key: Hashable, voter: int) -> int:
        """Record ``voter``'s vote for ``key``; returns the updated count."""
        voters = self._voters.get(key)
        if voters is None:
            voters = self._voters[key] = set()
            if self._group is not None:
                self._groups.setdefault(self._group(key), []).append(key)
        voters.add(voter)
        return len(voters)

    def keys_in(self, group: Hashable) -> tuple[Hashable, ...]:
        """The keys of ``group`` (a fresh tuple, safe to hold while voting
        continues), in first-vote order."""
        return tuple(self._groups.get(group, ()))

    def count(self, key: Hashable) -> int:
        voters = self._voters.get(key)
        return len(voters) if voters else 0

    def voters(self, key: Hashable) -> frozenset[int]:
        return frozenset(self._voters.get(key, frozenset()))

    def has_voted(self, key: Hashable, voter: int) -> bool:
        return voter in self._voters.get(key, frozenset())
