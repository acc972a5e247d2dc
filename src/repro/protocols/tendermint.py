"""Tendermint consensus (Buchman, Kwon, Milosevic 2018) — extension protocol.

Tendermint is cited by the paper ([26]) among the newer blockchain
protocols its simulator targets; it is not part of the evaluated eight, so
it ships here as the demonstration that the protocol registry genuinely
extends: registering this module is all it took for Tendermint to run
under every network model, attack, engine, and test matrix in the suite.

Protocol (one height = one slot; simplified from the arXiv algorithm but
keeping the safety-critical locking rules):

* rounds ``r = 0, 1, ...`` with proposer ``(height + round) mod n``;
* **propose** — the proposer broadcasts its valid value (or a fresh one);
  replicas start ``timeout_propose``;
* **prevote** — on a proposal, prevote its value if not locked on a
  conflicting one (else prevote the lock — never abandon a lock for an
  unjustified value); on timeout, prevote ``nil``;
* **precommit** — on a prevote quorum for ``v``: lock ``v`` at this round,
  record it as the valid value, and precommit ``v``; on a quorum of
  prevotes that cannot certify any value, precommit ``nil``;
* **decide** — on a precommit quorum for ``v``; a quorum of ``nil``/mixed
  precommits instead starts round ``r + 1``.

Timeouts grow *linearly* with the round number
(``lambda * (1 + round/2)``) — Tendermint's documented policy, a third
pacemaker personality between HotStuff+NS's exponential per-node back-off
and LibraBFT's certificate-synchronized rounds.

Quorums are ``ceil((n+f+1)/2)``; safety comes from lock/quorum
intersection exactly as in PBFT.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from ..core.events import TimeEvent
from ..core.message import Message
from ..crypto.quorum import QuorumCertificate, make_qc
from .base import BFTProtocol, PARTIALLY_SYNCHRONOUS, VoteCounter
from .registry import register_protocol

#: The "no value" vote.
NIL = "<nil>"


@register_protocol("tendermint")
class TendermintNode(BFTProtocol):
    """One honest Tendermint replica."""

    network_model = PARTIALLY_SYNCHRONOUS
    responsive = True
    pipelined = False
    supports_recovery = True

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        self.height = 0
        self.round = 0
        self.locked_value: Any = None
        self.locked_round = -1
        self.valid_value: Any = None
        self.proposals: dict[tuple[int, int], Any] = {}  # (h, r) -> value
        # key: (h, r, value), grouped by (h, r)
        self.prevotes = VoteCounter(group=itemgetter(0, 1))
        self.prevote_seen = VoteCounter()  # key: (h, r) distinct voters
        # key: (h, r, value), grouped by h
        self.precommits = VoteCounter(group=itemgetter(0))
        self.precommit_seen = VoteCounter()  # key: (h, r)
        self._prevoted: set[tuple[int, int]] = set()
        self._precommitted: set[tuple[int, int]] = set()
        self._decided_heights: set[int] = set()
        # height -> (value, precommit certificate): transferable evidence of
        # the decision, served to recovering replicas (see _on_sync_req).
        self._decision_certs: dict[int, tuple[Any, QuorumCertificate]] = {}
        self._catchup: dict[int, tuple[Any, QuorumCertificate]] = {}
        self._round_started: set[tuple[int, int]] = set()
        self._timer = None

    # ------------------------------------------------------------------
    # round machinery
    # ------------------------------------------------------------------

    def proposer_of(self, height: int, round_: int) -> int:
        return (height + round_) % self.n

    def _timeout(self, round_: int) -> float:
        """Tendermint's linearly increasing round timeout."""
        return self.lam * (1.0 + round_ / 2.0)

    def on_start(self) -> None:
        self._start_height(0)

    def _start_height(self, height: int) -> None:
        self.height = height
        self.locked_value = None
        self.locked_round = -1
        self.valid_value = None
        self._start_round(0)

    def _start_round(self, round_: int) -> None:
        key = (self.height, round_)
        if key in self._round_started:
            return
        self._round_started.add(key)
        self.round = round_
        self.report("view", view=round_, height=self.height)
        self.phase("propose", view=round_, height=self.height)
        self.cancel_timer(self._timer)
        self._timer = self.set_timer(
            self._timeout(round_), "round-timeout", height=self.height, round=round_
        )
        if self.proposer_of(self.height, round_) == self.id:
            value = (
                self.valid_value
                if self.valid_value is not None
                else self.proposal_value(self.height, round_)
            )
            self.broadcast(
                type="PROPOSAL", height=self.height, round=round_, value=value
            )
        self._recheck()

    def on_recover(self) -> None:
        """Rejoin after an environmental crash: replay own decisions, ask
        peers for heights decided while this replica was down (precommit
        quorums are never retransmitted), re-arm the current round's timer
        (lost with the crash — ``_start_round`` cannot be reused, the round
        is already marked started), and recheck buffered votes."""
        super().on_recover()
        self.broadcast(type="SYNC-REQ", height=self.height)
        self.cancel_timer(self._timer)
        self._timer = self.set_timer(
            self._timeout(self.round), "round-timeout",
            height=self.height, round=self.round,
        )
        self._recheck()

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name != "round-timeout":
            return
        data = timer.data or {}
        if data.get("height") != self.height or data.get("round") != self.round:
            return
        # No decision this round: prevote/precommit nil as needed, move on.
        self._prevote(self.height, self.round, NIL)
        self._precommit(self.height, self.round, NIL)
        self._start_round(self.round + 1)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload.get("type")
        if kind == "PROPOSAL":
            height, round_ = int(payload["height"]), int(payload["round"])
            if message.source != self.proposer_of(height, round_):
                return
            self.proposals.setdefault((height, round_), payload["value"])
        elif kind == "PREVOTE":
            height, round_ = int(payload["height"]), int(payload["round"])
            if self.prevote_seen.has_voted((height, round_), message.source):
                return  # one prevote per replica per round
            self.prevote_seen.add((height, round_), message.source)
            self.prevotes.add((height, round_, payload["value"]), message.source)
            self._try_precommit()
            self._try_next_round()
            return
        elif kind == "PRECOMMIT":
            height, round_ = int(payload["height"]), int(payload["round"])
            if self.precommit_seen.has_voted((height, round_), message.source):
                return
            self.precommit_seen.add((height, round_), message.source)
            self.precommits.add((height, round_, payload["value"]), message.source)
            if not self._try_decide():
                self._try_next_round()
            return
        elif kind == "SYNC-REQ":
            self._on_sync_req(message)
            return
        elif kind == "DECIDED":
            self._on_decided(message)
            return
        else:
            return
        self._recheck()

    # ------------------------------------------------------------------
    # crash-recovery catch-up
    # ------------------------------------------------------------------

    def _on_sync_req(self, message: Message) -> None:
        """A recovered replica asked for decisions from ``height`` onward:
        answer with one DECIDED per height, each carrying the precommit
        certificate so the receiver need not trust this replica."""
        since = int(message.payload.get("height", 0))
        for height in sorted(self._decision_certs):
            if height < since:
                continue
            value, cert = self._decision_certs[height]
            self.send(
                message.source,
                type="DECIDED",
                height=height,
                value=value,
                cert=cert,
            )

    def _on_decided(self, message: Message) -> None:
        """Adopt a transferred decision once its precommit certificate
        checks out (a quorum of distinct signers over the value — the same
        trust level as the precommit quorum it summarizes)."""
        payload = message.payload
        height, value = int(payload["height"]), payload["value"]
        cert = QuorumCertificate.from_payload(payload.get("cert"))
        if cert is None or not cert.valid(self.quorum()):
            return
        if cert.ref != str(value):
            return
        self._catchup.setdefault(height, (value, cert))
        while self.height in self._catchup and self.height not in self._decided_heights:
            adopted, adopted_cert = self._catchup[self.height]
            self._decide(self.height, adopted, adopted_cert.view, adopted_cert.signers)

    # ------------------------------------------------------------------
    # step transitions
    # ------------------------------------------------------------------

    def _prevote(self, height: int, round_: int, value: Any) -> None:
        if (height, round_) in self._prevoted:
            return
        self._prevoted.add((height, round_))
        self.broadcast(type="PREVOTE", height=height, round=round_, value=value)
        self.phase("prevote", view=round_, height=height)

    def _precommit(self, height: int, round_: int, value: Any) -> None:
        if (height, round_) in self._precommitted:
            return
        self._precommitted.add((height, round_))
        self.broadcast(type="PRECOMMIT", height=height, round=round_, value=value)
        self.phase("precommit", view=round_, height=height)

    # Votes run targeted rechecks instead of the full ``_recheck``.  This is
    # behavior-preserving, not an approximation: the replica's state between
    # events is a fixed point of every rule below with respect to that
    # rule's read set (the full sweep ran after the previous event and each
    # rule either fired or declined), so only rules whose read set the
    # handler just wrote can newly fire.  PREVOTE writes ``prevotes`` /
    # ``prevote_seen`` (read by the two precommit rules), which write
    # ``_precommitted`` (read by next-round); PRECOMMIT writes
    # ``precommits`` / ``precommit_seen`` (read by decide and next-round).
    # The prevote rule's trigger — a proposal not yet prevoted — is written
    # by neither vote.  Proposals, round starts and recovery keep the full
    # sweep.

    def _recheck(self) -> None:
        self._try_prevote()
        self._try_precommit()
        if not self._try_decide():
            self._try_next_round()

    def _try_prevote(self) -> None:
        """Prevote on the current round's proposal (lock rule: never prevote
        against a lock)."""
        height, round_ = self.height, self.round
        proposal = self.proposals.get((height, round_))
        if proposal is not None:
            if self.locked_round == -1 or self.locked_value == proposal:
                self._prevote(height, round_, proposal)
            else:
                self._prevote(height, round_, self.locked_value)

    def _try_precommit(self) -> None:
        height, round_ = self.height, self.round
        quorum = self.quorum()
        keys = self.prevotes.keys_in((height, round_))

        # Precommit once some value reaches a prevote quorum this round.
        for key in keys:
            value = key[2]
            if value != NIL and self.prevotes.count(key) >= quorum:
                self.locked_value = value
                self.locked_round = round_
                self.valid_value = value
                self._precommit(height, round_, value)

        # A full round of prevotes without any certifiable value: give up
        # on the round (precommit nil).
        seen = self.prevote_seen.count((height, round_))
        if seen >= quorum:
            best = max(
                (self.prevotes.count(key) for key in keys if key[2] != NIL),
                default=0,
            )
            if best + (self.n - self.f - seen) < quorum:
                self._precommit(height, round_, NIL)

    def _try_decide(self) -> bool:
        """Decide on a precommit quorum for a value (any round of this
        height — late quorums still decide).  True when it decided."""
        height = self.height
        quorum = self.quorum()
        for key in self.precommits.keys_in(height):
            value = key[2]
            if value != NIL and self.precommits.count(key) >= quorum:
                self._decide(height, value, key[1], self.precommits.voters(key))
                return True
        return False

    def _try_next_round(self) -> None:
        """A precommit quorum that cannot decide: next round."""
        height, round_ = self.height, self.round
        quorum = self.quorum()
        if (
            self.precommit_seen.count((height, round_)) >= quorum
            and (height, round_) in self._precommitted
        ):
            decided_possible = any(
                self.precommits.count(key) >= quorum
                for key in self.precommits.keys_in(height)
                if key[1] == round_ and key[2] != NIL
            )
            if not decided_possible:
                self._start_round(round_ + 1)

    def _decide(self, height: int, value: Any, round_: int, voters: frozenset[int]) -> None:
        if height in self._decided_heights:
            return
        self._decided_heights.add(height)
        self._decision_certs[height] = (value, make_qc(round_, str(value), voters))
        self.cancel_timer(self._timer)
        self.decide(height, value)
        self._start_height(height + 1)
