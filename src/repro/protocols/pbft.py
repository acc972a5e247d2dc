"""Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).

The classic three-phase, partially-synchronous SMR protocol (paper §III-B4):

* the leader of view ``v`` pre-prepares a value for the current slot;
* replicas broadcast ``PREPARE``; a replica with ``2f+1`` matching prepares
  is *prepared* and broadcasts ``COMMIT``;
* ``2f+1`` matching commits decide the slot.

Liveness under an unreliable network comes from the view-change protocol:
a replica whose view timer expires broadcasts ``VIEW-CHANGE`` for the next
view and **doubles its timeout** — PBFT's classic exponential back-off,
which makes it partially-synchronous-safe.  The new leader collects ``2f+1``
view-change messages, re-proposes the highest prepared value (or a fresh
one) in ``NEW-VIEW``, and the protocol resumes.

Simplifications relative to the full OSDI paper, standard for simulators:
one consensus slot is active at a time (no pipelining/watermarks), and
checkpoint-based garbage collection is unnecessary because slots are decided
strictly in order.  Lagging replicas catch up through the value carried in
``COMMIT`` messages (playing the role of PBFT's state transfer).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from ..core.events import TimeEvent
from ..core.message import Message
from ..crypto.quorum import QuorumCertificate, make_qc
from .base import BFTProtocol, PARTIALLY_SYNCHRONOUS, VoteCounter
from .registry import register_protocol

#: Exponent cap for the timeout back-off (keeps arithmetic finite while the
#: horizon cuts truly dead runs off anyway).
_MAX_BACKOFF_EXPONENT = 24


@register_protocol("pbft")
class PBFTNode(BFTProtocol):
    """One honest PBFT replica."""

    network_model = PARTIALLY_SYNCHRONOUS
    responsive = True
    pipelined = False
    supports_recovery = True

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        self.view = 0
        self.slot = 0
        self.base_view = 0  # view in which the current slot started
        # (view, slot) -> (digest, value) accepted from that view's leader
        self.pre_prepares: dict[tuple[int, int], tuple[str, Any]] = {}
        self.prepare_votes = VoteCounter()  # key: (view, slot, digest)
        # key: (view, slot, digest), grouped by slot
        self.commit_votes = VoteCounter(group=itemgetter(1))
        self.commit_values: dict[tuple[int, int, str], Any] = {}
        # key: (new_view, slot), grouped by slot
        self.viewchange_votes = VoteCounter(group=itemgetter(1))
        # (new_view, slot) -> strongest prepared tuple seen in VCs
        self.viewchange_prepared: dict[tuple[int, int], tuple[int, str, Any]] = {}
        self.prepared: dict[int, tuple[int, str, Any]] = {}  # slot -> (view, digest, value)
        self._sent_prepare: set[tuple[int, int]] = set()
        self._sent_commit: set[tuple[int, int]] = set()
        self._sent_viewchange: set[tuple[int, int]] = set()
        self._sent_newview: set[tuple[int, int]] = set()
        self._decided: set[int] = set()
        # slot -> (value, commit certificate): transferable evidence of the
        # decision, served to recovering replicas (see _on_sync_req).
        self._decision_certs: dict[int, tuple[Any, QuorumCertificate]] = {}
        self._catchup: dict[int, tuple[Any, QuorumCertificate]] = {}
        self._timer = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def leader_of(self, view: int) -> int:
        return view % self.n

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.id

    def _timeout(self) -> float:
        exponent = min(self.view - self.base_view, _MAX_BACKOFF_EXPONENT)
        return self.lam * (2.0**exponent)

    def _restart_timer(self) -> None:
        self.cancel_timer(self._timer)
        self._timer = self.set_timer(
            self._timeout(), "view-timeout", view=self.view, slot=self.slot
        )

    def _digest(self, value: Any) -> str:
        # Block values (see BFTProtocol.proposal_value) are digested by tag:
        # the transaction list is a deterministic function of the tag, so the
        # tag uniquely identifies the block — the simulator-scale stand-in
        # for hashing the transaction list itself.
        if type(value) is dict and "tag" in value:
            return f"d({value['tag']})"
        return f"d({value})"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.report("view", view=self.view)
        self._enter_slot(0)

    def _enter_slot(self, slot: int) -> None:
        self.slot = slot
        self.base_view = self.view
        self._restart_timer()
        self.phase("pre-prepare", view=self.view, slot=slot)
        if self.is_leader:
            value = self.proposal_value(slot, self.view)
            self.broadcast(
                type="PRE-PREPARE",
                view=self.view,
                slot=slot,
                value=value,
                digest=self._digest(value),
            )
        self._recheck()

    def _enter_view(self, view: int) -> None:
        """Adopt ``view`` (> current) for the current slot."""
        self.view = view
        self.report("view", view=view)
        self._restart_timer()
        self._recheck()

    def on_recover(self) -> None:
        """Rejoin after an environmental crash.

        Protocol state survived (stable storage), but the view timer was
        lost with the crash: replay own decisions, re-arm the timer, ask
        peers for decisions this replica slept through (their COMMIT quorums
        formed while messages to it were being dropped and are never
        retransmitted), and re-evaluate buffered votes.
        """
        super().on_recover()
        self.broadcast(type="SYNC-REQ", slot=self.slot)
        self._restart_timer()
        self._recheck()

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload.get("type")
        if kind == "PRE-PREPARE":
            self._on_pre_prepare(message)
        elif kind == "PREPARE":
            self._on_prepare(message)
        elif kind == "COMMIT":
            self._on_commit(message)
        elif kind == "VIEW-CHANGE":
            self._on_view_change(message)
        elif kind == "NEW-VIEW":
            self._on_new_view(message)
        elif kind == "SYNC-REQ":
            self._on_sync_req(message)
        elif kind == "DECIDED":
            self._on_decided(message)
        # Unknown kinds are ignored: Byzantine senders may emit garbage.

    # The three hot handlers below run targeted rechecks instead of the full
    # ``_recheck``.  This is behavior-preserving, not an approximation: the
    # replica's state between events is a fixed point of every non-firing
    # ``_try_*`` rule with respect to that rule's read set (each rule ran
    # after the previous event and declined), so only rules whose read set
    # the handler just wrote can newly fire.  PREPARE writes
    # ``prepare_votes`` (read only by ``_try_commit``); COMMIT writes
    # ``commit_votes``/``commit_values`` (read only by ``_try_decide``);
    # PRE-PREPARE writes ``pre_prepares`` (read by prepare/commit/decide).
    # Rare paths (view changes, timers, slot entry, recovery) keep the full
    # sweep.

    def _on_pre_prepare(self, message: Message) -> None:
        payload = message.payload
        view, slot = int(payload["view"]), int(payload["slot"])
        if message.source != self.leader_of(view):
            return  # only the view's leader may pre-prepare
        key = (view, slot)
        if key in self.pre_prepares:
            return  # equivocation: first accepted pre-prepare wins
        digest, value = str(payload["digest"]), payload["value"]
        if digest != self._digest(value):
            return
        self.pre_prepares[key] = (digest, value)
        if self.slot not in self._decided:
            self._try_prepare()
            self._try_commit()
            self._try_decide()

    def _on_prepare(self, message: Message) -> None:
        payload = message.payload
        key = (int(payload["view"]), int(payload["slot"]), str(payload["digest"]))
        self.prepare_votes.add(key, message.source)
        # Inline the two cheap disqualifiers (_try_commit re-checks them,
        # but most post-quorum PREPARE arrivals exit right here).
        if self.slot not in self._decided and (
            (self.view, self.slot) not in self._sent_commit
        ):
            self._try_commit()

    def _on_commit(self, message: Message) -> None:
        payload = message.payload
        key = (int(payload["view"]), int(payload["slot"]), str(payload["digest"]))
        self.commit_votes.add(key, message.source)
        value = payload.get("value")
        # Membership first: the digest check (which stringifies the value)
        # only needs to run for the first matching COMMIT of each key.
        if (
            value is not None
            and key not in self.commit_values
            and self._digest(value) == key[2]
        ):
            self.commit_values[key] = value
        if self.slot not in self._decided:
            self._try_decide()

    def _on_view_change(self, message: Message) -> None:
        payload = message.payload
        new_view, slot = int(payload["new_view"]), int(payload["slot"])
        key = (new_view, slot)
        self.viewchange_votes.add(key, message.source)
        prepared = payload.get("prepared")
        if prepared is not None:
            candidate = (int(prepared["view"]), str(prepared["digest"]), prepared["value"])
            best = self.viewchange_prepared.get(key)
            if best is None or candidate[0] > best[0]:
                self.viewchange_prepared[key] = candidate
        self._recheck()

    def _on_new_view(self, message: Message) -> None:
        payload = message.payload
        view, slot = int(payload["view"]), int(payload["slot"])
        if message.source != self.leader_of(view):
            return
        if slot != self.slot or view < self.view:
            return
        digest, value = str(payload["digest"]), payload["value"]
        if digest != self._digest(value):
            return
        self.pre_prepares.setdefault((view, slot), (digest, value))
        if view > self.view:
            self._enter_view(view)
        else:
            self._recheck()

    # ------------------------------------------------------------------
    # crash-recovery catch-up
    # ------------------------------------------------------------------

    def _on_sync_req(self, message: Message) -> None:
        """A recovered replica asked for decisions from ``slot`` onward:
        answer with one DECIDED per slot, each carrying the commit
        certificate so the receiver need not trust this replica."""
        since = int(message.payload.get("slot", 0))
        for slot in sorted(self._decision_certs):
            if slot < since:
                continue
            value, cert = self._decision_certs[slot]
            self.send(
                message.source,
                type="DECIDED",
                slot=slot,
                value=value,
                cert=cert,
            )

    def _on_decided(self, message: Message) -> None:
        """Adopt a transferred decision once its commit certificate checks
        out (a quorum of distinct signers over the value's digest — the same
        trust level as the commit quorum it summarizes)."""
        payload = message.payload
        slot, value = int(payload["slot"]), payload["value"]
        cert = QuorumCertificate.from_payload(payload.get("cert"))
        if cert is None or not cert.valid(self.quorum()):
            return
        if cert.ref != self._digest(value):
            return
        self._catchup.setdefault(slot, (value, cert))
        while self.slot in self._catchup and self.slot not in self._decided:
            adopted, adopted_cert = self._catchup[self.slot]
            self._decide(self.slot, adopted, adopted_cert.view, adopted_cert.signers)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name != "view-timeout":
            return
        data = timer.data or {}
        if data.get("view") != self.view or data.get("slot") != self.slot:
            return  # stale timer from a view/slot we already left
        if self.slot in self._decided:
            return
        self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        key = (new_view, self.slot)
        if key in self._sent_viewchange:
            return
        self._sent_viewchange.add(key)
        self.view = new_view
        self.report("view", view=new_view)
        self.phase("view-change", view=new_view, slot=self.slot)
        prepared = self.prepared.get(self.slot)
        self.broadcast(
            type="VIEW-CHANGE",
            new_view=new_view,
            slot=self.slot,
            prepared=(
                {"view": prepared[0], "digest": prepared[1], "value": prepared[2]}
                if prepared
                else None
            ),
        )
        self._restart_timer()
        self._recheck()

    # ------------------------------------------------------------------
    # state machine: act whenever a threshold may have been crossed
    # ------------------------------------------------------------------

    def _recheck(self) -> None:
        if self.slot in self._decided:
            return
        self._try_prepare()
        self._try_commit()
        self._try_decide()
        self._try_new_view()
        self._try_join_view_change()

    def _try_prepare(self) -> None:
        key = (self.view, self.slot)
        if key in self._sent_prepare or key not in self.pre_prepares:
            return
        digest, _value = self.pre_prepares[key]
        self._sent_prepare.add(key)
        self.broadcast(type="PREPARE", view=self.view, slot=self.slot, digest=digest)
        self.phase("prepare", view=self.view, slot=self.slot)

    def _try_commit(self) -> None:
        key = (self.view, self.slot)
        if key in self._sent_commit or key not in self.pre_prepares:
            return
        digest, value = self.pre_prepares[key]
        if self.prepare_votes.count((self.view, self.slot, digest)) < self.quorum():
            return
        self._sent_commit.add(key)
        self.prepared[self.slot] = (self.view, digest, value)
        self.broadcast(
            type="COMMIT", view=self.view, slot=self.slot, digest=digest, value=value
        )
        self.phase("commit", view=self.view, slot=self.slot)

    def _try_decide(self) -> None:
        """Decide from any view's commit quorum for the current slot.

        Accepting a quorum formed in a view other than our own lets lagging
        replicas (stuck one view ahead after an aborted view change) adopt
        the decision — the simulator-scale stand-in for PBFT state transfer.
        """
        for key in self.commit_votes.keys_in(self.slot):
            view, slot, digest = key
            if self.commit_votes.count(key) < self.quorum():
                continue
            value = self.commit_values.get(key)
            if value is None:
                pre = self.pre_prepares.get((view, slot))
                if pre is None or pre[0] != digest:
                    continue
                value = pre[1]
            self._decide(slot, value, view, self.commit_votes.voters(key))
            return

    def _decide(self, slot: int, value: Any, view: int, voters: frozenset[int]) -> None:
        self._decided.add(slot)
        self._decision_certs[slot] = (value, make_qc(view, self._digest(value), voters))
        self.cancel_timer(self._timer)
        if view > self.view:
            self.view = view
            self.report("view", view=view)
        elif view < self.view:
            # Converge back to the view the quorum is actually operating in.
            self.view = view
            self.report("view", view=view)
        self.decide(slot, value)
        self._enter_slot(slot + 1)

    def _try_new_view(self) -> None:
        """As leader-elect, assemble NEW-VIEW from 2f+1 view changes."""
        key = (self.view, self.slot)
        if self.leader_of(self.view) != self.id or key in self._sent_newview:
            return
        if self.view == self.base_view:
            return  # not a view change; the slot's original leader pre-prepares
        if self.viewchange_votes.count(key) < self.quorum():
            return
        self._sent_newview.add(key)
        prepared = self.viewchange_prepared.get(key)
        if prepared is not None:
            _view, digest, value = prepared
        else:
            value = self.proposal_value(self.slot, self.view)
            digest = self._digest(value)
        self.pre_prepares.setdefault((self.view, self.slot), (digest, value))
        self.broadcast(
            type="NEW-VIEW", view=self.view, slot=self.slot, value=value, digest=digest
        )

    def _try_join_view_change(self) -> None:
        """Join a view change once f+1 replicas vouch for a higher view.

        Guarantees an honest replica cannot be left behind by a view change
        it did not time out for (PBFT's weak-certificate rule)."""
        for key in self.viewchange_votes.keys_in(self.slot):
            new_view, _slot = key
            if new_view <= self.view:
                continue
            if self.viewchange_votes.count(key) >= self.f + 1:
                self._start_view_change(new_view)
                return
