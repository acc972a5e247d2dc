"""LibraBFT (DiemBFT): chained HotStuff with a timeout-certificate pacemaker.

The paper's §III-B6: structurally HotStuff, but view synchronization is
certificate-driven.  On a local timeout a replica does **not** advance by
itself — it broadcasts a ``TIMEOUT`` vote for its round and keeps
retransmitting it.  Only a *timeout certificate* (TC: ``n - f`` distinct
timeout votes for the same round) moves replicas to the next round, so
honest replicas can never drift more than one message delay apart.

That single difference yields the paper's headline contrasts:

* Fig. 5 — with an underestimated ``lambda`` the adaptive timeout settles at
  a workable value while TCs keep everyone together: latency stays flat.
* Fig. 6 — during a partition no TC can form (no quorum in either half), so
  replicas simply hold their round and keep retransmitting timeout votes at
  a fixed cadence; seconds after the partition heals the votes combine into
  a TC and the protocol resumes (no accumulated exponential backlog).
"""

from __future__ import annotations

from typing import Any

from ..core.events import TimeEvent
from ..core.message import Message
from ..crypto.quorum import QuorumCertificate, make_tc
from .base import VoteCounter
from .chained import ChainedHotStuffBase
from .pacemakers import AdaptiveTimeoutPolicy
from .registry import register_protocol


@register_protocol("librabft")
class LibraBFTNode(ChainedHotStuffBase):
    """One honest LibraBFT replica."""

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        self.policy = AdaptiveTimeoutPolicy(self.lam)
        self.timeout_votes = VoteCounter()  # key: round
        self._timeout_sent: set[int] = set()
        self._tc_formed: dict[int, QuorumCertificate] = {}
        self._retransmit_timer = None

    # ------------------------------------------------------------------
    # pacemaker
    # ------------------------------------------------------------------

    def pacemaker_interval(self) -> float:
        return self.policy.current()

    def on_local_timeout(self, view: int) -> None:
        """Vote to time the round out; do not advance without a TC."""
        self.policy.on_timeout()
        self._send_timeout_vote(view)
        self._arm_retransmit()

    def _send_timeout_vote(self, view: int) -> None:
        self._timeout_sent.add(view)
        self.broadcast(type="TIMEOUT", view=view, qc=self.high_qc)

    def _arm_retransmit(self) -> None:
        """Keep resending the timeout vote at a fixed cadence.

        Timeout votes are idempotent, so retransmission costs one broadcast
        per ``lambda`` while stuck — and it is what lets the two sides of a
        healed partition discover each other's votes promptly."""
        self.cancel_timer(self._retransmit_timer)
        self._retransmit_timer = self.set_timer(
            self.lam, "timeout-retransmit", view=self.view
        )

    def on_protocol_timer(self, timer: TimeEvent) -> None:
        if timer.name != "timeout-retransmit":
            return
        view = (timer.data or {}).get("view")
        if view == self.view and view in self._timeout_sent:
            self._send_timeout_vote(view)
            self._arm_retransmit()

    def on_commit(self, view: int) -> None:
        self.policy.on_commit()

    def on_recover(self) -> None:
        """Also restart timeout-vote retransmission if the replica crashed
        while voting to time its round out."""
        super().on_recover()
        if self.view in self._timeout_sent:
            self._arm_retransmit()

    def proposal_ready(self, view: int) -> bool:
        if super().proposal_ready(view):
            return True
        return (view - 1) in self._tc_formed

    # ------------------------------------------------------------------
    # pacemaker messages
    # ------------------------------------------------------------------

    def on_extra_message(self, message: Message) -> None:
        if message.payload.get("type") != "TIMEOUT":
            return
        payload = message.payload
        view = int(payload["view"])
        self.update_high_qc(QuorumCertificate.from_payload(payload.get("qc")))
        count = self.timeout_votes.add(view, message.source)
        if count >= self.quorum("available") and view not in self._tc_formed:
            self._tc_formed[view] = make_tc(view, self.timeout_votes.voters(view))
            if view >= self.view:
                self.advance_to_view(view + 1, via="tc")
            self._try_propose()
