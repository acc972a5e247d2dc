"""Shared machinery of the ADD+ synchronous BA family.

ADD+ (Abraham, Devadas, Dolev, Nayak, Ren 2018) is a synchronous Byzantine
agreement protocol with optimal (minority) resilience and expected
constant-round termination.  The paper implements three variants (§III-B1):

* **v1** — deterministic round-robin leaders (baseline);
* **v2** — VRF-randomized leader election, defeating *static* attackers;
* **v3** — a *prepare* round binding each node's credential and proposal in
  a single send, defeating *rushing adaptive* attackers.

All three share the same skeleton, implemented here: execution proceeds in
*iterations*; each iteration is a fixed schedule of phases clocked at
multiples of the synchrony bound ``lambda`` (the protocols assume
synchronized clocks and delivery within ``lambda``, which the synchronous
network configuration provides).  The last phase of every iteration is the
*resolve* step: decide if a commit quorum formed, otherwise start the next
iteration — so latency is a whole number of iterations, each
``(phases - 1) * lambda`` long.  Decisions are checked only at phase
boundaries; like all synchronous protocols, ADD+ is **not** responsive
(paper Fig. 4).

Thresholds: an iteration's vote/commit quorum is ``n - f`` — under synchrony
every honest message arrives within the phase window, so all honest nodes
contribute.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from ..core.events import TimeEvent
from ..core.message import Message
from .base import BFTProtocol, SYNCHRONOUS, VoteCounter


class ADDBase(BFTProtocol):
    """Common replica logic for the ADD+ variants.

    Subclasses define :attr:`phases` (names, executed at ``T + i*lambda``)
    and implement ``_phase_<name>(iteration)`` for each, reusing the vote /
    commit / resolve helpers provided here.
    """

    network_model = SYNCHRONOUS
    responsive = False
    pipelined = False

    #: Ordered phase names; override per variant.
    phases: tuple[str, ...] = ()

    def __init__(self, node_id: int, env: Any) -> None:
        super().__init__(node_id, env)
        self.iteration = 0
        self.locked_value: Any = None
        # keys: (iteration, value), grouped by iteration
        self.votes = VoteCounter(group=itemgetter(0))
        self.commits = VoteCounter(group=itemgetter(0))
        self.decided = False

    # ------------------------------------------------------------------
    # iteration scheduling
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._start_iteration(0)

    def _start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self.report("view", view=iteration)
        first, *rest = self.phases
        self._run_phase(first, iteration)
        for index, name in enumerate(rest, start=1):
            self.set_timer(index * self.lam, "phase", iteration=iteration, phase=name)

    def on_timer(self, timer: TimeEvent) -> None:
        if timer.name != "phase":
            return
        data = timer.data or {}
        if data.get("iteration") != self.iteration:
            return  # stale timer from an iteration we already resolved
        self._run_phase(data["phase"], self.iteration)

    def _run_phase(self, name: str, iteration: int) -> None:
        handler = getattr(self, f"_phase_{name}")
        handler(iteration)

    # ------------------------------------------------------------------
    # shared phases
    # ------------------------------------------------------------------

    def vote_for(self, iteration: int, value: Any) -> None:
        self.broadcast(type="VOTE", iteration=iteration, value=value)

    def proposal_for(self, iteration: int) -> Any:
        """The iteration's leader value, as seen by this node (variant-
        specific); ``None`` when no valid proposal arrived."""
        raise NotImplementedError

    def _phase_vote(self, iteration: int) -> None:
        """Vote, respecting the lock.

        A locked replica votes its locked value no matter what the leader
        proposed — the simulator-scale stand-in for ADD+'s status/grading
        round, and the rule that makes deciding safe: once ``n - f``
        replicas committed (hence locked) a value, no conflicting value can
        ever reach a vote quorum again."""
        if self.locked_value is not None:
            self.vote_for(iteration, self.locked_value)
            return
        candidate = self.proposal_for(iteration)
        if candidate is not None:
            self.vote_for(iteration, candidate)

    def _phase_commit(self, iteration: int) -> None:
        """Commit (and lock) the value that gathered a full vote quorum."""
        for key in self.votes.keys_in(iteration):
            _it, value = key
            if self.votes.count(key) >= self.quorum("available"):
                self.locked_value = value
                self.broadcast(type="COMMIT", iteration=iteration, value=value)
                return

    def _phase_resolve(self, iteration: int) -> None:
        """Decide on a commit quorum; otherwise move to the next iteration."""
        for key in self.commits.keys_in(iteration):
            _it, value = key
            if self.commits.count(key) >= self.quorum("available"):
                if not self.decided:
                    self.decided = True
                    self.decide(0, value)
                # Deciders keep participating so stragglers can finish; the
                # controller ends the run once every honest node decided.
                break
        self._start_iteration(iteration + 1)

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        payload = message.payload
        kind = payload.get("type")
        if kind == "VOTE":
            self.votes.add((int(payload["iteration"]), payload["value"]), message.source)
        elif kind == "COMMIT":
            self.commits.add((int(payload["iteration"]), payload["value"]), message.source)
        else:
            self.on_variant_message(message)

    def on_variant_message(self, message: Message) -> None:
        """Variant-specific message kinds (proposals, credentials)."""

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------

    def current_value(self, iteration: int) -> Any:
        """The value this node backs: its lock if any, else a fresh one."""
        if self.locked_value is not None:
            return self.locked_value
        return self.proposal_value(0, iteration)
