"""The pinned-run table: every value the determinism tests pin.

A run is a deterministic function of its configuration; the validator's
replay and the Fig. 2 comparison both rest on that.  Each *case* here is
one named run, and ``tests/pinned.json`` holds what it must produce: its
result fingerprint, ``events_processed`` and ``messages``, and for some
cases the sha256 of its JSONL trace, a trace-tail digest or the next free
message id.  Tests take the observed values from :func:`observe` and the
expected ones from :func:`expected`.  The cases:

* ``golden/<mode>/<protocol>``: every registered protocol, one small
  fixed-seed run (:func:`golden_config`) per dissemination mode.  The
  ``full`` digests predate the overlays and must stay byte-identical under
  the default dissemination; ``tree`` and ``gossip`` reshape delay draws
  by design, so what they pin is that each overlay is deterministic.
* ``instrumented/<name>``: runs under an attacker, link faults or a
  delay override, with the sha256 of their JSONL trace, pinned while the
  network still sent such messages one copy at a time (the "instrumented"
  tier).  Every message now takes its rows (``NetworkModule._send``), and
  these digests are that tier's output, frozen as data; the names stay.
  Each moves if a delay is drawn in another order, a copy gets another id
  or pops in another order, or a record changes.
* ``tier-switch/<protocol>/<switch>``: a ``full``-mode run that corrupts
  node 5 or turns tracing on after its first decision, pinned at the
  commit before broadcasts were shared (per-copy fan-out throughout).

After an intended behaviour change, re-pin with::

    PYTHONPATH=src python -m tests.pinned "<reason>"

It re-runs every case, prints the reason and an old → new row for each
value that moved, and rewrites only the entries that moved.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro import (
    AttackConfig,
    Controller,
    JsonlSink,
    NetworkConfig,
    SimulationConfig,
    available_protocols,
    get_protocol,
    result_fingerprint,
    run_simulation,
)
from repro.attacks.base import Attacker, AttackerContext, Capability
from repro.attacks.registry import register_attack
from repro.core.message import BROADCAST
from repro.faults.spec import parse_faults_spec
from repro.protocols.base import SYNCHRONOUS
from repro.scenarios.spec import load_scenario

from tests.conftest import quick_config

TABLE = Path(__file__).with_name("pinned.json")
MODES = ("full", "tree", "gossip")


@functools.cache
def table() -> dict[str, dict]:
    """``tests/pinned.json``: case name -> the values it pins."""
    return json.loads(TABLE.read_text())


def expected(case: str) -> dict:
    """The values ``case`` must produce."""
    return table()[case]


# -- golden runs --------------------------------------------------------------


def golden_config(protocol: str, dissemination: str = "full") -> SimulationConfig:
    """The fixed configuration behind each golden case."""
    lam = 500.0
    max_delay = 0.99 * lam if get_protocol(protocol).network_model == SYNCHRONOUS else None
    return SimulationConfig(
        protocol=protocol, n=4, lam=lam, num_decisions=1, seed=2022,
        network=NetworkConfig(
            mean=50.0, std=10.0, max_delay=max_delay, dissemination=dissemination
        ),
    )


def golden_case(protocol: str, mode: str = "full") -> str:
    return f"golden/{mode}/{protocol}"


def golden_protocols(mode: str = "full") -> list[str]:
    """The protocols the table holds a ``mode`` golden case for."""
    prefix = golden_case("", mode)
    return sorted(case[len(prefix):] for case in table() if case.startswith(prefix))


def golden_fingerprint(protocol: str) -> str:
    """The pinned fingerprint of ``protocol``'s ``full`` golden run."""
    return expected(golden_case(protocol))["fingerprint"]


# -- instrumented runs --------------------------------------------------------


@register_attack("_test-mid-broadcast-forger")
class _MidBroadcastForger(Attacker):
    """Adds a forged message with no delay beside some copies of a
    broadcast, so ``network.delay`` is drawn from in the middle of it."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE

    def setup(self):
        self.ctx.corrupt(0)

    def attack(self, message):
        if message.dest % 3 == 1 and message.payload.get("type") == "PREPARE":
            noise = self.ctx.forge(0, message.dest, {"type": "NOISE", "n": message.dest})
            return [message, noise]
        return None


@register_attack("_test-controlled-rewriter")
class _ControlledRewriter(Attacker):
    """Controls node 0 and speaks for it: a forged ``PRE-PREPARE``
    broadcast whose copies it rewrites per recipient, so every copy of it
    carries a payload of its own."""

    capabilities = Capability.OBSERVE | Capability.BYZANTINE

    def setup(self):
        self.ctx.corrupt(0)
        self.ctx.set_timer(1.0, "speak")

    def on_timer(self, timer):
        self.ctx.inject(self.ctx.forge(0, BROADCAST, {
            "type": "PRE-PREPARE", "view": 0, "slot": 0, "value": "evil", "digest": "d(evil)"}))

    def attack(self, message):
        if self.ctx.controls_message(message):
            value = f"evil-{'AB'[message.dest % 2]}"
            message.payload["value"] = value
            message.payload["digest"] = f"d({value})"
        return None


def _pbft_n16_faults(spec):
    return SimulationConfig(
        protocol="pbft", n=16, num_decisions=3, seed=17,
        network=NetworkConfig(), faults=parse_faults_spec(spec),
    )


def _pbft_n32(decisions, seed, **changes):
    return SimulationConfig(
        protocol="pbft", n=32, num_decisions=decisions, seed=seed,
        network=NetworkConfig(), **changes,
    )


def _override_odd_destinations(controller):
    controller.network.set_delay_override(
        lambda message, dest: 40.0 + dest if dest % 2 else None
    )


def _replay_seed_16(controller):
    from repro.validator.replay import RecordedDelays

    ground_truth = run_simulation(_pbft_n32(5, 16, record_trace=True)).trace
    controller.network.set_delay_override(RecordedDelays(ground_truth))


#: name -> config factory.  Pinned on the commit before the instrumented
#: tier went copy-on-write with a batched star draw, except where noted.
INSTRUMENTED_RUNS = {
    # Pinned once forged inserts were re-keyed with per-run ids (the
    # process-wide id they are constructed with never reaches a record).
    "forged-insert-mid-broadcast": lambda: quick_config(
        n=7, num_decisions=2, attack=AttackConfig(name="_test-mid-broadcast-forger")),
    "delay-override": lambda: quick_config(
        n=7, num_decisions=2,
        attack=AttackConfig(name="targeted-delay", params={"factor": 3.0})),
    "adaptive-chaser": lambda: load_scenario("adaptive-chaser").apply(_pbft_n32(5, 11)),
    "worst-case-pbft-n32": lambda: load_scenario("worst-case-pbft-n32").apply(_pbft_n32(2, 12)),
    "link-faults": lambda: _pbft_n32(
        5, 13, faults=parse_faults_spec("duplicate=0.05; delay=0.1x3")),
    # Pinned before a delay override stopped forcing the per-copy tier:
    # the replay of another seed's pbft n=32 run, with 262 copies the
    # ground truth never sent priced at its median delay.
    "replay-pbft-n32": lambda: _pbft_n32(5, 15),
    # Pinned before delays were drawn in blocks: ~8k per-copy draws of
    # ``network.delay`` and ~1.6k of ``faults.delay`` cross many block
    # boundaries, before GST (inflated, uncapped) and after it (capped).
    "partial-sync-link-faults": lambda: _pbft_n32(
        4, 14, faults=parse_faults_spec("duplicate=0.2; delay=0.1x3"),
    ).replace(network={"gst": 800.0, "pre_gst_factor": 3.0, "max_delay": 400.0}),
    # Pinned while the per-copy tier still existed, as its output for what
    # only it carried: 45 attacked unicast VOTEs; the ``corrupt``
    # fault, where a duplicate inherits the flag only when ``corrupt`` comes
    # first in the schedule; 35 broadcasts of an attacker overriding only
    # ``attack``; 6 forged unicasts sent through ``inject``; and the copies
    # of a controlled broadcast, each rewritten by the attacker.
    "unicast-targeted-delay": lambda: quick_config(
        protocol="hotstuff-ns", n=7, num_decisions=3,
        attack=AttackConfig(name="targeted-delay", params={"factor": 3.0})),
    "corrupt-then-duplicate": lambda: _pbft_n16_faults("corrupt=0.05; duplicate=0.05"),
    "duplicate-then-corrupt": lambda: _pbft_n16_faults("duplicate=0.05; corrupt=0.05"),
    "add-adaptive": lambda: quick_config(
        protocol="add-v2", n=7, attack=AttackConfig(name="add-adaptive")),
    "equivocation-forged-unicasts": lambda: quick_config(
        n=7, attack=AttackConfig(name="pbft-equivocation")),
    "controlled-payload-rewrite": lambda: quick_config(
        n=7, num_decisions=2, attack=AttackConfig(name="_test-controlled-rewriter")),
}

#: name -> ``prepare(controller)`` hook, run before the controller starts.
PREPARE = {"delay-override": _override_odd_destinations, "replay-pbft-n32": _replay_seed_16}


# -- runs that start taking their rows mid-way ---------------------------------


def run_switching(controller, switch):
    """Run ``controller``, calling ``switch(controller)`` after the first decision."""
    report = controller.report_decision
    fired = []

    def hooked(node_id, slot, value):
        report(node_id, slot, value)
        if not fired:
            fired.append(True)
            switch(controller)

    controller.report_decision = hooked
    return controller.run()


def corrupt_node_5(controller):
    """Adaptive corruption under the genuine NullAttacker: from here on
    ``controls_message`` can be true, so every message takes its rows."""
    ctx = AttackerContext(controller, Capability.BYZANTINE | Capability.ADAPTIVE)
    controller.attacker_ctx = controller.network._attacker_ctx = ctx
    ctx.corrupt(5)


def trace_on(controller):
    controller.trace.enabled = True


TIER_SWITCHES = {"corrupt-node-5": corrupt_node_5, "trace-on": trace_on}
TIER_SWITCH_PROTOCOLS = ("hotstuff-ns", "pbft")


def switching_config(protocol, mode):
    return quick_config(protocol=protocol, n=7, num_decisions=3, seed=11, dissemination=mode)


def trace_digest(trace) -> str:
    """Digest of the recorded tail, with ids compared on ``send`` records
    only and causes not at all: how the pinned ``tier-switch`` digests
    were taken, before the deliveries of a shared broadcast carried
    per-copy ids."""
    rows = []
    for event in trace:
        fields = dict(event.fields)
        fields.pop("cause", None)
        if event.kind != "send":
            fields.pop("msg_id", None)
        rows.append([event.time, event.kind, event.node, sorted(fields.items())])
    return hashlib.sha256(json.dumps(rows, default=str).encode()).hexdigest()


# -- observing a case ---------------------------------------------------------


def cases() -> list[str]:
    """Every case name, in table order."""
    return sorted(
        [golden_case(protocol, mode) for mode in MODES for protocol in available_protocols()]
        + [f"instrumented/{name}" for name in INSTRUMENTED_RUNS]
        + [
            f"tier-switch/{protocol}/{switch}"
            for protocol in TIER_SWITCH_PROTOCOLS
            for switch in TIER_SWITCHES
        ]
    )


def _values(result, **pinned) -> dict:
    return {
        "fingerprint": result_fingerprint(result),
        **pinned,
        "events": result.events_processed,
        "messages": result.messages,
    }


def observe(case: str) -> dict:
    """Run ``case`` and return the values the table pins for it."""
    family, *key = case.split("/")
    if family == "golden":
        mode, protocol = key
        result = run_simulation(golden_config(protocol, mode))
        if not result.terminated:
            raise AssertionError(f"{case}: a golden run must terminate")
        return _values(result)
    if family == "instrumented":
        name = key[0]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "trace.jsonl"
            controller = Controller(INSTRUMENTED_RUNS[name](), sink=JsonlSink(path))
            if name in PREPARE:
                PREPARE[name](controller)
            result = controller.run()
            return _values(result, trace_sha256=hashlib.sha256(path.read_bytes()).hexdigest())
    if family == "tier-switch":
        protocol, switch = key
        controller = Controller(switching_config(protocol, "full"))
        result = run_switching(controller, TIER_SWITCHES[switch])
        if switch == "corrupt-node-5":
            return _values(result)
        return _values(
            result,
            trace_digest=trace_digest(result.trace),
            next_message_id=controller.next_message_id(),
        )
    raise KeyError(case)


def repin(argv: list[str]) -> int:
    """Re-run every case and rewrite the entries whose values moved."""
    if len(argv) != 1 or not argv[0].strip() or argv[0].startswith("-"):
        print('usage: PYTHONPATH=src python -m tests.pinned "<reason>"', file=sys.stderr)
        return 2
    print(f"re-pin: {argv[0]}")
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    new, moved = {}, 0
    for case in cases():
        before, after = old.get(case, {}), observe(case)
        if after == before:
            new[case] = before
            continue
        moved += 1
        new[case] = after
        for key in dict.fromkeys([*before, *after]):
            if before.get(key) != after.get(key):
                print(f"  {case} {key}: {before.get(key, '-')} → {after.get(key, '-')}")
    for case in sorted(set(old) - set(new)):
        moved += 1
        print(f"  {case}: no longer a case, dropped")
    print(f"{moved} of {len(new)} cases moved")
    if moved:
        TABLE.write_text(json.dumps(new, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(repin(sys.argv[1:]))
