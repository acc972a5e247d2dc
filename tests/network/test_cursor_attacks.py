"""Attacked messages ride their rows.

An attacker or the environment acts on a message's rows
(``attack_broadcast`` or ``attack`` behind ``row_gate``, then
``FaultInjector.apply``), and the copies stay on the queue as cursors:
no ``Message`` per copy, one cursor per broadcast unless a copy is
dropped, re-timed or duplicated.  A traced run takes the same rows as an
untraced one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Controller, JsonlSink, result_fingerprint
from repro.attacks.base import Attacker, Capability
from repro.attacks.registry import register_attack
from repro.core.config import FaultScheduleConfig, FaultSpec
from repro.core.errors import CapabilityError
from repro.core.events import EventQueue
from repro.core.message import BROADCAST, Message
from repro.network.module import NetworkModule
from repro.scenarios.spec import ScenarioSpec

from tests.attacks.support import controller_with, pending_deliveries
from tests.conftest import quick_config

MESSAGE_TYPES = ["PREPARE", "COMMIT", "PRE-PREPARE", "PROPOSAL", "PREVOTE", "VOTE"]


@st.composite
def clauses(draw, n: int, mode: str) -> list[dict]:
    """1-3 attack clauses that only re-time or drop copies."""
    out: list[dict] = []
    kinds = ["partition", "targeted-delay", "adaptive", "failstop"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "partition":
            params = {"mode": draw(st.sampled_from(["drop", "delay"])),
                      "start": 0.0, "end": draw(st.sampled_from([150.0, 400.0]))}
        elif kind == "targeted-delay":
            params = {"factor": draw(st.sampled_from([1.5, 3.0])),
                      "extra_delay": draw(st.sampled_from([0.0, 40.0]))}
            if draw(st.booleans()):
                params["match_type"] = draw(st.sampled_from(MESSAGE_TYPES))
            if mode == "tree" and draw(st.booleans()):
                params["targets"] = "relays"
            elif draw(st.booleans()):
                params["targets"] = draw(st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        elif kind == "adaptive":
            params = {"action": "delay", "factor": 4.0, "k": draw(st.integers(1, 2)),
                      "period": draw(st.sampled_from([60.0, 200.0])),
                      "signal": draw(st.sampled_from(["critical", "stragglers", "busiest"]))}
        else:
            if any(clause["attack"] == "failstop" for clause in out):
                continue  # one node of budget
            params = {"nodes": [draw(st.integers(0, n - 1))],
                      "at": draw(st.sampled_from([0.0, 120.0]))}
        clause = {"attack": kind, "params": params}
        if draw(st.booleans()):
            clause["start"], clause["end"] = 50.0, 700.0
        out.append(clause)
    return out


@st.composite
def faults(draw, n: int) -> list[FaultSpec]:
    specs = []
    if draw(st.booleans()):
        specs.append(FaultSpec("loss", rate=0.05))
    if draw(st.booleans()):
        specs.append(FaultSpec("delay", rate=0.2, factor=3.0))
    if draw(st.booleans()):
        specs.append(FaultSpec("duplicate", rate=draw(st.sampled_from([0.1, 0.3]))))
    if draw(st.booleans()):
        specs.append(FaultSpec("link-down", start=60.0, end=260.0,
                               src=[draw(st.integers(0, n - 1))]))
    return specs


@st.composite
def attacked_configs(draw):
    protocol = draw(st.sampled_from(["pbft", "hotstuff-ns", "tendermint"]))
    n = draw(st.sampled_from([4, 7, 16]))
    mode = draw(st.sampled_from(["full", "tree", "gossip"]))
    spec = ScenarioSpec.from_dict({"attacks": draw(clauses(n, mode))})
    config = quick_config(
        protocol=protocol, n=n, dissemination=mode, seed=draw(st.integers(0, 99)),
        num_decisions=3, max_time=1500.0, allow_horizon=True,
    )
    specs = draw(faults(n))
    if specs:
        config = config.replace(faults=FaultScheduleConfig(specs=specs))
    return spec.apply(config)


def _run(config, path=None) -> tuple:
    controller = Controller(config, sink=None if path is None else JsonlSink(path))
    result = controller.run()
    return result_fingerprint(result), asdict(result.fault_counts)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=attacked_configs())
def test_cursor_attacked_equals_per_copy_attacked(config, tmp_path_factory):
    """Tracing an attacked run changes nothing the attacker or the
    environment decide: one fingerprint and one set of fault counts."""
    traced = _run(config, tmp_path_factory.mktemp("runs") / "rows.jsonl")
    assert traced == _run(config)


def test_an_attacked_broadcast_is_one_cursor_and_no_copy(monkeypatch):
    """A partition that drops and delays copies, under loss and delay
    faults: every broadcast is queued as one cursor, without a ``Message``
    per copy."""
    config = ScenarioSpec.from_dict({"attacks": [
        {"attack": "partition", "params": {"mode": "delay", "end": 300.0}},
        {"attack": "targeted-delay", "params": {"factor": 2.0, "targets": [1]}},
    ]}).apply(quick_config(n=7, faults=FaultScheduleConfig(specs=[
        FaultSpec("loss", rate=0.05), FaultSpec("delay", rate=0.2, factor=3.0)])))
    calls = {"copy_for": 0, "push_deliveries": 0, "_broadcast": 0}
    for owner, name in ((Message, "copy_for"), (EventQueue, "push_deliveries"),
                        (NetworkModule, "_broadcast")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    result = Controller(config).run()
    assert result.terminated and result.fault_counts.lost + result.fault_counts.delayed > 0
    assert calls["copy_for"] == 0
    assert calls["push_deliveries"] == calls["_broadcast"] > 0


def test_a_hook_that_adds_a_row_is_refused():
    """The rows are the broadcast's copies: a hook may edit them, not add one."""

    class Growing(Attacker):
        capabilities = Capability.NETWORK

        def attack_broadcast(self, view, dests, delays, keep):
            delays.append(1.0)

    controller = controller_with(Growing(), n=4)
    with pytest.raises(CapabilityError, match="^attacker added or removed copies of "):
        controller.network.submit(Message(source=1, dest=BROADCAST, payload={"type": "B"}))


@register_attack("_test-row-shifter")
class _RowShifter(Attacker):
    """Holds NETWORK and defines only ``attack_broadcast``: records the
    ``(source, dest)`` of every row it is shown and re-times each row by
    a shift that names its recipient (1000 ms per id, plus 1000)."""

    capabilities = Capability.NETWORK

    def __init__(self, params=None):
        super().__init__(params)
        self.shown: list[tuple[int, int]] = []

    def attack_broadcast(self, view, dests, delays, keep):
        for row, dest in enumerate(dests):
            self.shown.append((view.source, dest))
            delays[row] += 1000.0 * (dest + 1)


def _partitioned_then_shifted(**changes):
    return ScenarioSpec.from_dict({"attacks": [
        {"attack": "partition", "params": {"end": 60_000.0}},
        {"attack": "_test-row-shifter"},
    ]}).apply(quick_config(**changes))


def test_a_composite_clause_is_shown_only_the_kept_rows():
    """A partition clause drops the odd recipients of node 0's broadcast;
    the clause after it sees only the even ones, and each re-timing lands
    on its own copy."""
    controller = Controller(_partitioned_then_shifted(n=8, std=0.0))
    controller.attacker.setup()
    controller.clock.advance_to(20.0)
    controller.network.submit(Message(source=0, dest=BROADCAST, payload={"type": "B"}))
    assert controller.attacker._children[1].shown == [(0, 2), (0, 4), (0, 6)]
    delivered = [(time, dest) for time, dest, _, _ in pending_deliveries(controller)]
    assert delivered == [(20.0, 0)] + [(20.0 + 50.0 + 1000.0 * (dest + 1), dest)
                                       for dest in (2, 4, 6)]
    assert controller.metrics.counts.dropped == 4


# Recorded from the per-copy send path before it was folded into rows: the
# run below with every copy sent as a ``Message`` of its own through both
# clauses one at a time.
PER_COPY_FINGERPRINT = "c13c63ab2a67f9efe1a1ade0833acf9af82446c65cb0eb48670432c12711c453"
PER_COPY_TRACE_SHA256 = "2b515a8ee54c5651ccbbee4cb590c33fd8089c901e03b9c3dc69a4e58c9a6491"
PER_COPY_SHOWN = (96, "76c92b9ff543cdeab5ee0d2a07cedec27a83eb5740d14e6fb376dd9c89f03689")


def test_a_composite_clause_behind_a_drop_matches_the_per_copy_path(tmp_path):
    """The same run as each copy going through both clauses on its own:
    the fingerprint, the trace and the rows the second clause saw are the
    ones the per-copy path produced."""
    config = _partitioned_then_shifted(
        n=7, num_decisions=2, max_time=20_000.0, allow_horizon=True)
    path = tmp_path / "rows.jsonl"
    controller = Controller(config, sink=JsonlSink(path))
    result = controller.run()
    shown = controller.attacker._children[1].shown
    assert shown, "the second clause was shown nothing"
    assert all((source - dest) % 2 == 0 for source, dest in shown)
    assert result_fingerprint(result) == PER_COPY_FINGERPRINT
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PER_COPY_TRACE_SHA256
    assert (len(shown), hashlib.sha256(json.dumps(shown).encode()).hexdigest()) == PER_COPY_SHOWN
