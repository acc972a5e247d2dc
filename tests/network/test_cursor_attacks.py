"""Cursor-attacked ≡ per-copy-attacked.

An honest broadcast that an attacker or the environment may only re-time or
drop rides the shared tier as rows (``attack_broadcast``,
``FaultInjector.apply_rows``); with that path forced off, the same run takes
one ``Message`` per copy through ``attack`` and ``FaultInjector.apply``.  The
two must be one run: same fingerprint, same JSONL trace byte for byte (every
id, every ``drop`` / ``env-*`` record in its place).
"""

from __future__ import annotations

import hashlib
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


def _run(config, path, per_copy: bool) -> tuple:
    controller = Controller(config, sink=JsonlSink(path))
    if per_copy:
        controller.network._rides_cursor = lambda message: False
    result = controller.run()
    return (result_fingerprint(result), asdict(result.fault_counts),
            hashlib.sha256(path.read_bytes()).hexdigest())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=attacked_configs())
def test_cursor_attacked_equals_per_copy_attacked(config, tmp_path_factory):
    directory = tmp_path_factory.mktemp("runs")
    rows = _run(config, directory / "rows.jsonl", per_copy=False)
    copies = _run(config, directory / "copies.jsonl", per_copy=True)
    assert rows == copies


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


def test_a_composite_clause_behind_a_drop_matches_the_per_copy_path(tmp_path):
    """The same run with the row path forced off: each copy goes through
    both clauses on its own, and the deliveries, the fingerprint, the
    trace and the rows the second clause saw are the same."""
    config = _partitioned_then_shifted(
        n=7, num_decisions=2, max_time=20_000.0, allow_horizon=True)
    runs = []
    for per_copy in (False, True):
        path = tmp_path / f"{per_copy}.jsonl"
        controller = Controller(config, sink=JsonlSink(path))
        if per_copy:
            controller.network._rides_cursor = lambda message: False
        result = controller.run()
        runs.append((result_fingerprint(result), hashlib.sha256(path.read_bytes()).hexdigest(),
                     controller.attacker._children[1].shown))
    (rows, copies) = runs
    assert rows == copies
    assert rows[2], "the second clause was shown nothing"
    assert all((source - dest) % 2 == 0 for source, dest in rows[2])
