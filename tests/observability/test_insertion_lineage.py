"""Attacker-inserted messages stay accountable under lineage.

Satellite fix (PR 5): messages the attacker *inserts* (forge + inject)
are tagged ``origin="attacker"`` in the trace, so message-usage
reconciliation in ``repro inspect`` stays exact under insertion attacks
and the causality DAG can attribute forged traffic to the attack.
"""

from __future__ import annotations

from repro.core.config import AttackConfig, NetworkConfig, SimulationConfig
from repro.core.runner import run_simulation
from repro.observability import (
    CausalityGraph,
    MemorySink,
    analyze_trace,
    critical_paths,
)


def _equivocation_run():
    sink = MemorySink()
    config = SimulationConfig(
        protocol="pbft",
        n=4,
        lam=500.0,
        network=NetworkConfig(mean=50.0, std=10.0),
        attack=AttackConfig(name="pbft-equivocation"),
        num_decisions=1,
        seed=2022,
    )
    result = run_simulation(config, sink=sink)
    return result, [event.to_dict() for event in sink.events()]


class TestInsertedOrigin:
    def test_inserted_sends_carry_attacker_origin(self):
        result, events = _equivocation_run()
        assert result.terminated
        inserted = [
            e for e in events
            if e["kind"] == "send" and e.get("origin") == "attacker"
        ]
        # One forged PRE-PREPARE per honest replica (n - 1 = 3).
        assert len(inserted) == 3
        assert all(e.get("byzantine") for e in inserted)
        assert all(e["msg_type"] == "PRE-PREPARE" for e in inserted)

    def test_honest_sends_carry_no_origin(self):
        _, events = _equivocation_run()
        honest = [
            e for e in events
            if e["kind"] == "send" and not e.get("forged") and not e.get("byzantine")
        ]
        assert honest
        assert all("origin" not in e for e in honest)

    def test_inspect_reconciles_inserted_exactly(self):
        """TraceReport splits byzantine traffic into corrupted-source vs
        attacker-inserted; the split must add up exactly."""
        result, events = _equivocation_run()
        report = analyze_trace(events)
        forged = sum(
            1 for e in events
            if e["kind"] == "send" and e.get("origin") == "attacker"
        )
        assert report.inserted == forged == 3
        assert report.inserted <= report.byzantine_sent
        assert report.byzantine_sent == result.counts.byzantine
        assert report.sent == result.counts.sent
        assert "inserted" in report.to_dict()
        assert report.to_dict()["inserted"] == forged

    def test_forged_messages_join_the_causality_graph(self):
        """Inserted messages get a cause (the attacker's timer), so the
        DAG walk can pass through them instead of dangling."""
        _, events = _equivocation_run()
        graph = CausalityGraph.build(events)
        forged_sends = [
            send for send in graph.sends.values() if send.origin == "attacker"
        ]
        assert forged_sends
        assert all(send.cause is not None for send in forged_sends)
        # Every decision still has a complete critical path under attack.
        paths = critical_paths(graph)
        assert paths
        assert all(path.complete for path in paths)
