"""The traced run of one workload and the per-layer metrics it yields.

Three sources, marked in ``bench/README.md`` beside each metric: exact
counts from result objects and shim call counts, self-time shares of the
``core.controller.run`` spans of the traced pass, and the micro-drivers of
:mod:`bench.layers`.  A layer the workload never enters reports 0.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from . import OUT_DIR, layers
from .harness import spin_ms
from .tracing import SpanStats, Tracer, install_shims
from .workloads import Pass, Workload


def trace_path(workload: str) -> Path:
    return OUT_DIR / f"trace.{workload}.json"


def traced_run(workload: Workload, tmp: Path) -> tuple[dict[str, float], list[Pass]]:
    """One untraced pass, one traced pass, the micro-drivers; writes the
    spans and aggregates to ``bench/out/trace.<workload>.json``."""
    spin = spin_ms()
    untraced = workload.one_pass()
    values = workload.untraced_extras(untraced)

    tracer = Tracer(run_id=f"{workload.name}/seed{workload.seed}")
    shims = install_shims(tracer)
    workload.timed = tracer.timed
    try:
        traced = workload.one_pass()
    finally:
        shims.remove()
        del workload.timed  # back to the class's untimed call

    stats = SpanStats(tracer.aggregates())
    values.update(traced.facts)
    values.update(span_metrics(stats, tracer.counters, values))
    values.update(layers.run_all(workload.seed, tmp))
    values["host.spin_ms"] = spin
    values["host.nproc"] = float(os.cpu_count() or 1)
    values["host.trace_overhead_x"] = traced.seconds / untraced.seconds

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(trace_path(workload.name), "w", encoding="utf-8") as handle:
        json.dump({
            "run": tracer.run_id,
            "layer_shares": stats.layer_shares(),
            "aggregates": stats.to_rows(),
            "spans": tracer.spans(),
        }, handle)
    return values, [untraced, traced]


def span_metrics(stats: SpanStats, counters: dict[str, int],
                 facts: dict[str, float]) -> dict[str, float]:
    """Call counts, self-time shares and per-call means from the spans."""
    calls, shares = stats.calls, stats.layer_shares()
    broadcasts = counters.get("network.module.broadcasts", 0)
    plans = (calls("network.dissemination.plan")
             + calls("network.dissemination.plan_from_labels")
             + calls("network.dissemination.restricted_plan"))
    copies = calls("core.message.copy_for")
    decisions = facts.get("core.controller.decisions", 0)
    values = {
        "core.controller.timers_registered": calls("core.controller.register_timer"),
        "core.controller.loop_self_share": shares["core.controller"],
        "core.events.push_calls": calls("core.events.push") + calls("core.events.push_batch"),
        "core.events.pop_calls": calls("core.events.pop_entry"),
        "core.events.cancel_calls": calls("core.events.cancel"),
        "core.events.deliveries_batched": counters.get("core.events.deliveries_batched", 0),
        "core.events.self_share": shares["core.events"],
        "core.message.copy_calls": copies,
        "core.message.deep_copy_calls": calls("core.message.deep_copy_payload"),
        "core.message.bytes_estimate_calls": calls("core.message.estimate_message_bytes"),
        "core.message.self_share": shares["core.message"],
        "network.delays.scalar_draws": calls("network.delays.sample_delay"),
        "network.delays.batch_draws": calls("network.delays.sample_delays"),
        "network.delays.self_share": shares["network.delays"],
        "network.module.submit_calls": calls("network.module.submit"),
        "network.module.broadcasts": broadcasts,
        "network.module.copies_per_broadcast": copies / broadcasts if broadcasts else 0.0,
        "network.module.self_share": shares["network.module"],
        "network.dissemination.plan_calls": plans,
        "network.dissemination.hops_per_broadcast": (
            counters.get("core.events.deliveries_batched", 0) / plans if plans else 0.0),
        "network.dissemination.self_share": shares["network.dissemination"],
        "protocols.on_message_calls": stats.calls("protocols", ".on_message"),
        "protocols.on_timer_calls": stats.calls("protocols", ".on_timer"),
        "protocols.msgs_per_decision": (
            facts.get("network.module.msgs_sent", 0) / decisions if decisions else 0.0),
        "protocols.self_share": shares["protocols"],
        "protocols.on_message_ns": stats.mean_self_ns("protocols", ".on_message"),
        "attacks.attack_calls": stats.calls("attacks", ".attack"),
        "attacks.self_share": shares["attacks"],
        "scenarios.composite.clause_calls": (
            stats.calls("attacks", ".attack") - calls("attacks.scenario.attack")
            if calls("attacks.scenario.attack") else 0),
        "observability.signals.self_share": shares["observability.signals"],
        "faults.engine.apply_calls": calls("faults.engine.apply"),
        "faults.engine.self_share": shares["faults.engine"],
        "workload.self_share": shares["workload"],
        "observability.trace.self_share": shares["observability.trace"],
        "observability.metrics.self_share": shares["observability.metrics"],
        "observability.health.self_share": shares["observability.health"],
    }
    for protocol in ("pbft", "tendermint", "hotstuff-ns", "librabft"):
        values[f"protocols.{protocol}.on_message_ns"] = stats.mean_self_ns(
            f"protocols.{protocol}.on_message")
    return {name: float(value) for name, value in values.items()}


def merge_trace_files(workloads: list[str]) -> Path:
    """Fold the per-workload trace files into ``bench/out/trace.json``."""
    merged: dict[str, Any] = {}
    for name in workloads:
        path = trace_path(name)
        with open(path, encoding="utf-8") as handle:
            merged[name] = json.load(handle)
        path.unlink()
    out = OUT_DIR / "trace.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workloads": merged}, handle)
    return out
