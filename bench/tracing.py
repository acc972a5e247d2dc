"""Spans recorded from outside the program, and the layer metrics they give.

The traced run installs timing shims around the public callables of each
layer (:func:`install_shims`) *before* a ``Controller`` is built, so the
hot-path references the engine pre-binds at construction pick them up, and
removes them afterwards.  A span has a name, start, end, parent and run id;
spans stay in memory (:class:`Tracer`) and are written out when the run
ends.  A span's *self time* is its duration minus the part its child spans
cover; the self times of every span under a ``core.controller.run`` root
partition that root's duration, which is what makes the per-layer shares
sum to 100 %.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable

ROOT_SPAN = "core.controller.run"
#: Full spans kept per run; beyond it only the aggregates grow.
MAX_SPANS = 50_000

#: Layers, longest prefix first where one name extends another.  A span
#: belongs to the first layer its name starts with.
LAYERS = (
    "core.controller",
    "core.events",
    "core.message",
    "network.delays",
    "network.module",
    "network.dissemination",
    "protocols",
    "attacks",
    "faults.engine",
    "workload",
    "observability.trace",
    "observability.metrics",
    "observability.health",
    "observability.signals",
)

_MISSING = object()


def layer_of(span_name: str) -> str | None:
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return None


class _ThreadState:
    """One thread's open-span stack, aggregates and kept spans."""

    def __init__(self) -> None:
        # frame = [name, child_ns, span_id, inside_root]
        self.stack: list[list] = [["<thread>", 0, -1, False]]
        # (name, parent name, inside_root) -> [count, total_ns, self_ns]
        self.agg: dict[tuple[str, str, bool], list[int]] = {}
        self.spans: list[tuple] = []


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack and aggregates (no lock on the hot
    path); :meth:`aggregates` and :meth:`spans` merge them.  ``counters``
    holds counts the shims take at the same boundaries (broadcasts,
    batched deliveries) where a call count alone is not the number wanted.
    """

    def __init__(self, run_id: str = "",
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.run_id = run_id
        self.clock = clock
        self.counters: Counter[str] = Counter()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Callable[[tuple], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        ``on_call`` (optional) sees the positional arguments before the
        call, for counts a span cannot carry.
        """
        get_state = self._state
        clock = self.clock
        is_root = name == ROOT_SPAN

        def shim(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(args)
            state = get_state()
            stack = state.stack
            parent = stack[-1]
            spans = state.spans
            span_id = len(spans) if len(spans) < MAX_SPANS else -1
            if span_id >= 0:
                spans.append(None)  # reserve the slot: ids follow start order
            frame = [name, 0, span_id, is_root or parent[3]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                key = (name, parent[0], frame[3])
                record = state.agg.get(key)
                if record is None:
                    state.agg[key] = [1, duration, duration - frame[1]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[1]
                if span_id >= 0:
                    spans[span_id] = (span_id, name, start, end, parent[2])

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def timed(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a client-side span named ``name`` (an HTTP
        request, a subprocess, a read-back step)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- read side ---------------------------------------------------------

    def aggregates(self) -> dict[tuple[str, str, bool], list[int]]:
        """``(name, parent, inside_root) -> [count, total_ns, self_ns]``
        summed over threads."""
        merged: dict[tuple[str, str, bool], list[int]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, record in state.agg.items():
                into = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    into[i] += record[i]
        return merged

    def spans(self) -> list[dict[str, Any]]:
        """The kept spans of every thread, as JSON-ready dicts."""
        out = []
        with self._states_lock:
            states = list(self._states)
        for thread_index, state in enumerate(states):
            for span in state.spans:
                if span is None:  # still open when the run ended
                    continue
                span_id, name, start, end, parent = span
                out.append({
                    "id": f"{thread_index}.{span_id}",
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": None if parent < 0 else f"{thread_index}.{parent}",
                    "run": self.run_id,
                })
        return out


class SpanStats:
    """Per-name view over a tracer's aggregates."""

    def __init__(self, aggregates: dict[tuple[str, str, bool], list[int]]) -> None:
        self.aggregates = aggregates

    def _sum(self, index: int, prefix: str, suffix: str = "") -> int:
        """Sum one aggregate column over the spans named ``prefix`` or
        ``prefix.*`` (and ending in ``suffix``)."""
        total = 0
        for (name, _parent, _in_root), record in self.aggregates.items():
            if (name == prefix or name.startswith(prefix + ".")) and name.endswith(suffix):
                total += record[index]
        return total

    def calls(self, prefix: str, suffix: str = "") -> int:
        """Calls of the spans under ``prefix``; with ``suffix``, of one
        method across every protocol or attacker class."""
        return self._sum(0, prefix, suffix)

    def total_ns(self, prefix: str) -> int:
        return self._sum(1, prefix)

    def self_ns(self, prefix: str) -> int:
        return self._sum(2, prefix)

    def root_ns(self) -> int:
        return self.total_ns(ROOT_SPAN)

    def mean_self_ns(self, prefix: str, suffix: str = "") -> float:
        calls = self.calls(prefix, suffix)
        return self._sum(2, prefix, suffix) / calls if calls else 0.0

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time under the root spans, as a share of the
        roots' total duration.  The shares sum to 1 (every span under a
        root belongs to exactly one layer), or to 0 when no root ran."""
        root = self.root_ns()
        shares = {layer: 0.0 for layer in LAYERS}
        if root == 0:
            return shares
        for (name, _parent, in_root), record in self.aggregates.items():
            if not in_root:
                continue
            layer = layer_of(name)
            if layer is None:
                raise ValueError(f"span {name!r} under the root belongs to no layer")
            shares[layer] += record[2] / root
        return shares

    def to_rows(self) -> list[dict[str, Any]]:
        return [
            {"name": name, "parent": parent, "inside_root": in_root,
             "count": record[0], "total_ns": record[1], "self_ns": record[2]}
            for (name, parent, in_root), record in sorted(self.aggregates.items())
        ]


# ---------------------------------------------------------------------------
# Shims
# ---------------------------------------------------------------------------


class Shims:
    """The patched attributes of one traced run, and how to put them back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: list[tuple[Any, str, Any]] = []

    def patch(
        self,
        owner: Any,
        attr: str,
        span_name: str,
        on_call: Callable[[tuple], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a shim."""
        self.replace(owner, attr, self.tracer.wrap(span_name, getattr(owner, attr), on_call))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patched(self) -> list[tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _original in self._patched]

    def remove(self) -> None:
        """Restore every attribute to the very object it held before."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install_shims(tracer: Tracer) -> Shims:
    """Wrap the layers' public callables; call before building a Controller."""
    from repro.attacks.registry import available_attacks, get_attack
    from repro.core import message as message_module
    from repro.core.controller import Controller
    from repro.core.events import EventQueue
    from repro.core.message import BROADCAST, Message
    from repro.core.tracing import Trace, TraceSink
    from repro.faults.engine import FaultInjector
    from repro.network import dissemination, module as network_module
    from repro.network.delays import DelayModel
    from repro.network.dissemination import DisseminationPlan, TreeShape
    from repro.network.module import NetworkModule
    from repro.observability.health import HealthMonitor
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.signals import LiveSignals
    from repro.protocols.registry import available_protocols, get_protocol
    from repro.scenarios import composite
    from repro.serve import server as serve_module
    from repro.store import ExperimentStore
    from repro.workload.manager import WorkloadManager

    counters = tracer.counters
    shims = Shims(tracer)
    patch = shims.patch

    patch(Controller, "run", ROOT_SPAN)
    patch(Controller, "register_timer", "core.controller.register_timer")

    def count_broadcast(args: tuple) -> None:
        if args[1].dest == BROADCAST:
            counters["network.module.broadcasts"] += 1

    patch(NetworkModule, "submit", "network.module.submit", count_broadcast)

    patch(Message, "copy_for", "core.message.copy_for")
    # The two payload helpers are module-level functions imported by name:
    # every importing namespace holds its own reference.
    # deep_copy_payload recurses through its own module global, so the span
    # count is nested calls too; the top-level calls are the copies wanted.
    depth = [0]
    original_deep_copy = message_module.deep_copy_payload
    traced_deep_copy = tracer.wrap("core.message.deep_copy_payload", original_deep_copy)

    def deep_copy_payload(value: Any) -> Any:
        if depth[0]:
            return original_deep_copy(value)
        depth[0] = 1
        try:
            return traced_deep_copy(value)
        finally:
            depth[0] = 0

    for owner in (message_module, network_module, composite):
        shims.replace(owner, "deep_copy_payload", deep_copy_payload)
    for owner in (message_module, network_module):
        patch(owner, "estimate_message_bytes", "core.message.estimate_message_bytes")

    patch(DelayModel, "sample_delay", "network.delays.sample_delay")
    patch(DelayModel, "sample_delays", "network.delays.sample_delays")

    patch(EventQueue, "push", "core.events.push")
    patch(EventQueue, "push_batch", "core.events.push_batch")

    def count_deliveries(args: tuple) -> None:
        counters["core.events.deliveries_batched"] += len(args[3])

    patch(EventQueue, "push_deliveries", "core.events.push_deliveries", count_deliveries)
    patch(EventQueue, "pop_entry", "core.events.pop_entry")
    patch(EventQueue, "cancel", "core.events.cancel")

    patch(TreeShape, "plan", "network.dissemination.plan")
    patch(TreeShape, "plan_from_labels", "network.dissemination.plan_from_labels")
    patch(DisseminationPlan, "arrivals", "network.dissemination.arrivals")
    for owner in (dissemination, network_module):
        patch(owner, "restricted_plan", "network.dissemination.restricted_plan")

    for name in available_protocols():
        cls = get_protocol(name)
        patch(cls, "on_message", f"protocols.{name}.on_message")
        patch(cls, "on_timer", f"protocols.{name}.on_timer")
    for name in available_attacks():
        cls = get_attack(name)
        patch(cls, "attack", f"attacks.{name}.attack")
        patch(cls, "on_timer", f"attacks.{name}.on_timer")

    patch(FaultInjector, "apply", "faults.engine.apply")
    patch(Trace, "record", "observability.trace.record")
    patch(TraceSink, "emit", "observability.trace.emit")
    for method in ("on_send", "on_deliver", "advance"):
        patch(MetricsRegistry, method, f"observability.metrics.{method}")
    patch(HealthMonitor, "advance", "observability.health.advance")
    patch(LiveSignals, "on_deliver", "observability.signals.on_deliver")
    for method in ("submit", "cut_batch", "on_decided", "complete",
                   "slots_with_requests", "health_snapshot", "build"):
        patch(WorkloadManager, method, f"workload.{method}")

    for method in ("record_run", "experiments", "runs", "run"):
        patch(ExperimentStore, method, f"store.{method}")
    patch(serve_module, "run_analysis", "serve.run_analysis")
    return shims
