"""Simulation configuration.

A :class:`SimulationConfig` is the single input to a run, mirroring the
paper's "configuration file specifying the network model and parameters, the
BFT protocol, and, optionally, the attack scenario" (§III-A).  Configurations
are plain dataclasses with dict/JSON round-tripping so experiments can be
scripted, stored, and replayed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Any, Iterable

from .errors import ConfigurationError

#: Broadcast dissemination strategies accepted by ``NetworkConfig``.
DISSEMINATION_MODES = ("full", "tree", "gossip")


def check_finite(
    name: str,
    value: Any,
    *,
    minimum: float = 0.0,
    strict: bool = False,
    integer: bool = False,
    error: type[Exception] = ConfigurationError,
) -> None:
    """Raise ``error`` unless ``value`` is a finite number ``>= minimum``
    (``> minimum`` when ``strict``; an integer when ``integer``).  A
    ``bool`` is not a number here, though Python counts it as an integer.

    Written as the positive condition because NaN compares false both
    ways: it passes every ``x <= 0`` rejection, and a NaN time or delay
    then breaks the event queue's order far from where it entered.
    """
    in_range = (
        not isinstance(value, bool)
        and isinstance(value, Integral if integer else Real)
        and math.isfinite(value)
        and (value > minimum if strict else value >= minimum)
    )
    if not in_range:
        bound = f"{'>' if strict else '>='} {minimum:g}"
        kind = "an integer" if integer else "a finite number"
        raise error(f"{name} must be {kind} {bound}, got {value!r}")


def check_type(name: str, value: Any, kind: type, what: str) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is a ``kind`` (a
    ``bool`` passes only as a ``bool``)."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")


def check_window(what: str, start: Any, end: Any) -> None:
    """The one window rule: ``[start, end)`` in ms needs a finite ``start
    >= 0`` and an ``end`` that is ``None`` (open) or finite and ``> start``."""
    check_finite(f"{what} start", start)
    if end is not None:
        check_finite(f"{what} end", end, minimum=start, strict=True)


def number_text(value: float) -> str:
    """``value`` as clause-grammar text that reads back as the same number:
    ``%g`` where that is exact (``5000.0`` -> ``5000``), else ``repr``, and
    never ``e+`` (``+`` separates list items)."""
    text = f"{value:g}"
    return (text if float(text) == value else repr(value)).replace("e+", "e")


def window_text(start: float, end: float | None) -> str:
    """The clause grammar's ``@start:end`` suffix; ``""`` for ``[0, ∞)``."""
    if not start and end is None:
        return ""
    return f"@{number_text(start)}" + ("" if end is None else f":{number_text(end)}")


def check_mapping(
    name: str, value: Any, known: Iterable[str] | None = None
) -> Mapping[str, Any]:
    """``value``, unless it is not a mapping or has a key outside ``known``:
    a loaded document is checked before it is indexed or unpacked."""
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{name} must be a mapping (a JSON object), got {value!r}")
    unknown = set() if known is None else set(value) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    return value


def check_list(name: str, value: Any) -> "list[Any] | tuple[Any, ...]":
    """``value``, unless it is not a list (a JSON array)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return value


@dataclass
class NetworkConfig:
    """Parameters of the simulated peer-to-peer network.

    Attributes:
        distribution: name of the delay distribution registered in
            :mod:`repro.network.delays` (``"normal"``, ``"uniform"``,
            ``"exponential"``, ``"lognormal"``, ``"poisson"``, ``"constant"``).
        mean: distribution mean in milliseconds (the paper's ``mu``).
        std: standard deviation in milliseconds (the paper's ``sigma``);
            ignored by distributions without a spread parameter.
        min_delay: hard lower bound applied after sampling; physical links
            never deliver instantaneously, and a strictly positive floor also
            guarantees simulation progress.
        max_delay: optional hard upper bound ``b``.  Setting it simulates a
            synchronous (``b <= lambda``) or partially-synchronous network
            (bound exists but the protocol's ``lambda`` underestimates it);
            leaving it ``None`` simulates an asynchronous network.
        gst: global stabilization time (ms).  Before GST, sampled delays are
            multiplied by :attr:`pre_gst_factor` and :attr:`max_delay` is not
            enforced, modelling the unstable period of a partially-synchronous
            network.  ``0`` means the network is stable from the start.
        pre_gst_factor: delay multiplier applied before GST.
        dissemination: broadcast dissemination strategy (see
            :mod:`repro.network.dissemination`): ``"full"`` — the sender
            transmits one unicast per peer (the classic O(n) fan-out, and
            the byte-identical historical behaviour); ``"tree"`` — a
            deterministic k-ary spanning tree rooted at the sender relays
            the broadcast; ``"gossip"`` — a seed-deterministic fanout-f
            push overlay drawn per broadcast.  Unicasts are unaffected.
        fanout: relay fan-out for ``tree``/``gossip`` (``k`` resp. ``f``).
            ``0`` (default) resolves to ``max(2, ceil(sqrt(n)))`` — depth-2
            overlays that keep end-to-end latency within a small multiple
            of the unicast delay.  Ignored by ``"full"``.
    """

    distribution: str = "normal"
    mean: float = 250.0
    std: float = 50.0
    min_delay: float = 1.0
    max_delay: float | None = None
    gst: float = 0.0
    pre_gst_factor: float = 10.0
    dissemination: str = "full"
    fanout: int = 0

    def validate(self) -> None:
        check_type("network distribution", self.distribution, str, "a name")
        check_finite("network mean delay", self.mean, strict=True)
        check_finite("network std", self.std)
        # Strictly positive: a zero floor would not guarantee progress.
        check_finite("min_delay", self.min_delay, strict=True)
        if self.max_delay is not None:
            check_finite("max_delay", self.max_delay, minimum=self.min_delay)
        check_finite("gst", self.gst)
        check_finite("pre_gst_factor", self.pre_gst_factor, minimum=1.0)
        if self.dissemination not in DISSEMINATION_MODES:
            raise ConfigurationError(
                f"unknown dissemination mode {self.dissemination!r}; "
                f"available: {list(DISSEMINATION_MODES)}"
            )
        check_finite("fanout (0 = auto)", self.fanout, integer=True)


#: Fault kinds accepted by :class:`FaultSpec`.
FAULT_KINDS = ("loss", "duplicate", "corrupt", "delay", "link-down", "crash")

#: Fault kinds applied per message on a link (everything except ``crash``).
LINK_FAULT_KINDS = ("loss", "duplicate", "corrupt", "delay", "link-down")


@dataclass
class FaultSpec:
    """One environmental fault process (see :mod:`repro.faults`).

    These are *benign environment* faults — lossy links, flaky hardware,
    node churn — applied by the network/controller layers independently of
    the attacker module.  They are never charged against the attacker's
    capabilities or corruption budget.

    Attributes:
        kind: one of :data:`FAULT_KINDS`:

            * ``"loss"`` — drop each matching message with probability
              ``rate``;
            * ``"duplicate"`` — deliver an extra copy (independent delay)
              with probability ``rate``;
            * ``"corrupt"`` — tamper the payload with probability ``rate``;
              receivers reject tampered messages (failed signature /
              checksum verification), they are never dispatched to protocol
              logic;
            * ``"delay"`` — multiply the sampled delay by ``factor`` with
              probability ``rate``;
            * ``"link-down"`` — drop *every* matching message inside the
              window (timed link churn);
            * ``"crash"`` — crash ``node`` at ``start``; recover it at
              ``end`` (``None`` = never: a permanent fail-stop).
        rate: per-message probability for the stochastic kinds.
        factor: delay multiplier for ``kind="delay"``.
        start: window start in ms (for ``crash``: the crash time).
        end: window end in ms, exclusive (``None`` = open / never; for
            ``crash``: the recovery time).
        node: crash target (``crash`` only).
        src: restrict to messages from these sources (``None`` = all).
        dst: restrict to messages to these destinations (``None`` = all).
    """

    kind: str
    rate: float = 0.0
    factor: float = 1.0
    start: float = 0.0
    end: float | None = None
    node: int | None = None
    src: list[int] | None = None
    dst: list[int] | None = None

    def validate(self, n: int | None = None) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; available: {list(FAULT_KINDS)}"
            )
        check_finite(f"{self.kind!r} fault rate", self.rate)
        if self.rate > 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate} for {self.kind!r}"
            )
        check_finite("delay fault factor", self.factor, minimum=1.0)
        check_window("fault window", self.start, self.end)
        if self.node is not None:
            check_finite("fault node", self.node, integer=True)
        if self.kind == "crash":
            if self.node is None:
                raise ConfigurationError("crash fault requires a target node")
            if n is not None and self.node >= n:
                raise ConfigurationError(
                    f"crash fault targets node {self.node}, but n={n}"
                )
        elif self.kind in ("loss", "duplicate", "corrupt", "delay") and self.rate == 0.0:
            raise ConfigurationError(f"{self.kind!r} fault with rate=0 has no effect")
        for label, nodes in (("src", self.src), ("dst", self.dst)):
            for node in () if nodes is None else check_list(f"fault {label}", nodes):
                check_finite(f"fault {label} node", node, integer=True)
                if n is not None and node >= n:
                    raise ConfigurationError(
                        f"fault {label} scope names node {node}, but n={n}"
                    )

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSpec":
        """One fault clause of a loaded document; unknown keys are rejected."""
        if isinstance(data, cls):
            return data
        data = check_mapping("fault spec", data, cls.__dataclass_fields__)
        if "kind" not in data:
            raise ConfigurationError(f"fault spec needs a 'kind', got {dict(data)!r}")
        return cls(**data)

    def in_window(self, time: float) -> bool:
        """True when ``time`` falls inside ``[start, end)``."""
        return time >= self.start and (self.end is None or time < self.end)

    def matches_link(self, source: int, dest: int) -> bool:
        """True when the spec's src/dst scope covers the given link."""
        if self.src is not None and source not in self.src:
            return False
        return self.dst is None or dest in self.dst

    def describe(self) -> str:
        """The spec as a ``--faults`` clause (a ``src``/``dst`` scope has
        no clause form and is not shown)."""
        if self.kind == "crash":
            arg = f"={self.node}"
        elif self.kind == "link-down":
            arg = ""
        else:
            factor = f"x{number_text(self.factor)}" if self.kind == "delay" else ""
            arg = f"={number_text(self.rate)}{factor}"
        return f"{self.kind}{arg}{window_text(self.start, self.end)}"


@dataclass
class FaultScheduleConfig:
    """The declarative environmental fault schedule of a run.

    An empty schedule (the default) adds zero overhead and leaves every
    existing configuration byte-identical in serialized form, so
    fingerprints of fault-free runs are unchanged across versions.

    Attributes:
        specs: the fault processes, applied in order per message.
    """

    specs: list[FaultSpec] = field(default_factory=list)

    def active(self) -> bool:
        """True when the schedule contains any fault process."""
        return bool(self.specs)

    def link_specs(self) -> list[FaultSpec]:
        """The per-message (link-level) fault processes, in schedule order."""
        return [s for s in self.specs if s.kind in LINK_FAULT_KINDS]

    def crash_specs(self) -> list[FaultSpec]:
        """The node crash/recovery processes, in schedule order."""
        return [s for s in self.specs if s.kind == "crash"]

    def requires_recovery(self) -> bool:
        """True when any crash is followed by a scheduled recovery."""
        return any(s.end is not None for s in self.crash_specs())

    def validate(self, n: int | None = None) -> None:
        for spec in self.specs:
            spec.validate(n)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultScheduleConfig":
        data = check_mapping("fault schedule", data, ("specs",))
        specs = check_list("fault schedule specs", data.get("specs", []))
        return cls(specs=[FaultSpec.from_dict(spec) for spec in specs])

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self.specs) or "<none>"


#: Arrival processes accepted by :class:`WorkloadConfig`.
ARRIVAL_PROCESSES = ("poisson", "trace")


@dataclass
class WorkloadConfig:
    """Open-loop client workload (see :mod:`repro.workload`).

    ``SimulationConfig.workload`` is ``None`` by default: no clients, no
    mempool, no extra RNG substream, and a serialized form byte-identical
    to what older versions produced — attaching a workload is strictly
    opt-in, exactly like the fault schedule.

    Attributes:
        arrival: ``"poisson"`` — each client submits requests as an
            independent Poisson process at ``rate / clients`` requests per
            second over ``duration`` ms; ``"trace"`` — requests are
            submitted at exactly the times in :attr:`trace_times`
            (assigned to clients round-robin), standing in for a recorded
            production arrival trace.
        rate: aggregate offered load across all clients, requests/second
            (Poisson arrivals only).
        clients: number of open-loop clients.  Each client draws its
            arrivals on a dedicated ``workload.{client}`` substream, so
            adding clients never perturbs another client's arrival times.
        duration: arrival window in simulated ms — clients stop submitting
            after this point, which makes the request population finite
            and the run's termination well-defined (all submitted requests
            decided).
        batch: mempool batch size — a proposer cuts at most this many
            requests into one proposal (the size trigger).
        batch_timeout: mempool batch age trigger, ms — a proposer cuts a
            partial batch once the oldest pending request has waited this
            long (until then small young backlogs ride along with the
            synthetic proposal path).
        trace_times: explicit submit times in ms for ``arrival="trace"``.
    """

    arrival: str = "poisson"
    rate: float = 100.0
    clients: int = 1
    duration: float = 1000.0
    batch: int = 64
    batch_timeout: float = 50.0
    trace_times: list[float] | None = None

    def validate(self) -> None:
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                f"available: {list(ARRIVAL_PROCESSES)}"
            )
        check_finite("workload clients", self.clients, minimum=1, integer=True)
        check_finite("workload batch size", self.batch, minimum=1, integer=True)
        check_finite("workload batch_timeout (ms)", self.batch_timeout)
        if self.arrival == "poisson":
            check_finite("workload rate (requests/s)", self.rate, strict=True)
            check_finite("workload duration (ms)", self.duration, strict=True)
        else:  # trace
            if not self.trace_times:
                raise ConfigurationError(
                    "arrival='trace' requires a non-empty trace_times list"
                )
            for time in check_list("trace_times", self.trace_times):
                check_finite("trace_times entry (ms)", time)

    def describe(self) -> str:
        if self.arrival == "trace":
            return (
                f"trace({len(self.trace_times or [])} requests, "
                f"clients={self.clients}, batch={self.batch})"
            )
        return (
            f"poisson(rate={self.rate:g}/s, clients={self.clients}, "
            f"duration={self.duration:g}ms, batch={self.batch})"
        )


@dataclass
class AttackConfig:
    """Selects and parameterizes an attack from :mod:`repro.attacks`.

    Attributes:
        name: registry name of the attacker (e.g. ``"failstop"``,
            ``"partition"``, ``"add-static"``, ``"add-adaptive"``).
        params: attacker-specific parameters, passed through verbatim.
    """

    name: str = "null"
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class SimulationConfig:
    """Complete description of one simulation run.

    Attributes:
        protocol: registry name of the BFT protocol (see
            :mod:`repro.protocols.registry`), e.g. ``"pbft"``,
            ``"hotstuff-ns"``, ``"librabft"``, ``"algorand"``, ``"async-ba"``,
            ``"add-v1"``, ``"add-v2"``, ``"add-v3"``.
        n: total number of nodes (honest + Byzantine).
        f: number of tolerated faulty nodes.  ``None`` resolves to the
            protocol's maximum resilience (``floor((n-1)/3)`` for partially
            synchronous and asynchronous protocols, ``floor((n-1)/2)`` for
            synchronous ones).
        lam: the protocol's timeout parameter lambda in milliseconds — the
            *estimated* upper bound of network delay that synchronous and
            partially-synchronous protocols are configured with (§IV).
        network: network model parameters.
        attack: optional attack scenario.
        faults: declarative environmental fault schedule (message loss,
            duplication, corruption, link churn, node crash/recovery) —
            applied by the environment, orthogonally to the attacker and
            never charged against its capabilities.  Empty by default.
        workload: optional open-loop client workload (see
            :mod:`repro.workload`): arrival process, mempool batching, and
            a throughput/latency axis on the result.  ``None`` (default)
            keeps runs workload-free and byte-identical to older versions.
        stall_timeout: liveness-watchdog window in simulated ms.  When set,
            a run in which no honest node makes progress (decision, view
            advance, or delivered message) for this long stops gracefully
            with a :class:`~repro.core.results.StallReport` instead of
            spinning to the horizon and raising.  ``None`` (default)
            disables the watchdog.
        num_decisions: how many values must be decided before the run
            terminates.  The paper uses 10 for the pipelined protocols
            (HotStuff+NS, LibraBFT) and 1 for the rest (§IV).
        seed: root random seed; every run is a deterministic function of the
            full configuration including this seed.
        max_time: simulation horizon in ms; exceeding it raises
            :class:`~repro.core.errors.LivenessTimeoutError` unless
            ``allow_horizon`` is set.
        max_events: hard cap on processed events (runaway protection).
        allow_horizon: when True, hitting ``max_time`` ends the run with
            ``terminated=False`` instead of raising; used by experiments that
            deliberately explore non-terminating regimes.
        record_trace: record a full event trace (needed by the validator
            module and the Fig. 9 view-timeline analysis).
        protocol_params: protocol-specific overrides (documented per
            protocol), passed through verbatim.
    """

    protocol: str
    n: int = 16
    f: int | None = None
    lam: float = 1000.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    faults: FaultScheduleConfig = field(default_factory=FaultScheduleConfig)
    workload: WorkloadConfig | None = None
    stall_timeout: float | None = None
    num_decisions: int = 1
    seed: int = 0
    max_time: float = 3_600_000.0
    max_events: int = 20_000_000
    allow_horizon: bool = False
    record_trace: bool = False
    protocol_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check internal consistency; raises ``ConfigurationError``."""
        check_type("protocol", self.protocol, str, "a name")
        if not self.protocol:
            raise ConfigurationError("protocol name must be non-empty")
        check_type("seed", self.seed, Integral, "an integer")
        check_type("allow_horizon", self.allow_horizon, bool, "true or false")
        check_type("record_trace", self.record_trace, bool, "true or false")
        check_type("attack name", self.attack.name, str, "a name")
        check_finite("n", self.n, minimum=1, integer=True)
        if self.f is not None:
            check_finite("f", self.f, integer=True)
            if self.f >= self.n:
                raise ConfigurationError(
                    f"f must satisfy 0 <= f < n, got f={self.f} n={self.n}"
                )
        check_finite("lambda (lam)", self.lam, strict=True)
        check_finite("num_decisions", self.num_decisions, minimum=1, integer=True)
        if self.max_time != math.inf:  # inf: no horizon, max_events still caps the run
            check_finite("max_time", self.max_time, strict=True)
        check_finite("max_events", self.max_events, minimum=1, integer=True)
        if self.stall_timeout is not None:
            check_finite("stall_timeout (ms)", self.stall_timeout, strict=True)
        check_mapping("attack params", self.attack.params)
        check_mapping("protocol_params", self.protocol_params)
        self.network.validate()
        self.faults.validate(self.n)
        if self.workload is not None:
            self.workload.validate()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, suitable for JSON.

        Fields at their benign defaults (an empty fault schedule, a disabled
        watchdog, full-fan-out dissemination) are omitted, so the serialized
        form — and therefore the ``result_fingerprint`` of fault-free runs —
        is identical to what older versions produced.
        """
        data = asdict(self)
        if not self.faults.active():
            data.pop("faults")
        if self.workload is None:
            data.pop("workload")
        elif data["workload"]["trace_times"] is None:
            data["workload"].pop("trace_times")
        if self.stall_timeout is None:
            data.pop("stall_timeout")
        network = data["network"]
        if network["dissemination"] == "full":
            network.pop("dissemination")
        if network["fanout"] == 0:
            network.pop("fanout")
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(check_mapping("config", data, cls.__dataclass_fields__))
        if "protocol" not in data:
            raise ConfigurationError(f"config needs a 'protocol', got {data!r}")

        def nested(key: str, kind: type) -> Any:
            value = data.pop(key, None)
            if value is None or isinstance(value, kind):
                return value
            return kind(**check_mapping(key, value, kind.__dataclass_fields__))

        faults = data.pop("faults", None)
        return cls(
            network=nested("network", NetworkConfig) or NetworkConfig(),
            attack=nested("attack", AttackConfig) or AttackConfig(),
            faults=(
                FaultScheduleConfig()
                if faults is None
                else FaultScheduleConfig.from_dict(faults)
            ),
            workload=nested("workload", WorkloadConfig),
            **data,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "SimulationConfig":
        """A copy with ``changes`` applied (nested keys via new objects)."""
        data = self.to_dict()
        network = data.pop("network")
        attack = data.pop("attack")
        faults = data.pop("faults", None)
        workload = data.pop("workload", None)
        network_changes = changes.pop("network", None)
        attack_changes = changes.pop("attack", None)
        faults_changes = changes.pop("faults", None)
        unset = object()
        workload_changes = changes.pop("workload", unset)
        data.update(changes)
        if isinstance(network_changes, NetworkConfig):
            network = asdict(network_changes)
        elif isinstance(network_changes, dict):
            network.update(network_changes)
        if isinstance(attack_changes, AttackConfig):
            attack = asdict(attack_changes)
        elif isinstance(attack_changes, dict):
            attack.update(attack_changes)
        if isinstance(faults_changes, FaultScheduleConfig):
            faults = asdict(faults_changes)
        elif isinstance(faults_changes, dict):
            faults = dict(faults_changes)
        elif isinstance(faults_changes, list):
            faults = {"specs": [
                asdict(s) if isinstance(s, FaultSpec) else dict(s)
                for s in faults_changes
            ]}
        if workload_changes is not unset:
            if workload_changes is None:
                workload = None
            elif isinstance(workload_changes, WorkloadConfig):
                workload = asdict(workload_changes)
            elif isinstance(workload_changes, dict):
                # Merge into the current workload (or the defaults when the
                # config had none), mirroring the network/attack semantics.
                base_workload = workload if workload is not None else asdict(
                    WorkloadConfig()
                )
                base_workload = dict(base_workload)
                base_workload.update(workload_changes)
                workload = base_workload
        merged = {**data, "network": network, "attack": attack}
        if faults is not None:
            merged["faults"] = faults
        if workload is not None:
            merged["workload"] = workload
        return SimulationConfig.from_dict(merged)
