"""Declarative attack-scenario specifications.

A :class:`ScenarioSpec` is a serializable document composing one or more
capability-gated attacker strategies (with timed activation windows) and
environmental fault-schedule clauses into a single seed-deterministic
adversary.  The same document exists in three equivalent forms:

* the **Python API** (:class:`ScenarioSpec` / :class:`AttackClause`),
* **JSON** (``to_json`` / ``from_json``, byte-identical round-trip), and
* the **compact CLI grammar** (:func:`parse_scenario_spec`), a superset of
  the ``--faults`` grammar: ``;``-separated clauses, each either a fault
  clause (``loss=0.1``, ``crash=3@1000:8000``, a fault preset name) or an
  attack clause ``attack[=key:value,...][@start:end]``::

      targeted-delay=targets:relays,factor:4
      failstop=count:2@5000
      partition=start:2000,end:12000; loss=0.05
      adaptive=action:delay,signal:critical,factor:6

  Attack parameter values follow the shared scalar rule
  (:mod:`repro.core.clauses`): int, finite float, ``true``/``false``, a
  ``+``-separated list (``targets:1+2+3``), or a bare string.
  :meth:`ScenarioSpec.describe` prints the same grammar back.

Applying a spec (:meth:`ScenarioSpec.apply`) compiles it onto an existing
:class:`~repro.core.config.SimulationConfig`: fault clauses merge into the
config's fault schedule and the attack clauses become the ``"scenario"``
composite attacker (:mod:`repro.scenarios.composite`) with the spec itself
as its parameters — so a scenario run is an ordinary run, replayable from
its config alone, and the JSON and Python forms produce fingerprint-
identical runs.

Validation (:meth:`ScenarioSpec.validate`) happens at config time, not
mid-run: unknown attacks, malformed windows, corruption demands exceeding
the budget ``f``, windowed corruption without the ``ADAPTIVE`` capability,
overlay targeting without a tree overlay, and clauses exceeding an ``allow``
capability cap are all rejected before a single event fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..attacks.base import Capability
from ..attacks.registry import get_attack, make_attacker
from ..core.clauses import scalar, split_clauses, split_pairs
from ..core.config import (
    AttackConfig,
    FaultScheduleConfig,
    FaultSpec,
    SimulationConfig,
    check_list,
    check_mapping,
    check_window,
    window_text,
)
from ..core.errors import ConfigurationError
from ..faults.spec import fault_specs

#: Objectives accepted by :func:`repro.scenarios.search.mine` and ``repro
#: mine``; kept here so the CLI's parser does not import the miner.
OBJECTIVES = ("median-latency", "stall", "first-decision", "throughput")

#: Capability names accepted by ``ScenarioSpec.allow``.
CAPABILITY_NAMES = {
    "observe": Capability.OBSERVE,
    "network": Capability.NETWORK,
    "byzantine": Capability.BYZANTINE,
    "adaptive": Capability.ADAPTIVE,
}


def _parse_allow(names: list[str]) -> Capability:
    caps = Capability.NONE
    for name in names:
        try:
            caps |= CAPABILITY_NAMES[str(name).lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown capability {name!r} in scenario allow list; "
                f"available: {sorted(CAPABILITY_NAMES)}"
            ) from None
    return caps


def capability_names(caps: Capability) -> list[str]:
    """Sorted lower-case names of the capabilities in ``caps``."""
    return sorted(name for name, flag in CAPABILITY_NAMES.items() if flag in caps)


@dataclass
class AttackClause:
    """One attacker strategy inside a scenario, with an activation window.

    Attributes:
        attack: registry name of the attacker (``repro.attacks``).
        params: attacker parameters, passed through verbatim.
        start: activation time in ms (0 = active from the start).
        end: deactivation time in ms, exclusive (``None`` = never).
    """

    attack: str
    params: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: float | None = None

    in_window = FaultSpec.in_window  # the one [start, end) predicate

    def attacker_class(self):
        """The clause's attacker class (raises on unknown names)."""
        return get_attack(self.attack)

    def declared_capabilities(self) -> Capability:
        """The capabilities this clause's attacker will hold.

        Instantiates the attacker (without binding it) so instance-level
        declarations — e.g. ``targeted-delay`` adding ``OBSERVE`` when a
        type filter is configured — are honoured.
        """
        return self.attacker_class()(self.params).capabilities

    def validate(self, config: SimulationConfig, f: int) -> None:
        check_window(f"attack clause {self.attack!r} window", self.start, self.end)
        cls = self.attacker_class()
        try:
            caps = self.declared_capabilities()
            demand = cls.corruption_demand(self.params, f)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"attack clause {self.attack!r}: bad parameters {self.params}: {error}"
            ) from None
        if demand > 0 and self.start > 0 and Capability.ADAPTIVE not in caps:
            raise ConfigurationError(
                f"attack clause {self.attack!r} corrupts nodes but activates "
                f"at t={self.start:g} ms without the ADAPTIVE capability; "
                "corruption after time zero is static-attacker-illegal"
            )
        if (
            self.params.get("targets") == "relays"
            and config.network.dissemination != "tree"
        ):
            raise ConfigurationError(
                f"attack clause {self.attack!r} targets the dissemination "
                "overlay's relays, but dissemination="
                f"{config.network.dissemination!r} has no static relay set; "
                "overlay targeting requires dissemination='tree'"
            )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form; benign defaults are omitted."""
        data: dict[str, Any] = {"attack": self.attack}
        if self.params:
            data["params"] = self.params
        if self.start != 0.0:
            data["start"] = self.start
        if self.end is not None:
            data["end"] = self.end
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "AttackClause":
        if isinstance(data, cls):
            return data
        data = check_mapping("attack clause", data, cls.__dataclass_fields__)
        if "attack" not in data:
            raise ConfigurationError("attack clause needs an 'attack' name")
        start, end = data.get("start", 0.0), data.get("end")
        check_window("attack clause", start, end)
        return cls(
            attack=data["attack"],
            params=dict(check_mapping("attack clause params", data.get("params", {}))),
            start=float(start),
            end=None if end is None else float(end),
        )

    def describe(self) -> str:
        """The clause in the ``--scenario`` grammar."""
        args = ",".join(f"{k}:{_value_text(v)}" for k, v in self.params.items())
        return f"{self.attack}{'=' + args if args else ''}{window_text(self.start, self.end)}"


def _value_text(value: Any) -> str:
    """A parameter value as text the scalar rule reads back unchanged."""
    if isinstance(value, list):
        return "+".join(map(_value_text, value))
    return repr(value).replace("e+", "e") if isinstance(value, float) else str(value)


@dataclass
class ScenarioSpec:
    """A declarative, serializable attack scenario.

    Attributes:
        name: human-readable scenario name (carried into artifacts).
        attacks: attacker clauses, applied in order per message.
        faults: environmental fault clauses merged into the run's fault
            schedule (never charged against the attacker).
        allow: optional capability cap — lower-case capability names; every
            clause's declared capabilities must stay within it.  ``None``
            means uncapped.
    """

    name: str = "scenario"
    attacks: list[AttackClause] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    allow: list[str] | None = None

    # -- validation ----------------------------------------------------------

    def capabilities(self) -> Capability:
        """Union of the declared capabilities of every attack clause."""
        caps = Capability.NONE
        for clause in self.attacks:
            caps |= clause.declared_capabilities()
        return caps

    def corruption_demand(self, f: int) -> int:
        """Total corruption-budget demand across all attack clauses."""
        return sum(
            clause.attacker_class().corruption_demand(clause.params, f)
            for clause in self.attacks
        )

    def resolve_f(self, config: SimulationConfig) -> int:
        """The run's corruption budget ``f`` (protocol maximum if unset)."""
        if config.f is not None:
            return config.f
        from ..protocols.registry import get_protocol

        return get_protocol(config.protocol).max_resilience(config.n)

    def validate(self, config: SimulationConfig) -> None:
        """Reject capability violations and budget overruns at config time.

        Raises:
            ConfigurationError: unknown attack, malformed window, windowed
                corruption without ``ADAPTIVE``, overlay targeting without a
                tree overlay, total corruption demand exceeding ``f``, or a
                clause exceeding the ``allow`` capability cap.
        """
        f = self.resolve_f(config)
        cap = _parse_allow(self.allow) if self.allow is not None else None
        for clause in self.attacks:
            clause.validate(config, f)
            if cap is not None:
                excess = clause.declared_capabilities() & ~cap
                if excess:
                    raise ConfigurationError(
                        f"attack clause {clause.attack!r} needs capabilities "
                        f"{capability_names(excess)} outside the scenario's "
                        f"allow list {sorted(self.allow or [])}"
                    )
        demand = self.corruption_demand(f)
        if demand > f:
            raise ConfigurationError(
                f"scenario {self.name!r} demands {demand} corruptions in "
                f"total but the budget is f={f}"
            )
        for spec in self.faults:
            spec.validate(config.n)

    # -- application ---------------------------------------------------------

    def apply(self, config: SimulationConfig) -> SimulationConfig:
        """Compile this scenario onto ``config``.

        Fault clauses are appended to the config's fault schedule; attack
        clauses become the ``"scenario"`` composite attacker carrying this
        spec as its parameters.  The result is an ordinary configuration:
        serializable, replayable, fingerprint-stable.

        Raises:
            ConfigurationError: if ``config`` already carries a non-null
                attack (put it in the scenario instead), or on any
                validation failure.
        """
        self.validate(config)
        if config.attack.name != "null":
            raise ConfigurationError(
                f"cannot apply scenario {self.name!r} on top of attack "
                f"{config.attack.name!r}; add it to the scenario as a clause"
            )
        changes: dict[str, Any] = {}
        if self.attacks:
            changes["attack"] = AttackConfig(name="scenario", params=self.to_dict())
        if self.faults:
            changes["faults"] = FaultScheduleConfig(
                specs=list(config.faults.specs) + [FaultSpec(**_spec_dict(s)) for s in self.faults]
            )
        if not changes:
            return config
        return config.replace(**changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict form; empty sections are omitted."""
        data: dict[str, Any] = {"name": self.name}
        if self.attacks:
            data["attacks"] = [clause.to_dict() for clause in self.attacks]
        if self.faults:
            data["faults"] = [_fault_dict(spec) for spec in self.faults]
        if self.allow is not None:
            data["allow"] = sorted(str(name).lower() for name in self.allow)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        data = check_mapping("scenario", data, cls.__dataclass_fields__)
        allow = data.get("allow")
        return cls(
            name=str(data.get("name", "scenario")),
            attacks=[
                AttackClause.from_dict(clause)
                for clause in check_list("scenario attacks", data.get("attacks", []))
            ],
            faults=[
                FaultSpec.from_dict(spec)
                for spec in check_list("scenario faults", data.get("faults", []))
            ],
            allow=(
                None if allow is None
                else [str(n) for n in check_list("scenario allow", allow)]
            ),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        parts = [clause.describe() for clause in self.attacks]
        parts.extend(spec.describe() for spec in self.faults)
        return f"{self.name}: " + ("; ".join(parts) or "<empty>")


def _spec_dict(spec: FaultSpec) -> dict[str, Any]:
    from dataclasses import asdict

    return asdict(spec)


def _fault_dict(spec: FaultSpec) -> dict[str, Any]:
    """Canonical (default-free) dict form of one fault spec."""
    data = _spec_dict(spec)
    defaults = FaultSpec(kind=spec.kind)
    return {
        key: value
        for key, value in data.items()
        if key == "kind" or value != getattr(defaults, key)
    }


# ---------------------------------------------------------------------------
# Compact CLI grammar
# ---------------------------------------------------------------------------


def parse_scenario_spec(text: str, name: str = "cli-scenario") -> ScenarioSpec:
    """Parse a ``--scenario`` string into a :class:`ScenarioSpec`.

    Each clause (:mod:`repro.core.clauses`) is an attack clause
    ``attack[=key:value,...][@start:end]`` when its head names a registered
    attack, otherwise a ``--faults`` clause (a fault kind or preset).

    Raises:
        ConfigurationError: on any grammar violation, with the offending
            clause named.
    """
    spec = ScenarioSpec(name=name)
    for clause in split_clauses(text, "--scenario"):
        faults = fault_specs(clause)
        if faults is not None:
            spec.faults.extend(faults)
            continue
        pairs = {} if clause.arg is None else split_pairs(clause.arg, clause.where)
        params = {key: scalar(value, f"{clause.where}: {key}") for key, value in pairs.items()}
        spec.attacks.append(AttackClause(clause.head, params, clause.start, clause.end))
    return spec


def load_scenario(source: str) -> ScenarioSpec:
    """Resolve a ``--scenario`` argument into a spec.

    In order: a registered scenario preset name, a path to a JSON spec
    file (recognised by an existing file or a ``.json`` suffix), or the
    compact grammar.  Every attack clause's attacker is built once, so a
    parameter of the wrong type is an error naming the flag and the clause.
    """
    import os

    from .presets import available_scenarios, get_scenario

    if source in available_scenarios():
        return get_scenario(source)
    if source.endswith(".json") or os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as handle:
                spec = ScenarioSpec.from_json(handle.read())
        except OSError as error:
            raise ConfigurationError(
                f"cannot read scenario file {source!r}: {error}"
            ) from None
    else:
        spec = parse_scenario_spec(source)
    for clause in spec.attacks:
        where = f"--scenario clause {clause.describe()!r}"
        make_attacker(AttackConfig(clause.attack, clause.params), where)
    return spec
