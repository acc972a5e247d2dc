"""Worst-case mining: deterministic search over attack-scenario specs.

:func:`mine` runs a seeded evolve loop over :class:`ScenarioSpec` documents
against a base configuration, scoring each candidate by an adversarial
objective and keeping the worst offenders as parents for the next
generation.  Every run inside a generation is an independent simulation, so
the whole generation is flattened into one :class:`~repro.parallel`
batch — mining scales across cores exactly like a sweep.

Design points:

* **Deterministic.** Candidate generation and mutation draw only from
  ``random.Random(search_seed)``; evaluation seeds are the base seed plus
  the repetition index; selection ties break on the spec's canonical JSON.
  The same inputs always mine the same winner.
* **Graceful degradation.** A failed run (:class:`RunFailure` — worker
  crash, timeout, simulation error) or a stalled/unterminated run never
  aborts the harness: it is recorded in the lineage and, for the latency
  objective, scores the spec *worst-case-unfit* (a spec that kills the run
  outright is not a latency worst case).  The ``stall`` objective instead
  counts stalls as the score.  Every evaluation runs with the liveness
  watchdog armed and ``allow_horizon`` set, so hostile specs degrade into
  reports rather than exceptions.
* **Replayable artifact.** The result serializes the base configuration,
  the search parameters, the null-attacker baseline, the full lineage, and
  the winner with its per-seed ``result_fingerprint``s.
  :func:`replay_winner` reconstructs and re-runs the winning configuration
  from the artifact alone — on any machine, in any process — and must
  reproduce those fingerprints byte-identically.

Objectives:

* ``"median-latency"`` — median (across repetitions) of the run's
  per-decision decision latency; stalls/failures are unfit.
* ``"stall"`` — fraction of repetitions the liveness watchdog stopped (or
  that hit the horizon); ties break on latency.
* ``"first-decision"`` — median time until the first decision (client
  starvation); runs that never decide score their full duration.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Callable

import random

from ..core.config import SimulationConfig, check_list, check_mapping, check_type
from ..core.errors import ConfigurationError
from ..core.results import (
    RunFailure,
    SimulationResult,
    result_fingerprint,
)
from ..core.runner import run_batch, run_simulation
from .spec import OBJECTIVES, AttackClause, ScenarioSpec

#: Artifact schema identifier.
ARTIFACT_KIND = "repro-mining-artifact"
ARTIFACT_VERSION = 1

#: Liveness-watchdog window used for evaluation runs when the base config
#: does not set one, in multiples of the protocol's lambda.
DEFAULT_STALL_LAMBDAS = 30.0


@dataclass
class EvaluatedSpec:
    """One candidate's evaluation record (a lineage entry).

    ``score`` is ``None`` when the spec was scored worst-case-unfit; the
    reason is then in ``unfit_reason``.
    """

    spec: dict[str, Any]
    generation: int
    score: float | None = None
    median_latency: float | None = None
    first_decision: float | None = None
    stalled: int = 0
    failures: int = 0
    unfit_reason: str | None = None
    parent: str | None = None
    fingerprints: list[str | None] = field(default_factory=list)

    @property
    def fit(self) -> bool:
        return self.score is not None

    def spec_json(self) -> str:
        return json.dumps(self.spec, sort_keys=True)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec,
            "generation": self.generation,
            "score": self.score,
            "median_latency": self.median_latency,
            "first_decision": self.first_decision,
            "stalled": self.stalled,
            "failures": self.failures,
            "unfit_reason": self.unfit_reason,
            "parent": self.parent,
            "fingerprints": self.fingerprints,
        }


@dataclass
class MiningReport:
    """The full outcome of one :func:`mine` run."""

    objective: str
    base_config: SimulationConfig
    search_seed: int
    generations: int
    population: int
    reps: int
    seeds: list[int]
    baseline_latency: float
    baseline_fingerprints: list[str]
    lineage: list[EvaluatedSpec]
    winner: EvaluatedSpec | None

    @property
    def ratio_vs_baseline(self) -> float | None:
        if (
            self.winner is None
            or self.winner.median_latency is None
            or self.baseline_latency <= 0
        ):
            return None
        return self.winner.median_latency / self.baseline_latency

    def to_dict(self) -> dict[str, Any]:
        winner = None
        if self.winner is not None:
            winner = dict(self.winner.to_dict())
            winner["ratio_vs_baseline"] = self.ratio_vs_baseline
        return {
            "kind": ARTIFACT_KIND,
            "version": ARTIFACT_VERSION,
            "objective": self.objective,
            "base_config": self.base_config.to_dict(),
            "search_seed": self.search_seed,
            "generations": self.generations,
            "population": self.population,
            "reps": self.reps,
            "seeds": self.seeds,
            "baseline": {
                "median_latency": self.baseline_latency,
                "fingerprints": self.baseline_fingerprints,
            },
            "winner": winner,
            "lineage": [entry.to_dict() for entry in self.lineage],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> str:
        evaluated = len(self.lineage)
        unfit = sum(1 for entry in self.lineage if not entry.fit)
        if self.winner is None:
            return (
                f"mine[{self.objective}]: no fit spec among {evaluated} "
                f"candidates ({unfit} unfit)"
            )
        ratio = self.ratio_vs_baseline
        ratio_s = f" ({ratio:.2f}x baseline)" if ratio is not None else ""
        return (
            f"mine[{self.objective}]: {evaluated} specs evaluated "
            f"({unfit} unfit), winner score={self.winner.score:.1f}{ratio_s}: "
            f"{ScenarioSpec.from_dict(self.winner.spec).describe()}"
        )


# ---------------------------------------------------------------------------
# Candidate generation and mutation
# ---------------------------------------------------------------------------

_FACTORS = (2.0, 3.0, 4.0, 6.0, 8.0)
_ADAPTIVE_FACTORS = (3.0, 6.0, 10.0)
_SIGNALS = ("critical", "stragglers", "busiest")


def _clause_templates(
    rng: random.Random, base: SimulationConfig, f: int, remaining: int
) -> list[AttackClause]:
    """Candidate clause factories, each respecting the remaining budget."""
    lam = base.lam
    n = base.n
    tree = base.network.dissemination == "tree"
    options: list[Callable[[], AttackClause]] = []

    def delay_clause() -> AttackClause:
        params: dict[str, Any] = {"factor": rng.choice(_FACTORS)}
        roll = rng.random()
        if tree and roll < 0.5:
            params["targets"] = "relays"
        elif roll < 0.75:
            k = rng.randint(1, max(1, n // 2))
            params["targets"] = sorted(rng.sample(range(n), k))
        if rng.random() < 0.3:
            params["extra_delay"] = rng.choice((0.5, 1.0, 2.0)) * lam
        return AttackClause(attack="targeted-delay", params=params)

    options.append(delay_clause)

    def partition_clause() -> AttackClause:
        start = rng.choice((0.0, lam, 2 * lam))
        duration = rng.choice((5.0, 10.0, 20.0)) * lam
        return AttackClause(
            attack="partition",
            params={
                "start": start,
                "end": start + duration,
                "mode": rng.choice(("drop", "delay")),
            },
        )

    options.append(partition_clause)

    def adaptive_clause() -> AttackClause:
        return AttackClause(
            attack="adaptive",
            params={
                "action": "delay",
                "signal": rng.choice(_SIGNALS),
                "k": rng.randint(1, 3),
                "factor": rng.choice(_ADAPTIVE_FACTORS),
                "period": rng.choice((0.5, 1.0)) * lam,
            },
        )

    options.append(adaptive_clause)

    if remaining >= 1:

        def failstop_clause() -> AttackClause:
            count = rng.randint(1, remaining)
            at = rng.choice((0.0, lam))
            params: dict[str, Any] = {"count": count}
            if at > 0:
                params["at"] = at
            return AttackClause(attack="failstop", params=params)

        options.append(failstop_clause)

        if base.protocol == "pbft":

            def equivocation_clause() -> AttackClause:
                return AttackClause(attack="pbft-equivocation", params={})

            options.append(equivocation_clause)

    return [rng.choice(options)()]


def _random_spec(
    rng: random.Random, base: SimulationConfig, f: int, name: str
) -> ScenarioSpec:
    """One random candidate: 1-2 clauses, budget- and rule-respecting."""
    spec = ScenarioSpec(name=name)
    remaining = f
    for _ in range(rng.choice((1, 1, 2))):
        for clause in _clause_templates(rng, base, f, remaining):
            demand = clause.attacker_class().corruption_demand(clause.params, f)
            if demand > remaining:
                continue
            remaining -= demand
            spec.attacks.append(clause)
    if rng.random() < 0.25:
        from ..core.config import FaultSpec

        spec.faults.append(
            FaultSpec(kind="loss", rate=rng.choice((0.02, 0.05, 0.1)))
        )
    if not spec.attacks and not spec.faults:
        spec.attacks.append(
            AttackClause(
                attack="targeted-delay", params={"factor": rng.choice(_FACTORS)}
            )
        )
    return spec


def _mutate_spec(
    rng: random.Random, parent: ScenarioSpec, base: SimulationConfig, f: int,
    name: str, perturb_only: bool = False,
) -> ScenarioSpec:
    """A mutated copy of ``parent`` (perturb, add, or drop one clause).

    ``perturb_only`` (refine mode) keeps the parent's clause structure and
    targeting intact and only perturbs numeric parameters — the search then
    optimizes the *parameters* of a hand-written scenario shape.
    """
    spec = ScenarioSpec.from_dict(parent.to_dict())
    spec.name = name
    if perturb_only:
        op = "perturb"
    else:
        ops = ["perturb", "add"]
        if len(spec.attacks) > 1:
            ops.append("drop")
        op = rng.choice(ops)
    if op == "drop" and spec.attacks:
        spec.attacks.pop(rng.randrange(len(spec.attacks)))
        return spec
    if op == "add":
        used = spec.corruption_demand(f)
        for clause in _clause_templates(rng, base, f, max(0, f - used)):
            demand = clause.attacker_class().corruption_demand(clause.params, f)
            if used + demand <= f:
                spec.attacks.append(clause)
        return spec
    if spec.attacks:
        clause = rng.choice(spec.attacks)
        params = clause.params
        numeric = [k for k, v in params.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if numeric:
            key = rng.choice(numeric)
            value = params[key] * rng.choice((0.5, 1.5, 2.0))
            if key == "count":
                params[key] = max(1, min(f, int(value)))
            else:
                params[key] = type(params[key])(value)
        elif rng.random() < 0.5 and clause.end is None:
            clause.end = clause.start + rng.choice((10.0, 20.0)) * base.lam
    return spec


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval_base(base: SimulationConfig) -> SimulationConfig:
    """The hardened evaluation configuration: watchdog on, horizon soft."""
    stall = base.stall_timeout
    if stall is None:
        stall = DEFAULT_STALL_LAMBDAS * base.lam
    return base.replace(stall_timeout=stall, allow_horizon=True)


def _first_decision_time(result: SimulationResult) -> float:
    if result.decisions:
        return min(decision.time for decision in result.decisions)
    return result.latency


def _score_entries(
    record: EvaluatedSpec,
    entries: list[SimulationResult | RunFailure],
    objective: str,
) -> None:
    """Fill ``record`` from the spec's repetition results (in place)."""
    failures = [e for e in entries if isinstance(e, RunFailure)]
    results = [e for e in entries if isinstance(e, SimulationResult)]
    record.failures = len(failures)
    record.stalled = sum(1 for r in results if r.stalled or not r.terminated)
    record.fingerprints = [
        None if isinstance(e, RunFailure) else result_fingerprint(e)
        for e in entries
    ]
    if failures:
        record.unfit_reason = f"{len(failures)} failed run(s): " + failures[0].summary()
        return
    latencies = [r.latency_per_decision for r in results]
    record.median_latency = statistics.median(latencies) if latencies else None
    record.first_decision = (
        statistics.median(_first_decision_time(r) for r in results)
        if results
        else None
    )
    if objective == "median-latency":
        if record.stalled:
            record.unfit_reason = (
                f"{record.stalled} stalled/unterminated run(s); not a "
                "latency worst case"
            )
            return
        record.score = record.median_latency
    elif objective == "stall":
        # Stalls ARE the objective; latency breaks ties among equal rates.
        rate = record.stalled / len(results) if results else 0.0
        tie = (record.median_latency or 0.0) / 1e9
        record.score = rate + min(tie, 0.999e-3)
    elif objective == "throughput":
        # The adversary MINIMIZES committed tx/s (worst case = slowest
        # drain), so the maximized score is its negation.  Requires a
        # workload on the base config; stalled runs are legitimate here —
        # an attack that stops batches from committing is the worst case.
        rates = [
            r.workload.committed_tx_s for r in results
            if r.workload is not None
        ]
        if not rates:
            record.unfit_reason = (
                "no workload metrics in any run; the throughput objective "
                "requires a base config with workload="
            )
            return
        record.score = -statistics.median(rates)
    else:  # first-decision (client starvation)
        record.score = record.first_decision


def mine(
    base: SimulationConfig,
    *,
    objective: str = "median-latency",
    generations: int = 3,
    population: int = 8,
    reps: int = 1,
    elites: int = 2,
    search_seed: int = 0,
    jobs: int | None = 1,
    timeout: float | None = None,
    retries: int = 1,
    seed_specs: list[ScenarioSpec] | None = None,
    refine: bool = False,
    log: Callable[[str], None] | None = None,
) -> MiningReport:
    """Search for the scenario that maximizes ``objective`` against ``base``.

    Args:
        base: the victim configuration (protocol, n, network, seed).  Must
            carry the null attack; candidates are applied on top.
        objective: one of :data:`OBJECTIVES`.
        generations: evolve iterations (>= 1).
        population: candidate specs per generation.
        reps: evaluation repetitions per spec (seeds ``base.seed + i``).
        elites: top specs carried over unchanged as parents.
        search_seed: RNG seed for candidate generation and mutation.
        jobs: worker processes per generation batch (``1`` = in-process,
            ``None``/``0`` = one per CPU).
        timeout: wall-clock seconds allowed per run (hostile specs can be
            slow hosts even when simulated time is bounded).
        retries: retries for crashed/hung workers.
        seed_specs: optional hand-written specs injected into generation 0.
        refine: parameter-refinement mode — every candidate is a numeric
            perturbation of a seed spec (or of an elite descended from one);
            clause structure and targeting never change and no fresh specs
            are drawn.  Requires ``seed_specs``.  Use it to optimize the
            parameters of a scenario shape you chose deliberately (e.g. a
            relay-only chokehold that unconstrained search would abandon
            for a blunter global attack).
        log: optional progress sink (one line per generation).

    Returns:
        A :class:`MiningReport`; ``report.winner`` is ``None`` only when
        every candidate was unfit.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown mining objective {objective!r}; available: {list(OBJECTIVES)}"
        )
    if generations < 1 or population < 1 or reps < 1:
        raise ConfigurationError(
            "mine() needs generations, population, and reps all >= 1"
        )
    if base.attack.name != "null":
        raise ConfigurationError(
            "mine() needs a null-attack base configuration; candidates "
            "supply the adversary"
        )
    if refine and not seed_specs:
        raise ConfigurationError(
            "refine mode perturbs seed specs; pass at least one via "
            "seed_specs (CLI: --scenario)"
        )
    rng = random.Random(search_seed)
    eval_base = _eval_base(base)
    dummy = ScenarioSpec()
    f = dummy.resolve_f(base)
    seeds = [base.seed + i for i in range(reps)]

    # Failures are recorded, never raised: the search degrades gracefully.
    batch_options = dict(
        jobs=jobs, timeout=timeout, retries=retries, on_error="record"
    )
    baseline_entries = run_batch(
        [eval_base.replace(seed=s) for s in seeds], **batch_options
    )
    baseline_results = [
        e for e in baseline_entries if isinstance(e, SimulationResult)
    ]
    if not baseline_results:
        raise ConfigurationError(
            "baseline runs all failed; cannot score candidates: "
            + baseline_entries[0].summary()
        )
    baseline_latency = statistics.median(
        r.latency_per_decision for r in baseline_results
    )
    baseline_fps = [result_fingerprint(r) for r in baseline_results]

    lineage: list[EvaluatedSpec] = []
    parents: list[EvaluatedSpec] = []
    counter = 0

    for generation in range(generations):
        # Elites persist as parents across generations without being
        # re-evaluated (scores are deterministic), so every population slot
        # goes to a new candidate: mutations of the elites, or fresh draws.
        candidates: list[tuple[ScenarioSpec, str | None]] = []
        if generation == 0:
            for spec in seed_specs or []:
                candidates.append((spec, None))
        while len(candidates) < population:
            counter += 1
            name = f"mined-{counter:03d}"
            if refine:
                if parents and rng.random() < 0.7:
                    source = rng.choice(parents[: max(elites, 1)])
                    parent_spec = ScenarioSpec.from_dict(source.spec)
                    parent_name: str | None = source.spec["name"]
                else:
                    seed_spec = rng.choice(seed_specs)
                    parent_spec = ScenarioSpec.from_dict(seed_spec.to_dict())
                    parent_name = seed_spec.name
                spec = _mutate_spec(
                    rng, parent_spec, base, f, name, perturb_only=True
                )
                candidates.append((spec, parent_name))
            elif generation > 0 and parents and rng.random() < 0.7:
                parent = rng.choice(parents[: max(elites, 1)])
                spec = _mutate_spec(
                    rng, ScenarioSpec.from_dict(parent.spec), base, f, name
                )
                candidates.append((spec, parent.spec["name"]))
            else:
                candidates.append((_random_spec(rng, base, f, name), None))

        records: list[EvaluatedSpec] = []
        batch: list[SimulationConfig] = []
        batch_owner: list[EvaluatedSpec] = []
        for spec, parent_name in candidates:
            record = EvaluatedSpec(
                spec=spec.to_dict(), generation=generation, parent=parent_name
            )
            records.append(record)
            try:
                applied = spec.apply(eval_base)
            except ConfigurationError as error:
                record.unfit_reason = f"invalid spec: {error}"
                continue
            for seed in seeds:
                batch.append(applied.replace(seed=seed))
                batch_owner.append(record)

        entries = run_batch(batch, **batch_options)
        by_record: dict[int, list[SimulationResult | RunFailure]] = {}
        for owner, entry in zip(batch_owner, entries):
            by_record.setdefault(id(owner), []).append(entry)
        for record in records:
            if record.unfit_reason is None:
                _score_entries(record, by_record.get(id(record), []), objective)
        lineage.extend(records)

        fit = [r for r in lineage if r.fit]
        fit.sort(key=lambda r: (-(r.score or 0.0), r.spec_json()))
        parents = fit
        if log is not None:
            best = fit[0] if fit else None
            best_s = (
                f"best score={best.score:.1f} ({best.spec['name']})"
                if best
                else "no fit spec yet"
            )
            unfit = sum(1 for r in records if not r.fit)
            log(
                f"generation {generation}: {len(records)} specs "
                f"({unfit} unfit), {best_s}"
            )

    winner = parents[0] if parents else None
    return MiningReport(
        objective=objective,
        base_config=eval_base,
        search_seed=search_seed,
        generations=generations,
        population=population,
        reps=reps,
        seeds=seeds,
        baseline_latency=baseline_latency,
        baseline_fingerprints=baseline_fps,
        lineage=lineage,
        winner=winner,
    )


# ---------------------------------------------------------------------------
# Artifact replay
# ---------------------------------------------------------------------------


def load_artifact(path: str) -> dict[str, Any]:
    """Read and schema-check a mining artifact written by ``repro mine``:
    every key :func:`check_artifact`, :func:`winner_config` and
    :func:`replay_winner` read is checked here, so a malformed file is one
    ``ConfigurationError`` naming the path and the key."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind != ARTIFACT_KIND:
        raise ConfigurationError(f"{path!r} is not a mining artifact (kind={kind!r})")
    try:
        check_mapping("base_config", data.get("base_config"))
        check_list("seeds", data.get("seeds"))
        baseline = check_mapping("baseline", data.get("baseline"))
        check_type("baseline.median_latency", baseline.get("median_latency"), Real, "a number")
        check_list("baseline.fingerprints", baseline.get("fingerprints"))
        if data.get("winner"):
            check_mapping("winner.spec", check_mapping("winner", data["winner"]).get("spec"))
    except ConfigurationError as error:
        raise ConfigurationError(f"{path!r}: {error}") from None
    return data


def winner_config(artifact: dict[str, Any], seed_index: int = 0) -> SimulationConfig:
    """The full run configuration of the artifact's winner at one seed."""
    winner = artifact.get("winner")
    if not winner:
        raise ConfigurationError("artifact has no winner to replay")
    base = SimulationConfig.from_dict(artifact["base_config"])
    spec = ScenarioSpec.from_dict(winner["spec"])
    seeds = artifact["seeds"]
    return spec.apply(base).replace(seed=seeds[seed_index])


def replay_winner(
    artifact: dict[str, Any], seed_index: int = 0
) -> tuple[SimulationResult, str, str]:
    """Re-run the winner at one seed; returns (result, fingerprint, expected).

    The two fingerprints must match byte-for-byte on any machine — the
    replayability contract the tests and docs lean on.
    """
    config = winner_config(artifact, seed_index)
    result = run_simulation(config)
    expected = artifact["winner"]["fingerprints"][seed_index]
    return result, result_fingerprint(result), expected


# ---------------------------------------------------------------------------
# Artifact regression checking (``repro mine --check``)
# ---------------------------------------------------------------------------


@dataclass
class ArtifactCheck:
    """Outcome of re-scoring a committed mining artifact.

    A committed artifact is a worst-case *claim*: "this scenario costs the
    protocol ``stored_ratio``x its baseline latency".  The check re-runs the
    stored baseline and winner at the artifact's own seeds and compares —
    so a protocol or engine change that silently weakens (or strengthens)
    a mined attack shows up in CI instead of aging in the repo.

    Fingerprint mismatches and drift are reported separately: a fingerprint
    mismatch means the run itself changed (the determinism contract moved).
    The ratio is computed from latencies inside the fingerprints, so
    matching runs give the stored ratio back bit for bit, and any drift
    means the stored claim was edited: the check is exact.
    """

    path: str
    objective: str
    stored_baseline: float
    fresh_baseline: float
    stored_winner: float | None
    fresh_winner: float | None
    stored_ratio: float | None
    fresh_ratio: float | None
    baseline_fingerprints_ok: bool
    winner_fingerprints_ok: bool
    failures: int = 0

    @property
    def drift(self) -> float | None:
        """Relative attack-ratio change, fresh vs stored (signed)."""
        if not self.stored_ratio or self.fresh_ratio is None:
            return None
        return self.fresh_ratio / self.stored_ratio - 1.0

    @property
    def ok(self) -> bool:
        """True when every run reproduces and gives the stored ratio."""
        return (
            not self.failures
            and self.baseline_fingerprints_ok
            and self.winner_fingerprints_ok
            and self.drift == 0.0
        )

    def summary(self) -> str:
        if self.drift is None:
            return f"check[{self.path}]: FAILED ({self.failures} failed runs)"
        verdict = "OK" if self.ok else "DRIFT"
        fps = "match" if (
            self.baseline_fingerprints_ok and self.winner_fingerprints_ok
        ) else "MISMATCH"
        return (
            f"check[{self.path}]: {verdict} — stored "
            f"{self.stored_ratio:.2f}x, fresh {self.fresh_ratio:.2f}x "
            f"({self.drift:+.1%}), "
            f"fingerprints {fps}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "objective": self.objective,
            "stored_baseline": self.stored_baseline,
            "fresh_baseline": self.fresh_baseline,
            "stored_winner": self.stored_winner,
            "fresh_winner": self.fresh_winner,
            "stored_ratio": self.stored_ratio,
            "fresh_ratio": self.fresh_ratio,
            "drift": self.drift,
            "baseline_fingerprints_ok": self.baseline_fingerprints_ok,
            "winner_fingerprints_ok": self.winner_fingerprints_ok,
            "failures": self.failures,
            "ok": self.ok,
        }


def check_artifact(
    path: str,
    *,
    jobs: int | None = 1,
    timeout: float | None = None,
    retries: int = 1,
) -> ArtifactCheck:
    """Re-score ``path``'s winner against its stored baseline.

    Re-runs the baseline configuration and the winning scenario at every
    seed the artifact recorded, then compares the fresh attack ratio
    (winner median latency/decision over baseline median) against the
    stored one; any drift fails the check.
    """
    artifact = load_artifact(path)
    winner = artifact.get("winner")
    if not winner:
        raise ConfigurationError(f"{path!r} has no winner to check")
    base = SimulationConfig.from_dict(artifact["base_config"])
    seeds = artifact["seeds"]

    batch_options = dict(
        jobs=jobs, timeout=timeout, retries=retries, on_error="record"
    )
    baseline_entries = run_batch(
        [base.replace(seed=s) for s in seeds], **batch_options
    )
    winner_entries = run_batch(
        [winner_config(artifact, i) for i in range(len(seeds))],
        **batch_options,
    )
    failures = sum(
        1 for e in baseline_entries + winner_entries if isinstance(e, RunFailure)
    )
    baseline_results = [
        e for e in baseline_entries if isinstance(e, SimulationResult)
    ]
    winner_results = [
        e for e in winner_entries if isinstance(e, SimulationResult)
    ]

    fresh_baseline = (
        statistics.median(r.latency_per_decision for r in baseline_results)
        if baseline_results else float("nan")
    )
    fresh_winner = (
        statistics.median(r.latency_per_decision for r in winner_results)
        if winner_results else None
    )
    stored_baseline = float(artifact["baseline"]["median_latency"])
    stored_winner = winner.get("median_latency")
    stored_ratio = winner.get("ratio_vs_baseline")
    if stored_ratio is None and stored_winner and stored_baseline > 0:
        stored_ratio = stored_winner / stored_baseline
    fresh_ratio = (
        fresh_winner / fresh_baseline
        if fresh_winner is not None and fresh_baseline > 0
        else None
    )

    stored_base_fps = artifact["baseline"]["fingerprints"]
    stored_winner_fps = winner.get("fingerprints", [])
    fresh_base_fps = [
        result_fingerprint(e) if isinstance(e, SimulationResult) else None
        for e in baseline_entries
    ]
    fresh_winner_fps = [
        result_fingerprint(e) if isinstance(e, SimulationResult) else None
        for e in winner_entries
    ]

    return ArtifactCheck(
        path=path,
        objective=str(artifact.get("objective", "?")),
        stored_baseline=stored_baseline,
        fresh_baseline=fresh_baseline,
        stored_winner=stored_winner,
        fresh_winner=fresh_winner,
        stored_ratio=stored_ratio,
        fresh_ratio=fresh_ratio,
        baseline_fingerprints_ok=fresh_base_fps == stored_base_fps,
        winner_fingerprints_ok=fresh_winner_fps == stored_winner_fps,
        failures=failures,
    )
