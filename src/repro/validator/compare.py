"""Cross-validation of simulation outputs against ground truth.

Implements the checking half of the paper's validator module: given two
traces (or results), verify that the consensus modules produced the same
outcome — "which node agrees on what value" (§III-A6) — and optionally that
protocol-level event sequences match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..core.tracing import Trace


@dataclass
class ValidationReport:
    """Outcome of a cross-validation.

    Attributes:
        matches: True when no mismatch was found.
        mismatches: human-readable descriptions of every disagreement.
        checked_decisions: number of (node, slot) decision pairs compared.
        checked_events: number of sequence positions compared.
    """

    mismatches: list[str] = field(default_factory=list)
    checked_decisions: int = 0
    checked_events: int = 0

    @property
    def matches(self) -> bool:
        return not self.mismatches

    def add(self, description: str) -> None:
        self.mismatches.append(description)

    def summary(self) -> str:
        status = "MATCH" if self.matches else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"validation: {status} "
            f"({self.checked_decisions} decisions, {self.checked_events} events compared)"
        )


def decisions_of(trace: Trace) -> dict[tuple[int, int], Any]:
    """``(node, slot) -> value`` from a trace's decide events."""
    return {
        (node, int(fields["slot"])): fields["value"]
        for _time, kind, node, fields in trace.rows()
        if kind == "decide"
    }


def compare_decisions(ground_truth: Trace, candidate: Trace) -> ValidationReport:
    """Check that every ground-truth decision is reproduced.

    The candidate may contain *extra* decisions (it may have been run
    longer); missing or conflicting decisions are mismatches.
    """
    report = ValidationReport()
    truth = decisions_of(ground_truth)
    seen = decisions_of(candidate)
    for (node, slot), value in sorted(truth.items()):
        report.checked_decisions += 1
        if (node, slot) not in seen:
            report.add(f"node {node} never decided slot {slot} (expected {value!r})")
        elif seen[(node, slot)] != value:
            report.add(
                f"node {node} slot {slot}: decided {seen[(node, slot)]!r}, "
                f"ground truth says {value!r}"
            )
    return report


#: Trace fields that identify *engine bookkeeping*, not protocol behaviour:
#: causal-lineage ids and timer ids are assigned per engine run, so two
#: engines (or a run and its replay) legitimately disagree on them while
#: agreeing on every protocol-visible fact.
_ENGINE_METADATA_KEYS = frozenset({"cause", "timer_id"})


def event_signature(trace: Trace, kinds: Iterable[str], node: int | None = None) -> list[tuple]:
    """The ordered subsequence of ``kinds`` events as comparable tuples.

    Timestamps are deliberately excluded: two engines agree when they
    produce the same *sequence* of protocol events, not the same absolute
    times (the paper validates PBFT against BFTSim the same way —
    "identical event sequences").  Engine-internal observability metadata
    (:data:`_ENGINE_METADATA_KEYS`) is excluded for the same reason."""
    wanted = set(kinds)
    return [
        (
            kind,
            where,
            tuple(
                sorted(
                    (key, value)
                    for key, value in fields.items()
                    if key not in _ENGINE_METADATA_KEYS
                )
            ),
        )
        for _time, kind, where, fields in trace.rows()
        if kind in wanted and (node is None or where == node)
    ]


def compare_event_sequences(
    ground_truth: Trace,
    candidate: Trace,
    kinds: Iterable[str] = ("decide",),
    node: int | None = None,
) -> ValidationReport:
    """Position-by-position comparison of the selected event subsequences."""
    report = ValidationReport()
    expected = event_signature(ground_truth, kinds, node)
    actual = event_signature(candidate, kinds, node)
    for index, (want, got) in enumerate(zip(expected, actual)):
        report.checked_events += 1
        if want != got:
            report.add(f"event {index}: expected {want}, got {got}")
    if len(expected) != len(actual):
        report.add(
            f"sequence length differs: ground truth has {len(expected)} events, "
            f"candidate has {len(actual)}"
        )
    return report
