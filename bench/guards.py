"""Correctness guards: the simulated statistics every pass must reproduce.

Simulated statistics (events, messages, fingerprints) are deterministic
functions of the generated inputs, so they are guards, not metrics.  For
seed 1 each cell's facts are pinned in ``guards.json``; for any other seed
the first pass of the run is the reference the later passes must equal.
A cell that raised, did not terminate or disagrees is a failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from . import BENCH_DIR, scratch_dir

GUARDS_PATH = BENCH_DIR / "guards.json"
PINNED_SEED = 1

Observation = dict[str, Any]


def load_pinned(workload: str, path: Path = GUARDS_PATH) -> dict[str, Observation]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


class Guards:
    """Checks each pass's cells against the pinned or first-seen facts."""

    def __init__(self, workload: str, seed: int,
                 pinned: dict[str, Observation] | None = None) -> None:
        if pinned is None:
            pinned = load_pinned(workload) if seed == PINNED_SEED else {}
        self.workload = workload
        self.reference: dict[str, Observation] = dict(pinned)
        self.mismatches: list[str] = []

    def check(self, cells: dict[str, Observation]) -> int:
        """Number of cells that failed their guard (each is reported once
        per pass in :attr:`mismatches`, with the cell name)."""
        failed = 0
        for name, seen in cells.items():
            problem = self._problem(name, seen)
            if problem:
                failed += 1
                self.mismatches.append(f"{self.workload}/{name}: {problem}")
        return failed

    def _problem(self, name: str, seen: Observation) -> str | None:
        if "error" in seen:
            return str(seen["error"])
        if seen.get("terminated") is False:
            return "did not terminate"
        expected = self.reference.setdefault(name, seen)
        for key, value in expected.items():
            if seen.get(key) != value:
                return f"{key} = {seen.get(key)!r}, expected {value!r}"
        return None


def update_guards(path: Path = GUARDS_PATH) -> int:
    """Regenerate ``guards.json`` from two passes of every workload at the
    pinned seed; refuses (exit 1, file untouched) if they disagree."""
    from . import use_source_tree
    from .workloads import WORKLOADS

    use_source_tree()
    pinned: dict[str, dict[str, Observation]] = {}
    for name, cls in WORKLOADS.items():
        with scratch_dir(f"guards-{name}") as tmp:
            workload = cls(PINNED_SEED, tmp)
            workload.setup()
            try:
                first, second = workload.one_pass(), workload.one_pass()
            finally:
                workload.close()
        guards = Guards(name, PINNED_SEED, pinned={})
        if guards.check(first.cells) + guards.check(second.cells) or first.failed or second.failed:
            print(f"refusing to update {path}: two passes of {name} disagree or failed")
            for line in guards.mismatches:
                print(f"  {line}")
            return 1
        pinned[name] = first.cells
        print(f"{name}: {len(first.cells)} cells pinned")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0
