"""Scale bench — broadcasts at n up to 1000, in every dissemination mode.

Where ``bench_core_hotpath.py`` watches the kernel's per-event cost on the
paper's mid-scale configs, this bench watches the *scaling wall*: a
three-phase PBFT decision at n = 1000 schedules ~1.7M deliveries.  Since
every mode rides the network module's one broadcast routine, a benign
broadcast costs one shared message, one shared delivery event, one
vectorized delay batch and one cursor entry in the queue (16 bytes per
pending delivery) whether it is a ``full`` star or a ``tree``/``gossip``
relay overlay; the modes differ in what they model (relay depth, per-node
load), no longer in what they cost.

Workload: one decision, lambda = 1000, N(50, 10) link delays, seed 2022,
and **block proposals** (``block_txns = 256``): each proposal value carries
a 256-transaction list, the realistic payload weight at which a structural
copy per recipient would show.

Matrix: {pbft, hotstuff-ns} x n in {64, 256, 1000} x {full, tree, gossip},
events/sec from warm wall-clock repetitions (one at n = 1000); peak traced
memory (tracemalloc) for the pbft n = 1000 cells in a separate pass, since
tracing multiplies wall time several-fold.

``BENCH_scale.json`` is the committed reference.  The tests assert:

1. **Determinism** — ``events_processed`` per cell matches the committed
   count exactly (RNG consumption and event ordering are seed-stable).
2. **One broadcast path** — the committed pbft cells at n=256 and n=1000
   show ``full`` within ``MAX_FULL_VS_TREE`` (1.3x) of ``tree`` in
   events/sec, and within the same factor in peak memory at n=1000.
3. **One heap entry per in-flight broadcast** — the committed pbft n=1000
   ``full`` peak memory is at least ``MIN_PEAK_REDUCTION`` (2x) below the
   ``PER_RECIPIENT_PEAK_MIB`` the per-recipient heap entries cost.
4. **No regression** (CI smoke, n=256 only) — the live n=256 cells stay
   under ``REPRO_BENCH_MAX_REGRESSION`` (default 2.0) times the committed
   medians, and ``full`` stays within 1.3x of ``tree`` live.

Regenerate after an intentional kernel/overlay change (a few minutes,
dominated by the three tracemalloc passes)::

    PYTHONPATH=src python benchmarks/bench_scale.py --update
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import tracemalloc

from repro import NetworkConfig, SimulationConfig, run_simulation
from repro.analysis import render_table

from _common import run_once, save_artifact

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_scale.json"

PROTOCOLS = ("pbft", "hotstuff-ns")
SIZES = (64, 256, 1000)
MODES = ("full", "tree", "gossip")
BLOCK_TXNS = 256

MAX_REGRESSION = float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "2.0"))

#: ROADMAP "one broadcast path" gate: ``tree`` may be at most this many
#: times as fast (or as small) as ``full`` on the pbft cells.
MAX_FULL_VS_TREE = 1.3

#: ROADMAP item 3a gate.  334.4 MiB is the committed pbft n=1000 ``full``
#: peak of the parent commit (545c45a), whose queue held one heap entry,
#: one handle and one dict slot per pending delivery.
PER_RECIPIENT_PEAK_MIB = 334.4
MIN_PEAK_REDUCTION = 2.0


def _config(protocol: str, n: int, mode: str) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol,
        n=n,
        lam=1000.0,
        network=NetworkConfig(mean=50.0, std=10.0, dissemination=mode),
        num_decisions=1,
        seed=2022,
        protocol_params={"block_txns": BLOCK_TXNS},
    )


def _reps_for(n: int) -> int:
    return {64: 5, 256: 3}.get(n, 1)


def measure_cell(protocol: str, n: int, mode: str, reps: int | None = None) -> dict:
    """Median wall-clock and events/sec of ``reps`` runs of one cell."""
    if reps is None:
        reps = _reps_for(n)
    config = _config(protocol, n, mode)
    times = []
    events = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_simulation(config)
        times.append(time.perf_counter() - t0)
        if events is None:
            events = result.events_processed
        else:
            assert events == result.events_processed, (
                f"{protocol}/n={n}/{mode}: event count varied between repetitions"
            )
    times.sort()
    median = times[len(times) // 2]
    return {
        "events": events,
        "median_s": round(median, 3),
        "events_per_sec": round(events / median, 1),
    }


def measure_peak(protocol: str, n: int, mode: str) -> dict:
    """Peak traced allocation of one run (separate pass: tracemalloc
    multiplies wall time several-fold, so timing cells never trace)."""
    config = _config(protocol, n, mode)
    tracemalloc.start()
    result = run_simulation(config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"events": result.events_processed, "peak_mib": round(peak / 2**20, 1)}


def load_baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def _cell_key(protocol: str, n: int, mode: str) -> str:
    return f"{protocol}/n{n}/{mode}"


# ---------------------------------------------------------------------------
# committed-reference assertions
# ---------------------------------------------------------------------------


def test_committed_full_is_within_reach_of_tree():
    """The committed artifact must show one broadcast path: on pbft at
    n=256 and n=1000 ``full`` sustains events/sec within 1.3x of ``tree``,
    and at n=1000 its peak memory is within the same factor.  Pure artifact
    check — no simulation runs."""
    baseline = load_baseline()
    cells = baseline["cells"]
    for n in (256, 1000):
        full = cells[_cell_key("pbft", n, "full")]
        tree = cells[_cell_key("pbft", n, "tree")]
        ratio = tree["events_per_sec"] / full["events_per_sec"]
        assert ratio <= MAX_FULL_VS_TREE, (
            f"committed pbft n={n}: tree is {ratio:.2f}x the events/sec of "
            f"full (gate <= {MAX_FULL_VS_TREE}x); full broadcasts have left "
            "the shared tier — re-measure with --update and look at "
            "NetworkModule._broadcast"
        )
    peaks = baseline["peak_memory"]
    assert (
        peaks[_cell_key("pbft", 1000, "full")]["peak_mib"]
        <= MAX_FULL_VS_TREE * peaks[_cell_key("pbft", 1000, "tree")]["peak_mib"]
    ), "full fan-out must not cost more than 1.3x the peak memory of tree"


def test_committed_full_peak_is_half_the_per_recipient_queue():
    """One cursor per in-flight broadcast: the committed pbft n=1000
    ``full`` peak must stay >= 2x below what per-recipient heap entries
    cost.  Pure artifact check."""
    peak = load_baseline()["peak_memory"][_cell_key("pbft", 1000, "full")]["peak_mib"]
    assert MIN_PEAK_REDUCTION * peak <= PER_RECIPIENT_PEAK_MIB, (
        f"committed pbft n=1000 full peak {peak} MiB is less than "
        f"{MIN_PEAK_REDUCTION}x below {PER_RECIPIENT_PEAK_MIB} MiB: pending "
        "deliveries are no longer ~16 bytes each — look at "
        "EventQueue.push_deliveries"
    )


def test_committed_matrix_is_complete():
    baseline = load_baseline()
    for protocol in PROTOCOLS:
        for n in SIZES:
            for mode in MODES:
                cell = baseline["cells"][_cell_key(protocol, n, mode)]
                assert cell["events"] > 0 and cell["events_per_sec"] > 0


def test_scale_smoke_regression(benchmark):
    """CI perf-smoke gate: the n=256 pbft cells, live vs committed.

    Guards determinism (exact event counts), the one broadcast path (full
    within 1.3x of tree live), and wall-clock regression (within
    ``REPRO_BENCH_MAX_REGRESSION`` of the committed medians)."""
    baseline = load_baseline()

    def run() -> dict:
        # Median of three repetitions per mode: the ratio gate compares
        # two live numbers, and single runs move by more than 10 %.
        return {mode: measure_cell("pbft", 256, mode) for mode in ("full", "tree")}

    live = run_once(benchmark, run)
    rows = []
    for mode, cell in live.items():
        ref = baseline["cells"][_cell_key("pbft", 256, mode)]
        assert cell["events"] == ref["events"], (
            f"pbft/n256/{mode}: events_processed {cell['events']} != committed "
            f"{ref['events']}; RNG consumption or event ordering drifted — a "
            "determinism break, not noise"
        )
        limit = MAX_REGRESSION * ref["median_s"]
        assert cell["median_s"] <= limit, (
            f"pbft/n256/{mode}: live {cell['median_s']:.2f}s exceeds "
            f"{MAX_REGRESSION:.1f}x committed {ref['median_s']:.2f}s"
        )
        rows.append(
            (mode, str(cell["events"]), f"{ref['median_s']:.2f}",
             f"{cell['median_s']:.2f}", f"{cell['events_per_sec']:.0f}")
        )
    ratio = live["tree"]["events_per_sec"] / live["full"]["events_per_sec"]
    assert ratio <= MAX_FULL_VS_TREE, (
        f"pbft/n256: tree is {ratio:.2f}x the events/sec of full live "
        f"(gate <= {MAX_FULL_VS_TREE}x)"
    )
    save_artifact(
        "scale_smoke",
        render_table(
            "Scale perf smoke: pbft n=256, block_txns=256, full vs tree",
            ["mode", "events", "ref (s)", "live (s)", "live ev/s"],
            rows,
            note=f"gate: live <= {MAX_REGRESSION:.1f}x committed median; "
            f"tree <= {MAX_FULL_VS_TREE}x full in ev/s; events must match exactly.",
        ),
    )


# ---------------------------------------------------------------------------
# regeneration
# ---------------------------------------------------------------------------


def _update() -> None:
    cells: dict[str, dict] = {}
    for protocol in PROTOCOLS:
        for n in SIZES:
            for mode in MODES:
                key = _cell_key(protocol, n, mode)
                cells[key] = measure_cell(protocol, n, mode)
                print(f"{key}: {cells[key]}", flush=True)
    peaks: dict[str, dict] = {}
    for mode in MODES:
        key = _cell_key("pbft", 1000, mode)
        peaks[key] = measure_peak("pbft", 1000, mode)
        print(f"peak {key}: {peaks[key]}", flush=True)
    tree_vs_full = (
        cells[_cell_key("pbft", 1000, "tree")]["events_per_sec"]
        / cells[_cell_key("pbft", 1000, "full")]["events_per_sec"]
    )
    payload = {
        "description": (
            "Committed scale reference for bench_scale.py: one decision at "
            "lambda=1000, N(50,10), seed 2022, block_txns=256; events/sec "
            "from warm wall-clock medians (single rep at n=1000), peak "
            "memory from a separate tracemalloc pass. events is a "
            "determinism guard: it must never drift."
        ),
        "workload": {
            "lam": 1000.0, "mean": 50.0, "std": 10.0, "seed": 2022,
            "num_decisions": 1, "block_txns": BLOCK_TXNS,
        },
        "tree_vs_full_n1000_pbft": round(tree_vs_full, 2),
        "cells": cells,
        "peak_memory": peaks,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH} (n=1000 pbft tree/full {tree_vs_full:.2f}x)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        baseline = load_baseline()
        for mode in ("full", "tree"):
            live = measure_cell("pbft", 256, mode, reps=1)
            ref = baseline["cells"][_cell_key("pbft", 256, mode)]
            assert live["events"] == ref["events"]
            print(f"pbft/n256/{mode}: {live} (committed: {ref})")
        print("ok")
