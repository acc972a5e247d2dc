"""Throughput bench — open-loop workload saturation curves (PR-9 tentpole).

Where the other benches measure the *kernel* (events/sec, memory), this
bench measures the *system model*: committed transactions per second under
an open-loop Poisson client workload, swept across offered arrival rates
until each protocol saturates.  The expected shape is the classic
throughput–latency curve: below the knee, committed tx/s tracks the
offered rate and latency stays flat; past the knee, committed tx/s
plateaus at the protocol's pipeline capacity while request latency grows
with the queue.

Matrix: {pbft, tendermint, hotstuff-ns} x offered rate in {10, 40, 160}
req/s — 10 clients, a 3000 ms arrival window, batch = 16, batch timeout
= 500 ms, lambda = 1000, the default N(250, 50) network, seed 3.  Each
cell records the exact request counts (a determinism guard: arrivals are
drawn on dedicated ``workload.{client}`` substreams, so submitted and
decided counts must never drift), the committed tx/s, latency
percentiles, and the saturation flag.

``BENCH_throughput.json`` is the committed reference.  The tests assert:

1. **Determinism** — live ``submitted``/``decided`` request counts match
   the committed counts exactly, per cell.
2. **Conservation** — every committed cell decided exactly the requests
   it submitted (open-loop runs drain before terminating).
3. **The curve saturates** — for every protocol the committed curve is
   unsaturated at the lowest rate, saturated at the highest, committed
   tx/s is monotone non-decreasing in the offered rate, and the top-rate
   committed tx/s falls short of the offered rate (the plateau is real).
4. **No regression** (CI perf smoke) — the live headline cells stay under
   ``REPRO_BENCH_MAX_REGRESSION`` (default 2.0) times the committed
   wall-clock medians.

Regenerate after an intentional workload/protocol change (seconds)::

    PYTHONPATH=src python benchmarks/bench_throughput.py --update
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro import SimulationConfig, WorkloadConfig, run_simulation
from repro.analysis import render_table

from _common import run_once, save_artifact

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_throughput.json"

PROTOCOLS = ("pbft", "tendermint", "hotstuff-ns")
RATES = (10.0, 40.0, 160.0)
CLIENTS = 10
DURATION_MS = 3000.0
BATCH = 16
BATCH_TIMEOUT_MS = 500.0
SEED = 3

MAX_REGRESSION = float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "2.0"))

#: Absolute floor for the wall-clock gate.  The cells here run in single
#: milliseconds, where interpreter warmup and scheduler noise dwarf any
#: multiplicative tolerance; the floor still catches the regressions this
#: gate exists for (a workload path going quadratic is >100x).
MIN_LIMIT_S = 0.5

#: The perf-smoke cells: one mid-curve cell per headline protocol.
SMOKE_CELLS = (("pbft", 40.0), ("hotstuff-ns", 40.0))


def _config(protocol: str, rate: float) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol,
        n=4,
        lam=1000.0,
        seed=SEED,
        workload=WorkloadConfig(
            rate=rate,
            clients=CLIENTS,
            duration=DURATION_MS,
            batch=BATCH,
            batch_timeout=BATCH_TIMEOUT_MS,
        ),
    )


def measure_cell(protocol: str, rate: float, reps: int = 3) -> dict:
    """Throughput metrics plus median wall-clock of ``reps`` runs.

    The workload numbers are asserted identical across repetitions —
    repetition exists only to stabilize the wall-clock median.
    """
    config = _config(protocol, rate)
    times = []
    cell = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = run_simulation(config)
        times.append(time.perf_counter() - t0)
        wl = result.workload
        assert wl is not None and result.terminated
        current = {
            "submitted": wl.submitted,
            "decided": wl.decided,
            "committed_tx_s": round(wl.committed_tx_s, 2),
            "latency_p50_ms": round(wl.latency_p50_ms, 1),
            "latency_p99_ms": round(wl.latency_p99_ms, 1),
            "max_queue_depth": wl.max_queue_depth,
            "saturated": wl.saturated,
        }
        if cell is None:
            cell = current
        else:
            assert cell == current, (
                f"{protocol}/rate={rate}: workload metrics varied between "
                "repetitions — a determinism break"
            )
    times.sort()
    cell["median_s"] = round(times[len(times) // 2], 3)
    return cell


def load_baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))


def _cell_key(protocol: str, rate: float) -> str:
    return f"{protocol}/rate{rate:g}"


# ---------------------------------------------------------------------------
# committed-reference assertions
# ---------------------------------------------------------------------------


def test_committed_matrix_is_complete():
    baseline = load_baseline()
    for protocol in PROTOCOLS:
        for rate in RATES:
            cell = baseline["cells"][_cell_key(protocol, rate)]
            assert cell["submitted"] > 0
            assert cell["committed_tx_s"] > 0


def test_committed_conservation():
    """Every committed cell decided exactly what it submitted: open-loop
    runs only terminate once the workload drains, so a shortfall in the
    artifact means requests were lost.  Pure artifact check."""
    baseline = load_baseline()
    for key, cell in baseline["cells"].items():
        assert cell["decided"] == cell["submitted"], (
            f"{key}: committed artifact lost requests "
            f"({cell['decided']}/{cell['submitted']})"
        )


def test_committed_saturation_curve():
    """The committed curves must show the tentpole claim: each protocol is
    unsaturated at the lowest offered rate, saturated at the highest, with
    monotone non-decreasing committed tx/s that plateaus below the top
    offered rate.  Pure artifact check — no simulation runs."""
    baseline = load_baseline()
    for protocol in PROTOCOLS:
        curve = [baseline["cells"][_cell_key(protocol, r)] for r in RATES]
        assert not curve[0]["saturated"], (
            f"{protocol}: already saturated at {RATES[0]:g} req/s; lower "
            "the bench's bottom rate"
        )
        assert curve[-1]["saturated"], (
            f"{protocol}: not saturated at {RATES[-1]:g} req/s; raise the "
            "bench's top rate"
        )
        tx = [cell["committed_tx_s"] for cell in curve]
        assert tx == sorted(tx), (
            f"{protocol}: committed tx/s not monotone across rates: {tx}"
        )
        assert tx[-1] < RATES[-1], (
            f"{protocol}: top cell commits {tx[-1]} tx/s >= offered "
            f"{RATES[-1]:g} — no plateau, the curve never saturated"
        )


def test_throughput_smoke_regression(benchmark):
    """CI perf-smoke gate: the headline mid-curve cells, live vs committed.

    Guards determinism (exact submitted/decided request counts and
    identical throughput numbers) and wall-clock regression (within
    ``REPRO_BENCH_MAX_REGRESSION`` of the committed medians)."""
    baseline = load_baseline()

    def run() -> dict:
        return {
            _cell_key(protocol, rate): measure_cell(protocol, rate, reps=3)
            for protocol, rate in SMOKE_CELLS
        }

    # Untimed warmup: the cells are milliseconds, so the first simulation's
    # import/alloc warmup would otherwise dominate the timed medians.
    run_simulation(_config(*SMOKE_CELLS[0]))
    live = run_once(benchmark, run)
    rows = []
    for key, cell in live.items():
        ref = baseline["cells"][key]
        for field in ("submitted", "decided"):
            assert cell[field] == ref[field], (
                f"{key}: {field} {cell[field]} != committed {ref[field]}; "
                "arrival-substream RNG consumption drifted — a determinism "
                "break, not noise"
            )
        assert cell["committed_tx_s"] == ref["committed_tx_s"], (
            f"{key}: committed_tx_s {cell['committed_tx_s']} != committed "
            f"{ref['committed_tx_s']} on identical request counts"
        )
        limit = max(MAX_REGRESSION * ref["median_s"], MIN_LIMIT_S)
        assert cell["median_s"] <= limit, (
            f"{key}: live {cell['median_s']:.3f}s exceeds "
            f"{MAX_REGRESSION:.1f}x committed {ref['median_s']:.3f}s "
            f"(floor {MIN_LIMIT_S}s)"
        )
        rows.append(
            (key, f"{cell['decided']}/{cell['submitted']}",
             f"{cell['committed_tx_s']:.1f}", f"{cell['latency_p50_ms']:.0f}",
             f"{ref['median_s']:.3f}", f"{cell['median_s']:.3f}")
        )
    save_artifact(
        "throughput_smoke",
        render_table(
            "Throughput perf smoke: mid-curve cells, live vs committed",
            ["cell", "decided/submitted", "tx/s", "p50 (ms)",
             "ref (s)", "live (s)"],
            rows,
            note=f"gate: live <= {MAX_REGRESSION:.1f}x committed median; "
            "request counts and tx/s must match exactly.",
        ),
    )


# ---------------------------------------------------------------------------
# regeneration
# ---------------------------------------------------------------------------


def _update() -> None:
    cells: dict[str, dict] = {}
    for protocol in PROTOCOLS:
        for rate in RATES:
            key = _cell_key(protocol, rate)
            cells[key] = measure_cell(protocol, rate)
            print(f"{key}: {cells[key]}", flush=True)
    payload = {
        "description": (
            "Committed throughput reference for bench_throughput.py: "
            "open-loop Poisson workload at n=4, lambda=1000, default "
            "N(250,50) network, seed 3; 10 clients over a 3000 ms window, "
            "batch=16, batch timeout=500 ms, swept across offered rates. "
            "submitted/decided are determinism guards: they must never "
            "drift."
        ),
        "workload": {
            "n": 4, "lam": 1000.0, "seed": SEED, "clients": CLIENTS,
            "duration_ms": DURATION_MS, "batch": BATCH,
            "batch_timeout_ms": BATCH_TIMEOUT_MS, "rates": list(RATES),
        },
        "cells": cells,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        baseline = load_baseline()
        for protocol, rate in SMOKE_CELLS:
            live = measure_cell(protocol, rate, reps=1)
            ref = baseline["cells"][_cell_key(protocol, rate)]
            assert live["submitted"] == ref["submitted"]
            assert live["decided"] == ref["decided"]
            print(f"{_cell_key(protocol, rate)}: {live} (committed: {ref})")
        print("ok")
