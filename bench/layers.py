"""Layer micro-drivers: one layer's public function, timed from outside.

Each driver builds its inputs from the seed, runs a fixed number of
iterations through the layer's public API only, and folds the outputs into
a checksum that is returned beside the timing, so the work cannot be
skipped.  The numbers do not depend on the workload: a traced run of any
workload repeats them, which is what lets a change to one layer be read
off its own metric before looking at the end-to-end ones.
"""

from __future__ import annotations

import os
import pickle
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from . import SRC

QUEUE_HEAP = 10_000
QUEUE_ITERATIONS = 40_000
SCALAR_DRAWS = 60_000
BATCH_SIZE = 256
BATCH_CALLS = 300
COPY_ITERATIONS = 30_000
PLAN_N = 256
PLAN_ITERATIONS = 1_500
PICKLE_ITERATIONS = 150
STORE_ROWS = 200
WRITERS = 2
QUERY_SAMPLES = 15
CLI_SAMPLES = 2


def _per_call(elapsed_s: float, calls: int, unit_ns: float) -> float:
    return elapsed_s * 1e9 / unit_ns / calls


def queue_push_pop(seed: int) -> tuple[dict[str, float], float]:
    from repro.core.events import EventQueue, TimeEvent

    rng = random.Random(seed)
    queue = EventQueue()
    for i in range(QUEUE_HEAP):
        queue.push(TimeEvent(time=rng.uniform(0.0, 1000.0), owner=i % 64))
    steps = [rng.uniform(1.0, 500.0) for _ in range(QUEUE_ITERATIONS)]
    checksum = 0.0
    start = time.perf_counter()
    for step in steps:
        entry = queue.pop_entry()
        checksum += entry[0]
        queue.push(TimeEvent(time=entry[0] + step, owner=entry[2].owner))
    elapsed = time.perf_counter() - start
    return {"core.events.push_pop_ns": _per_call(elapsed, QUEUE_ITERATIONS, 1.0)}, checksum


def delay_draws(seed: int) -> tuple[dict[str, float], float]:
    import numpy as np
    from repro.core.config import NetworkConfig
    from repro.network.delays import DelayModel

    config = NetworkConfig()  # the workloads' N(250, 50)
    model = DelayModel(config, np.random.default_rng(seed))
    checksum = 0.0
    start = time.perf_counter()
    for _ in range(SCALAR_DRAWS):
        checksum += model.sample_delay(0.0)
    scalar = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(BATCH_CALLS):
        checksum += float(model.sample_delays(0.0, BATCH_SIZE)[-1])
    batch = time.perf_counter() - start
    return {
        "network.delays.scalar_ns": _per_call(scalar, SCALAR_DRAWS, 1.0),
        "network.delays.batch_ns_per_draw": _per_call(batch, BATCH_CALLS * BATCH_SIZE, 1.0),
    }, checksum


def message_copies(seed: int) -> tuple[dict[str, float], float]:
    from repro.core.message import BROADCAST, Message

    # The shape of a PBFT PRE-PREPARE: scalars plus one nested value.
    payload = {"type": "PRE-PREPARE", "view": 3, "slot": seed % 97,
               "value": {"batch": [seed, 2, 3], "digest": "d" * 32}, "sig": "s" * 64}
    message = Message(source=0, dest=BROADCAST, payload=payload, sent_at=1.0)
    out: dict[str, float] = {}
    checksum = 0.0
    for key, share in (("core.message.copy_for_ns", False),
                       ("core.message.copy_for_shared_ns", True)):
        start = time.perf_counter()
        for dest in range(COPY_ITERATIONS):
            copy = message.copy_for(dest, share_payload=share)
            checksum += copy.dest + len(copy.payload)
        out[key] = _per_call(time.perf_counter() - start, COPY_ITERATIONS, 1.0)
    return out, checksum


def tree_plan(seed: int) -> tuple[dict[str, float], float]:
    from repro.network.dissemination import TreeShape, resolve_fanout

    shape = TreeShape(PLAN_N, resolve_fanout(0, PLAN_N))
    checksum = 0.0
    start = time.perf_counter()
    for i in range(PLAN_ITERATIONS):
        plan = shape.plan((seed + i) % PLAN_N)
        checksum += plan.size + int(plan.dests[-1])
    elapsed = time.perf_counter() - start
    return {"network.dissemination.plan_us": _per_call(elapsed, PLAN_ITERATIONS, 1e3)}, checksum


def recorded_run(seed: int, tmp: Path) -> tuple[Any, Any, Path]:
    """One small traced run: ``(config, result, JSONL trace path)`` — the
    recorded inputs of the sink, read-back, pickle and store drivers."""
    from repro import JsonlSink, SimulationConfig, run_simulation

    config = SimulationConfig(protocol="pbft", n=16, num_decisions=5, seed=seed)
    path = tmp / f"layers-{seed}.jsonl"
    result = run_simulation(config, sink=JsonlSink(path))
    return config, result, path


def trace_write_read(recorded: tuple[Any, Any, Path], tmp: Path) -> tuple[dict[str, float], float]:
    from repro import JsonlSink, analyze_trace
    from repro.core.tracing import Trace
    from repro.observability.causality import CausalityGraph
    from repro.validator.replay import replay_simulation

    config, result, path = recorded
    events = list(result.trace.sink.iter_events())
    rewrite = tmp / "layers-rewrite.jsonl"
    sink = JsonlSink(rewrite)
    start = time.perf_counter()
    for event in events:
        sink.emit(event)
    sink.close()
    write = time.perf_counter() - start
    written = rewrite.stat().st_size

    start = time.perf_counter()
    report = analyze_trace(path)
    analyze = time.perf_counter() - start
    start = time.perf_counter()
    graph = CausalityGraph.build(path)
    build = time.perf_counter() - start
    start = time.perf_counter()
    replayed = replay_simulation(config, Trace.from_jsonl(path.read_text(encoding="utf-8")))
    replay = time.perf_counter() - start
    checksum = float(written + report.events + len(graph.decisions) + replayed.events_processed)
    return {
        "observability.sinks.jsonl_mb_per_s": written / 1e6 / write,
        "observability.inspect.analyze_s": analyze,
        "observability.causality.build_s": build,
        "validator.replay_s": replay,
    }, checksum


def result_pickle(recorded: tuple[Any, Any, Path]) -> tuple[dict[str, float], float]:
    _config, result, _path = recorded
    blob = pickle.dumps(result)
    checksum = 0.0
    start = time.perf_counter()
    for _ in range(PICKLE_ITERATIONS):
        checksum += pickle.loads(pickle.dumps(result)).events_processed
    elapsed = time.perf_counter() - start
    return {
        "parallel.engine.result_pickle_us": _per_call(elapsed, PICKLE_ITERATIONS, 1e3),
        "parallel.engine.result_pickle_bytes": float(len(blob)),
    }, checksum


def pool_start(seed: int) -> tuple[dict[str, float], float]:
    from repro import ParallelRunner, SimulationConfig, run_simulation

    configs = [SimulationConfig(protocol="pbft", n=4, seed=seed + i) for i in range(2)]
    start = time.perf_counter()
    serial = [run_simulation(config) for config in configs]
    in_process = time.perf_counter() - start
    start = time.perf_counter()
    fanned = ParallelRunner(jobs=2).map(configs)
    pooled = time.perf_counter() - start
    checksum = float(sum(r.events_processed for r in serial + fanned))
    return {"parallel.engine.pool_start_s": max(pooled - in_process, 0.0)}, checksum


def store_single_writer(recorded: tuple[Any, Any, Path], tmp: Path) -> tuple[dict[str, float], float]:
    from repro.store import ExperimentStore

    config, result, _path = recorded
    path = tmp / "layers.sqlite"
    with ExperimentStore(str(path)) as store:
        experiment = store.create_experiment("layers", "bench", config, STORE_ROWS)
        start = time.perf_counter()
        for index in range(STORE_ROWS):
            store.record_run(experiment, index, result)
        write = time.perf_counter() - start
        store.finish_experiment(experiment)
        checksum = 0.0
        experiments_ms, runs_ms = [], []
        for _ in range(QUERY_SAMPLES):
            start = time.perf_counter()
            checksum += len(store.experiments())
            experiments_ms.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            checksum += len(store.runs(experiment))
            runs_ms.append((time.perf_counter() - start) * 1e3)
    size = sum(p.stat().st_size for p in tmp.glob(path.name + "*"))
    return {
        "store.record_run_us": _per_call(write, STORE_ROWS, 1e3),
        "store.db_bytes_per_run": size / STORE_ROWS,
        "store.experiments_query_ms": statistics.median(experiments_ms),
        "store.runs_query_ms": statistics.median(runs_ms),
    }, checksum


def store_two_writers(recorded: tuple[Any, Any, Path], tmp: Path) -> tuple[dict[str, float], float]:
    """Two writer threads, one connection each, into one WAL store."""
    from repro.store import ExperimentStore

    config, result, _path = recorded
    path = str(tmp / "layers-writers.sqlite")
    stores = [ExperimentStore(path) for _ in range(WRITERS)]
    experiments = [
        store.create_experiment(f"writer-{w}", "bench", config, STORE_ROWS)
        for w, store in enumerate(stores)
    ]
    barrier = threading.Barrier(WRITERS + 1)

    def write(store: Any, experiment: int) -> None:
        barrier.wait()
        for index in range(STORE_ROWS):
            store.record_run(experiment, index, result)

    threads = [threading.Thread(target=write, args=pair) for pair in zip(stores, experiments)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    stored = sum(len(stores[0].runs(experiment)) for experiment in experiments)
    for store in stores:
        store.close()
    return {"store.insert_per_s": stored / elapsed}, float(stored)


def _cli_seconds(*args: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CLI_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cli_starts(seed: int) -> tuple[dict[str, float], float]:
    return {
        "cli.import_s": _cli_seconds("-c", "import repro"),
        "cli.list_s": _cli_seconds("-m", "repro", "list"),
        "cli.run_small_s": _cli_seconds(
            "-m", "repro", "run", "--protocol", "pbft", "-n", "4", "--seed", str(seed)),
    }, 0.0


def packetsim_baseline(seed: int) -> tuple[dict[str, float], float]:
    from repro import SimulationConfig, run_simulation
    from repro.baseline.packetsim import run_baseline_simulation

    config = SimulationConfig(protocol="pbft", n=32, seed=seed)
    start = time.perf_counter()
    ours = run_simulation(config)
    ours_s = time.perf_counter() - start
    start = time.perf_counter()
    baseline = run_baseline_simulation(config)
    baseline_s = time.perf_counter() - start
    return {
        "baseline.packetsim.wall_ms_n32": baseline_s * 1e3,
        "baseline.packetsim.ratio_n32": baseline_s / ours_s,
    }, float(ours.events_processed + baseline.events_processed)


def run_all(seed: int, tmp: Path) -> dict[str, float]:
    """Every micro-driver once; the checksums are summed into
    ``host.layer_checksum`` so they are part of the output."""
    recorded = recorded_run(seed, tmp)
    drivers: list[Callable[[], tuple[dict[str, float], float]]] = [
        lambda: queue_push_pop(seed),
        lambda: delay_draws(seed),
        lambda: message_copies(seed),
        lambda: tree_plan(seed),
        lambda: trace_write_read(recorded, tmp),
        lambda: result_pickle(recorded),
        lambda: pool_start(seed),
        lambda: store_single_writer(recorded, tmp),
        lambda: store_two_writers(recorded, tmp),
        lambda: cli_starts(seed),
        lambda: packetsim_baseline(seed),
    ]
    metrics: dict[str, float] = {}
    checksum = 0.0
    for driver in drivers:
        values, part = driver()
        metrics.update(values)
        checksum += part
    metrics["host.layer_checksum"] = checksum
    return metrics
