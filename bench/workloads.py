"""The benchmark's workloads.

A workload builds its inputs from the seed in :meth:`Workload.setup` and
then runs *passes*: one pass is a fixed amount of seed-determined work, and
reports how many operations it did, how long the program took for them, and
the deterministic facts (event counts, fingerprints) the guards check.  The
program receives only the generated ``SimulationConfig``s, CLI arguments and
HTTP requests.  Sizes are chosen so that a pass takes about a second and a
ten-second run holds about ten of them; ``bench/README.md`` records why
each workload exists and which layer dominates it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import SRC

Observation = dict[str, Any]


@dataclass
class Pass:
    """What one pass did.

    Attributes:
        ops: operations completed (simulated events, stored rows, requests).
        seconds: host time the program spent on them (set-up of the pass,
            fingerprinting and guard reads are outside it).
        cells: per-cell deterministic facts for the guards.
        attempted / failed: operations tried, and those that raised, were
            refused or returned a wrong answer.
        facts: counts taken from result objects, for the per-layer metrics.
        samples: per-operation latencies in ms by kind (service workloads).
    """

    ops: int = 0
    seconds: float = 0.0
    cells: dict[str, Observation] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    facts: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def _untimed(_name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


class Workload:
    """Base class: subclasses fill in :meth:`setup` and :meth:`one_pass`."""

    name = ""
    why = ""
    #: ``timed(name, fn, *args)`` calls ``fn``; the traced run sets
    #: ``Tracer.timed`` on the instance so the same call also records a
    #: client-side span.
    timed: Callable[..., Any] = staticmethod(_untimed)

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Build inputs, seed stores, start servers (counted in setup_s)."""

    def one_pass(self) -> Pass:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every thread and process the workload started."""

    def untraced_extras(self, untraced: Pass) -> dict[str, float]:
        """Per-layer metrics only this workload can measure; the traced run
        takes them before the shims go in, beside its untraced pass."""
        return {}

    def cell_seed(self, index: int) -> int:
        """The simulation seed of cell ``index``: distinct per cell, a
        function of ``--seed`` only."""
        return self.seed * 1000 + index


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------


def observe(result: Any) -> Observation:
    from repro import result_fingerprint

    return {
        "events": result.events_processed,
        "messages": result.messages,
        "terminated": bool(result.terminated),
        "fingerprint": result_fingerprint(result),
    }


def result_facts(results: list[Any]) -> dict[str, float]:
    """Counts the result objects carry, summed over one pass's cells."""
    facts = {
        "core.controller.events": sum(r.events_processed for r in results),
        "core.controller.decisions": sum(len(r.decided_values) for r in results),
        "network.module.msgs_sent": sum(r.messages for r in results),
        "network.module.bytes_sent": sum(r.bytes_sent for r in results),
        "attacks.dropped": sum(r.counts.dropped for r in results),
        "faults.engine.duplicated": sum(r.fault_counts.duplicated for r in results),
        "faults.engine.delayed": sum(r.fault_counts.delayed for r in results),
        "observability.health.windows": sum(
            r.health.windows for r in results if r.health is not None),
    }
    loads = [r.workload for r in results if r.workload is not None]
    if loads:
        facts.update({
            "workload.requests_submitted": sum(w.submitted for w in loads),
            "workload.requests_decided": sum(w.decided for w in loads),
            "workload.batches_cut": sum(w.batches for w in loads),
            "workload.request_p50_sim_ms": loads[0].latency_p50_ms,
            "workload.committed_tx_per_sim_s": loads[0].committed_tx_s,
        })
    return facts


class SimWorkload(Workload):
    """Cells run one after another through ``run_simulation`` in-process."""

    def cells(self) -> list[tuple[str, Any]]:
        """``[(cell name, SimulationConfig)]`` for this seed."""
        raise NotImplementedError

    def setup(self) -> None:
        self._cells = self.cells()

    def one_pass(self) -> Pass:
        from repro import run_simulation

        out = Pass()
        results = []
        for name, config in self._cells:
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = run_simulation(config)
            except Exception as error:  # a failed cell is a counted failure
                out.seconds += time.perf_counter() - start
                out.failed += 1
                out.cells[name] = {"error": f"{type(error).__name__}: {error}"}
                continue
            out.seconds += time.perf_counter() - start
            out.ops += result.events_processed
            out.cells[name] = observe(result)
            results.append(result)
        out.facts = result_facts(results)
        return out


def _config(protocol: str, n: int, decisions: int, seed: int, **changes: Any) -> Any:
    from repro import NetworkConfig, SimulationConfig

    dissemination = changes.pop("dissemination", "full")
    return SimulationConfig(
        protocol=protocol, n=n, num_decisions=decisions, seed=seed,
        network=NetworkConfig(dissemination=dissemination), **changes,
    )


class Fig2Full(SimWorkload):
    name = "fig2_full"
    why = ("paper Fig. 2 path: pbft, full fan-out, one decision, n=32/64/128; the only mode "
           "paying a message copy, payload deep copy and scalar delay draw per recipient")

    def cells(self) -> list[tuple[str, Any]]:
        return [
            (f"pbft-full-n{n}", _config("pbft", n, 1, self.cell_seed(i)))
            for i, n in enumerate((32, 64, 128))
        ]


class OverlayScale(SimWorkload):
    name = "overlay_scale"
    why = ("tree and gossip overlays at n=128/256: the shared-event fast tier that bypasses "
           "per-recipient copying, so a full-mode change must not move it; memory-sensitive")

    def cells(self) -> list[tuple[str, Any]]:
        return [
            ("pbft-tree-n128",
             _config("pbft", 128, 1, self.cell_seed(0), dissemination="tree")),
            ("pbft-gossip-n128",
             _config("pbft", 128, 1, self.cell_seed(1), dissemination="gossip")),
            ("hotstuff-ns-tree-n256x20",
             _config("hotstuff-ns", 256, 20, self.cell_seed(2), dissemination="tree")),
        ]


class SteadyProtocols(SimWorkload):
    name = "steady_protocols"
    why = ("many decisions at small n over four protocol families: handlers, pacemaker "
           "timers and the dispatch loop dominate, broadcast copying matters least")

    def cells(self) -> list[tuple[str, Any]]:
        return [
            ("pbft-n16x50", _config("pbft", 16, 50, self.cell_seed(0))),
            ("tendermint-n32x10", _config("tendermint", 32, 10, self.cell_seed(1))),
            ("hotstuff-ns-n128x25", _config("hotstuff-ns", 128, 25, self.cell_seed(2))),
            ("librabft-n64x50", _config("librabft", 64, 50, self.cell_seed(3))),
        ]


class AdversarialLoad(SimWorkload):
    name = "adversarial_load"
    why = ("attacker proxy, fault engine and client mempool on every message: the "
           "instrumented tier the benign fast path skips (same layer, other use)")

    def cells(self) -> list[tuple[str, Any]]:
        from repro import parse_faults_spec, parse_workload_spec
        from repro.scenarios.spec import load_scenario

        return [
            ("pbft-n32x5-adaptive-chaser",
             load_scenario("adaptive-chaser").apply(
                 _config("pbft", 32, 5, self.cell_seed(0)))),
            ("pbft-n32x2-worst-case",
             load_scenario("worst-case-pbft-n32").apply(
                 _config("pbft", 32, 2, self.cell_seed(1)))),
            # No loss clause: pbft has no retransmission, and loss=0.05 left
            # 13 of 40 seeds short of termination while sizing.
            ("pbft-n32x5-faults",
             _config("pbft", 32, 5, self.cell_seed(2),
                     faults=parse_faults_spec("duplicate=0.05; delay=0.1x3"))),
            ("pbft-n16-clients",
             _config("pbft", 16, 1, self.cell_seed(3), workload=parse_workload_spec(
                 "rate:500,clients:50,batch:32,duration:3000"))),
        ]


class ObservedRun(Workload):
    name = "observed_run"
    why = ("one run with JSONL trace, metrics and health on, then read back through "
           "analyze_trace, CausalityGraph.build and validator replay: telemetry write and read cost")

    OVERHEAD_PAIRS = 3

    def setup(self) -> None:
        from repro import run_simulation

        self.config = _config("pbft", 32, 5, self.cell_seed(0))
        self.trace_path = self.tmp / "observed.jsonl"
        self.bare = observe(run_simulation(self.config))

    def run_bare(self) -> float:
        from repro import run_simulation

        start = time.perf_counter()
        run_simulation(self.config)
        return time.perf_counter() - start

    def run_observed(self) -> tuple[Any, float]:
        from repro import JsonlSink, run_simulation

        start = time.perf_counter()
        result = run_simulation(
            self.config, sink=JsonlSink(self.trace_path), metrics=True, health=True)
        return result, time.perf_counter() - start

    def untraced_extras(self, untraced: Pass) -> dict[str, float]:
        """Telemetry-on over bare wall of the same config, interleaved."""
        bare, observed = [], []
        for _ in range(self.OVERHEAD_PAIRS):
            bare.append(self.run_bare())
            observed.append(self.run_observed()[1])
        return {"observability.telemetry_overhead_x":
                statistics.median(observed) / statistics.median(bare)}

    def one_pass(self) -> Pass:
        from repro import analyze_trace
        from repro.core.tracing import Trace
        from repro.observability.causality import CausalityGraph
        from repro.validator.replay import replay_simulation

        out = Pass(attempted=2)
        result, seconds = self.run_observed()
        start = time.perf_counter()
        report = self.timed("client.inspect.analyze_trace", analyze_trace, self.trace_path)
        graph = self.timed("client.causality.build", CausalityGraph.build, self.trace_path)
        ground_truth = Trace.from_jsonl(self.trace_path.read_text(encoding="utf-8"))
        replayed = self.timed("client.validator.replay", replay_simulation,
                              self.config, ground_truth)
        out.seconds = seconds + time.perf_counter() - start
        out.ops = result.events_processed
        observed = observe(result)
        out.cells["pbft-n32x5-observed"] = observed
        # Telemetry must not change the run, and the replay must agree.
        if observed["fingerprint"] != self.bare["fingerprint"]:
            out.failed += 1
            out.cells["pbft-n32x5-observed"]["error"] = "fingerprint differs from the bare run"
        if not (replayed.terminated and replayed.decided_values == result.decided_values
                and len(graph.decisions) and report.events == result.trace.sink.count):
            out.failed += 1
            out.cells["pbft-n32x5-observed"]["error"] = "read-back disagrees with the run"
        out.facts = result_facts([result])
        out.facts["observability.trace.records"] = result.trace.sink.count
        out.facts["observability.trace.bytes"] = self.trace_path.stat().st_size
        return out


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def repro_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` from this checkout's source tree."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


class FleetSweep(Workload):
    name = "fleet_sweep"
    why = ("python -m repro sweep, 24 pbft runs, --jobs 2 --store --health, as a cold "
           "subprocess: cli import, worker spawn, IPC/pickle and store writes, kernel nearly idle")

    VALUES = "16,32,64"
    REPS = 8

    def sweep_args(self, jobs: int, store: bool) -> list[str]:
        args = ["sweep", "--protocol", "pbft", "--param", "n", "--values", self.VALUES,
                "--reps", str(self.REPS), "--seed", str(self.cell_seed(0)),
                "--jobs", str(jobs)]
        if store:
            args += ["--store", str(self.store_path), "--health"]
        return args

    def setup(self) -> None:
        self.store_path = self.tmp / "fleet.sqlite"
        # The --jobs 1 reference every --jobs 2 pass is diffed against.
        done = repro_cli(*self.sweep_args(jobs=1, store=True), cwd=self.tmp)
        if done.returncode != 0:
            raise RuntimeError(f"reference sweep failed: {done.stderr.strip()}")
        self.reference = 1

    def timed_sweep(self, jobs: int, store: bool) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        done = self.timed("client.subprocess.sweep", repro_cli,
                          *self.sweep_args(jobs, store), cwd=self.tmp)
        return done, time.perf_counter() - start

    def one_pass(self) -> Pass:
        from repro.store import ExperimentStore

        runs_expected = self.REPS * len(self.VALUES.split(","))
        out = Pass(attempted=runs_expected)
        done, out.seconds = self.timed_sweep(jobs=2, store=True)
        if done.returncode != 0:
            out.failed = runs_expected
            out.cells["sweep-jobs2"] = {"error": done.stderr.strip()[-300:]}
            return out
        with ExperimentStore(str(self.store_path), create=False) as store:
            experiment = store.experiments()[0]
            rows = store.runs(experiment.id)
            diff = store.diff(self.reference, experiment.id)
        out.failed = sum(1 for row in rows if row.failed) + len(diff.mismatches)
        out.failed += abs(runs_expected - len(rows))
        out.ops = sum(row.events_processed or 0 for row in rows)
        out.cells["sweep-jobs2"] = {
            "events": out.ops,
            "messages": sum(row.messages or 0 for row in rows),
            "terminated": all(bool(row.terminated) for row in rows),
            "fingerprint": _digest([row.fingerprint or "" for row in rows]),
        }
        out.samples["run"] = [(row.wall_clock_seconds or 0.0) * 1e3 for row in rows]
        out.facts = {
            "core.controller.events": out.ops,
            "store.record_run_calls": len(rows),
        }
        return out


    def untraced_extras(self, stored: Pass) -> dict[str, float]:
        """Bare sweeps at one and two jobs beside the stored two-job pass."""
        from repro.store import ExperimentStore

        _done, serial = self.timed_sweep(jobs=1, store=False)
        _done, parallel = self.timed_sweep(jobs=2, store=False)
        with ExperimentStore(str(self.store_path), create=False) as store:
            rows = store.runs(store.experiments()[0].id)
        retries = sum((row.failure or {}).get("attempts", 1) - 1 for row in rows)
        return {
            "cli.sweep_wall_s": stored.seconds,
            "parallel.engine.speedup_x": serial / parallel,
            "parallel.engine.worker_busy_share": (
                sum(stored.samples["run"]) / 1e3 / (2 * stored.seconds)),
            "parallel.engine.retries": float(retries),
            "store.overhead_x": stored.seconds / parallel,
        }


class DashboardReads(Workload):
    name = "dashboard_reads"
    why = ("closed loop, one client, one connection at a time: the dashboard GET mix over "
           "a seeded store while a writer inserts 50 rows/s; serve and store reads beside writes")

    EXPERIMENTS = 10
    RUNS = 50
    WRITER_RATE = 50.0
    #: endpoint -> requests per pass (250 in all: 40/28/20/10/2 %).  The
    #: counts are exact and only order and ids come from the seed: drawing
    #: the kinds too moved a pass by +-7 % with the number of analysis
    #: requests it happened to hold.
    MIX = (("experiments", 100), ("experiment", 70), ("run", 50),
           ("health", 25), ("analysis", 5))

    def setup(self) -> None:
        from repro import JsonlSink, run_simulation
        from repro.serve import create_server
        from repro.store import ExperimentStore

        # The stored run is the same for every seed (order and ids of the
        # requests are what the seed draws): its health report and trace
        # length set the response sizes, and letting them vary with the seed
        # moved ops_per_s by +-10 % between seeds.
        self.config = _config("pbft", 8, 2, seed=1)
        trace_path = self.tmp / "dashboard.jsonl"
        self.result = run_simulation(self.config, sink=JsonlSink(trace_path), health=True)
        self.store_path = self.tmp / "dashboard.sqlite"
        self.store = ExperimentStore(str(self.store_path))
        self.run_ids: list[int] = []
        for e in range(self.EXPERIMENTS):
            experiment = self.store.create_experiment(f"seeded-{e}", "bench", self.config, self.RUNS)
            for index in range(self.RUNS):
                self.run_ids.append(self.store.record_run(
                    experiment, index, self.result, trace_path=str(trace_path)))
            self.store.finish_experiment(experiment)
        self.live = self.store.create_experiment("live", "bench", self.config, 0)
        self.live_rows = 0
        self.server = create_server(str(self.store_path), port=0)
        self.port = self.server.server_address[1]
        self.server_thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.server_thread.start()
        rng = random.Random(self.seed)
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        rng.shuffle(kinds)
        self.requests = [self.url(kind, rng) for kind in kinds]
        self.writer_stop = threading.Event()
        self.writer_late_ms: list[float] = []
        self.writer: threading.Thread | None = None

    def url(self, kind: str, rng: random.Random) -> tuple[str, str]:
        experiment = rng.randint(1, self.EXPERIMENTS)
        run = rng.choice(self.run_ids)
        return kind, {
            "experiments": "/api/experiments",
            "experiment": f"/api/experiments/{experiment}",
            "run": f"/api/runs/{run}",
            "health": f"/api/experiments/{experiment}/health",
            "analysis": f"/api/runs/{run}/analysis",
        }[kind]

    def start_writer(self) -> None:
        """Open loop: one row every 1/WRITER_RATE s on a fixed schedule,
        however long the previous insert took; lateness is recorded."""
        def write() -> None:
            period = 1.0 / self.WRITER_RATE
            due = time.perf_counter()
            while not self.writer_stop.is_set():
                delay = due - time.perf_counter()
                if delay > 0 and self.writer_stop.wait(delay):
                    return
                self.writer_late_ms.append(max(time.perf_counter() - due, 0.0) * 1e3)
                self.store.record_run(self.live, self.live_rows, self.result)
                self.live_rows += 1
                due += period

        self.writer = threading.Thread(target=write, daemon=True)
        self.writer.start()

    def stop_writer(self) -> None:
        self.writer_stop.set()
        if self.writer is not None:
            self.writer.join()
            self.writer = None
        self.writer_stop.clear()

    def close(self) -> None:
        self.stop_writer()
        self.server.shutdown()
        self.server_thread.join()
        self.server.server_close()
        self.store.close()

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def one_pass(self, writer: bool = True) -> Pass:
        out = Pass(attempted=len(self.requests))
        if writer:
            self.start_writer()
        size = 0
        try:
            for kind, path in self.requests:
                start = time.perf_counter()
                try:
                    status, body = self.timed(f"client.http.{kind}", self.get, path)
                except OSError:
                    status, body = 0, b""
                elapsed = time.perf_counter() - start
                out.seconds += elapsed
                out.samples.setdefault(kind, []).append(elapsed * 1e3)
                try:
                    payload = json.loads(body)
                except ValueError:
                    payload = None
                ok = status == 200 and isinstance(payload, dict)
                if ok and kind == "analysis" and not payload.get("available"):
                    ok = False
                if ok:
                    out.ops += 1
                    size += len(body)
                else:
                    out.failed += 1
        finally:
            if writer:
                self.stop_writer()
        out.cells["get-mix"] = {
            "requests": len(self.requests),
            "fingerprint": _digest([path for _kind, path in self.requests]),
        }
        out.facts = {
            "serve.bytes_per_response": size / max(out.ops, 1),
            "serve.non200": out.failed,
        }
        return out


    def untraced_extras(self, beside_writer: Pass) -> dict[str, float]:
        """Per-endpoint medians, and the same mix with the writer stopped."""
        from .harness import percentile

        late = list(self.writer_late_ms)
        quiet = self.one_pass(writer=False)
        everything = [ms for samples in beside_writer.samples.values() for ms in samples]
        quiet_all = [ms for samples in quiet.samples.values() for ms in samples]
        values = {
            "serve.request_p50_ms": statistics.median(everything),
            "serve.request_p95_ms": percentile(everything, 0.95),
            "serve.p50_with_writer_x": (
                statistics.median(everything) / statistics.median(quiet_all)),
            "store.writer_late_ms": statistics.median(late) if late else 0.0,
        }
        names = {"experiments": "serve.experiments_ms", "experiment": "serve.experiment_detail_ms",
                 "run": "serve.run_ms", "health": "serve.health_ms",
                 "analysis": "serve.analysis_ms"}
        for kind, name in names.items():
            if beside_writer.samples.get(kind):
                values[name] = statistics.median(beside_writer.samples[kind])
        return values


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Fig2Full, OverlayScale, SteadyProtocols, AdversarialLoad,
                ObservedRun, FleetSweep, DashboardReads)
}
