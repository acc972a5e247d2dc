"""Dashboard server tests: endpoint JSON schemas, trace-backed analysis,
degradation without traces, and 404 behavior — all over a real socket."""

from __future__ import annotations

import json
import os
import select
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.runner import run_simulation
from repro.serve import DashboardHandler, create_server
from repro.serve.server import _WAITING, fleet_health, run_analysis
from repro.store import ExperimentStore, StoreRecorder
from tests.conftest import quick_config
from tests.store.test_store import record_row_shapes


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One populated store behind a live server, shared by the module."""
    tmp = tmp_path_factory.mktemp("serve")
    store_path = str(tmp / "exp.sqlite")
    trace_path = str(tmp / "run0.jsonl")

    config = quick_config(num_decisions=2, record_trace=True)
    traced = run_simulation(config)
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(traced.trace.to_jsonl())

    store = ExperimentStore(store_path)
    recorder = StoreRecorder.open(
        store, "served", "run", config, 2, trace_paths={0: trace_path}
    )
    recorder(0, traced)
    recorder(1, run_simulation(config.replace(seed=config.seed + 1)))
    recorder.finish()
    open_recorder = StoreRecorder.open(  # a second, still-running experiment
        store, "in-flight", "run", config, 5
    )
    open_recorder(0, traced)
    store.close()

    server = create_server(store_path, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        assert response.headers["Content-Type"].startswith("application/json")
        return json.load(response)


@pytest.fixture(scope="module")
def served_shapes(tmp_path_factory):
    """Every row shape of ``record_row_shapes`` behind a live server, and
    a handle on the same file for the ``to_dict()`` references."""
    store_path = str(tmp_path_factory.mktemp("shapes") / "exp.sqlite")
    record_row_shapes(store_path)
    server, thread, base = _serve(store_path)
    with ExperimentStore(store_path, create=False) as store:
        yield base, store
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def reference_bodies(store: ExperimentStore) -> dict[str, dict]:
    """Every row route's answer, built from ``to_dict()`` rows."""
    experiments = store.experiments()
    bodies = {"/api/experiments": {
        "experiments": [row.to_dict() for row in experiments]}}
    for experiment in experiments:
        runs = store.runs(experiment.id)
        base = f"/api/experiments/{experiment.id}"
        bodies[base] = {
            "experiment": experiment.to_dict(),
            "runs": [row.to_dict() for row in runs],
            "artifacts": [row.to_dict() for row in store.artifacts(experiment.id)],
        }
        bodies[base + "/health"] = fleet_health(
            (row.id, row.run_index, row.attachments) for row in runs)
        for other in experiments:
            bodies[f"{base}/diff/{other.id}"] = store.diff(
                experiment.id, other.id).to_dict()
        for row in runs:
            bodies[f"/api/runs/{row.id}"] = {"run": row.to_dict()}
    return bodies


class TestEndpoints:
    def test_page_is_html_with_embedded_script(self, served):
        with urllib.request.urlopen(served + "/") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            page = response.read().decode()
        assert "<script>" in page
        assert "/api/experiments" in page  # the page drives the JSON API

    def test_meta_schema(self, served):
        data = get_json(served, "/api/meta")
        assert set(data) == {"store", "schema_version", "version"}
        assert isinstance(data["schema_version"], int)

    def test_experiments_schema(self, served):
        data = get_json(served, "/api/experiments")
        assert set(data) == {"experiments"}
        assert len(data["experiments"]) == 2
        for row in data["experiments"]:
            assert {"id", "name", "kind", "status", "total_runs",
                    "done_runs", "failed_runs", "stalled_runs",
                    "progress"} <= set(row)
        # Newest first: the in-flight experiment leads.
        assert data["experiments"][0]["status"] == "running"
        assert data["experiments"][0]["progress"] == pytest.approx(0.2)

    def test_experiment_detail_schema(self, served):
        data = get_json(served, "/api/experiments/1")
        assert set(data) == {"experiment", "runs", "artifacts"}
        assert data["experiment"]["status"] == "complete"
        assert len(data["runs"]) == 2
        run = data["runs"][0]
        assert {"id", "run_index", "status", "seed", "fingerprint",
                "latency_per_decision", "trace_path"} <= set(run)
        assert run["trace_path"]  # run 0 carries the trace pointer

    def test_run_schema(self, served):
        data = get_json(served, "/api/runs/1")
        assert set(data) == {"run"}
        assert data["run"]["id"] == 1
        assert data["run"]["fingerprint"]
        assert data["run"]["attachments"] == {}
        # Per-layer outputs live only in the map, never beside it.
        assert not {"fault_counts", "stall", "metrics", "signals", "workload",
                    "health", "anomaly_count", "min_fairness",
                    "committed_tx_s", "saturated"} & set(data["run"])

    def test_analysis_from_stored_trace(self, served):
        data = get_json(served, "/api/runs/1/analysis")
        assert data["available"] is True
        assert {"report", "quorums", "critical_paths", "phases"} <= set(data)
        assert data["report"]["decides"] > 0
        assert data["quorums"], "pbft decisions must yield quorum timelines"
        for quorum in data["quorums"]:
            assert {"slot", "node", "msg_type", "quorum_size",
                    "first_arrival", "closed_at", "straggler",
                    "wasted"} <= set(quorum)
        for path in data["critical_paths"]:
            assert {"slot", "node", "hops", "duration", "steps"} <= set(path)
            assert path["steps"], "critical paths carry their hop chain"
        assert data["phases"]["totals"], "pbft annotates phases"
        for entry in data["phases"]["per_view"]:
            assert {"view", "node", "durations"} <= set(entry)

    def test_analysis_degrades_without_trace(self, served):
        data = get_json(served, "/api/runs/2/analysis")
        assert data == {"available": False, "reason": "run recorded no trace"}

    def test_diff_schema(self, served):
        data = get_json(served, "/api/experiments/1/diff/2")
        assert set(data) == {"a", "b", "identical", "rows"}
        assert data["identical"] is False  # 2 vs 5 slots can't all match
        assert all({"run_index", "a", "b", "match"} <= set(row)
                   for row in data["rows"])

    def test_unknown_ids_are_json_404(self, served):
        for path in ("/api/experiments/99", "/api/runs/99",
                     "/api/runs/99/analysis", "/api/experiments/1/diff/99"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(served, path)
            with excinfo.value:
                assert excinfo.value.code == 404
                assert "error" in json.load(excinfo.value)

    @pytest.mark.parametrize("path", [
        "/api/runs/99999999999999999999",
        "/api/runs/99999999999999999999/analysis",
        "/api/experiments/99999999999999999999",
        "/api/experiments/99999999999999999999/health",
        "/api/experiments/1/diff/99999999999999999999",
    ])
    def test_ids_past_the_integer_range_are_json_404(self, served, path):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(served, path)
        with excinfo.value:
            assert excinfo.value.code == 404
            assert "99999999999999999999" in json.load(excinfo.value)["error"]

    def test_unknown_route_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(served, "/api/nope")
        with excinfo.value:
            assert excinfo.value.code == 404

    def test_row_routes_answer_the_dumped_references(self, served_shapes):
        base, store = served_shapes
        bodies = reference_bodies(store)
        assert len(bodies) == 1 + 2 * (1 + 1 + 2) + 5  # list; detail, health, diffs; runs
        assert bodies["/api/experiments/1/health"]["monitored_runs"] == 1
        for path, reference in bodies.items():
            with urllib.request.urlopen(base + path) as response:
                assert response.read() == json.dumps(reference).encode(), path

    def test_a_corrupt_column_is_a_json_500_naming_it(self, tmp_path, capsys):
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            experiment = store.create_experiment("bad", "run", quick_config(), 1)
            run_id = store.record_run(experiment, 0, run_simulation(quick_config()))
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute("UPDATE runs SET attachments_json = '{bad'")
        conn.close()
        server, thread, base = _serve(store_path)
        try:
            for path in (f"/api/runs/{run_id}", f"/api/experiments/{experiment}",
                         f"/api/experiments/{experiment}/health",
                         f"/api/runs/{run_id}/analysis"):
                code, body = get_error(base, path)
                assert code == 500, path
                assert body["error"].startswith(
                    f"run {run_id}: stored attachments_json is not valid JSON ("), path
            assert get_json(base, "/api/experiments")["experiments"][0]["name"] == "bad"
            # A diff reads fingerprints and latencies, never the attachments.
            diff = get_json(base, f"/api/experiments/{experiment}/diff/{experiment}")
            assert diff["identical"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert "Traceback" not in capsys.readouterr().err


class TestCreateServer:
    def test_rejects_schema_mismatch_up_front(self, tmp_path):
        import sqlite3

        from repro.store import SCHEMA_VERSION, StoreSchemaError

        path = str(tmp_path / "future.sqlite")
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError):
            create_server(path, port=0)


@pytest.fixture(scope="module")
def served_health(tmp_path_factory):
    """A store whose runs carry health reports, behind a live server."""
    from repro.faults import parse_faults_spec
    from repro.workload import parse_workload_spec

    tmp = tmp_path_factory.mktemp("serve_health")
    store_path = str(tmp / "health.sqlite")
    config = quick_config(num_decisions=1).replace(
        workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
        faults=parse_faults_spec("delay=0.7x6"),
        allow_horizon=True,
    )
    store = ExperimentStore(store_path)
    recorder = StoreRecorder.open(store, "monitored", "run", config, 2)
    recorder(0, run_simulation(config, health=250.0))
    recorder(1, run_simulation(config.replace(seed=config.seed + 1), health=250.0))
    recorder.finish()
    plain = StoreRecorder.open(store, "unmonitored", "run", config, 1)
    plain(0, run_simulation(quick_config()))
    plain.finish()
    store.close()

    server = create_server(store_path, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestHealthEndpoint:
    def test_schema_and_timeline(self, served_health):
        data = get_json(served_health, "/api/experiments/1/health")
        assert set(data) == {"monitored_runs", "anomaly_total", "min_fairness",
                             "detectors", "anomalies"}
        assert data["monitored_runs"] == 2
        assert data["anomaly_total"] > 0
        assert 0.0 <= data["min_fairness"] <= 1.0
        assert "starvation" in data["detectors"]
        assert sum(data["detectors"].values()) == data["anomaly_total"]
        times = [a["time"] for a in data["anomalies"]]
        assert times == sorted(times)  # one merged fleet timeline
        for anomaly in data["anomalies"]:
            assert {"time", "detector", "severity", "nodes", "clients",
                    "evidence", "run_index", "run_id"} <= set(anomaly)

    def test_unmonitored_experiment_reports_empty(self, served_health):
        data = get_json(served_health, "/api/experiments/2/health")
        assert data["monitored_runs"] == 0
        assert data["anomaly_total"] == 0
        assert data["min_fairness"] is None
        assert data["anomalies"] == []

    def test_run_rows_carry_health_columns(self, served_health):
        data = get_json(served_health, "/api/experiments/1")
        for run in data["runs"]:
            assert set(run["attachments"]) == {"fault_counts", "workload", "health"}
            assert run["attachments"]["health"]["anomaly_count"] > 0
            assert "anomaly_count" not in run and "health" not in run

    def test_unknown_experiment_is_404(self, served_health):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(served_health, "/api/experiments/99/health")
        with excinfo.value:
            assert excinfo.value.code == 404

    def test_page_renders_health_panel(self, served_health):
        with urllib.request.urlopen(served_health + "/") as response:
            page = response.read().decode()
        assert "healthView" in page  # dashboard wires the health endpoint
        assert "/health" in page


class TestRunAnalysisDegrades:
    """A stored trace that cannot be analyzed answers ``available: false``."""

    def _trace(self, path) -> str:
        from repro import JsonlSink

        run_simulation(quick_config(num_decisions=3), sink=JsonlSink(str(path)))
        return str(path)

    def test_truncated_gzip_trace(self, tmp_path):
        path = self._trace(tmp_path / "run.jsonl.gz")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        data = run_analysis(path)
        assert data["available"] is False
        assert "trace truncated after" in data["reason"]

    def test_ill_typed_record(self, tmp_path):
        path = self._trace(tmp_path / "run.jsonl")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        first = json.loads(lines[0])
        first["node"] = [1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        data = run_analysis(path)
        assert data["available"] is False
        assert data["reason"].startswith("trace unreadable:")


def _serve(store_path: str):
    """A started server and its base URL."""
    server = create_server(store_path, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://127.0.0.1:{server.server_address[1]}"


def _handler_threads(monkeypatch) -> list[threading.Thread]:
    """The thread of each connection handled from now on, in order."""
    threads: list[threading.Thread] = []
    setup = DashboardHandler.setup

    def recording_setup(handler) -> None:
        threads.append(threading.current_thread())
        setup(handler)

    monkeypatch.setattr(DashboardHandler, "setup", recording_setup)
    return threads


def get_error(base: str, path: str) -> tuple[int, dict]:
    """The status and JSON body of a request that must fail."""
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        get_json(base, path)
    with excinfo.value as error:
        return error.code, json.load(error)


def _live(rows: list[dict], name: str) -> dict:
    (row,) = [row for row in rows if row["name"] == name]
    return row


class TestWatchesWriters:
    """The server watches a database others are writing: every request
    sees the file now at the path, as it was at the last commit."""

    @pytest.fixture
    def watched(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            live = store.create_experiment("live", "run", quick_config(), 3)
            store.record_run(live, 0, run_simulation(quick_config()))
        server, thread, base = _serve(store_path)
        yield store_path, base
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_runs_recorded_through_another_handle_show_up(self, watched):
        store_path, base = watched
        assert get_json(base, "/api/experiments")["experiments"][0]["done_runs"] == 1
        with ExperimentStore(store_path, create=False) as writer:
            writer.record_run(1, 1, run_simulation(quick_config(seed=2)))
            listed = get_json(base, "/api/experiments")["experiments"][0]
            detail = get_json(base, "/api/experiments/1")
        assert listed["done_runs"] == 2
        assert detail["experiment"]["done_runs"] == 2
        assert [run["run_index"] for run in detail["runs"]] == [0, 1]

    def test_a_cli_run_in_another_process_shows_up(self, watched):
        import repro

        store_path, base = watched
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        process = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--protocol", "pbft",
             "-n", "4", "--mean", "50", "--std", "10", "--lam", "500",
             "--decisions", "1", "--store", store_path],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert process.returncode == 0, process.stderr
        rows = get_json(base, "/api/experiments")["experiments"]
        assert [row["id"] for row in rows] == [2, 1]
        assert rows[0]["done_runs"] == rows[0]["total_runs"] == 1
        detail = get_json(base, "/api/experiments/2")
        assert detail["experiment"]["done_runs"] == 1
        assert len(detail["runs"]) == 1

    def test_no_read_transaction_outlives_a_request(self, watched):
        store_path, base = watched
        with ExperimentStore(store_path, create=False) as writer:
            writer.record_run(1, 1, run_simulation(quick_config(seed=2)))
        for path in ("/api/experiments", "/api/experiments/1", "/api/runs/1",
                     "/api/experiments/1/health", "/api/experiments/1/diff/1"):
            get_json(base, path)
        conn = sqlite3.connect(store_path, timeout=0.5)
        try:
            busy, _log, _done = conn.execute(
                "PRAGMA wal_checkpoint(TRUNCATE)"
            ).fetchone()
        finally:
            conn.close()
        assert busy == 0  # a reader's open snapshot would block TRUNCATE

    def test_deleted_store_is_a_json_404_naming_the_path(self, watched):
        store_path, base = watched
        get_json(base, "/api/experiments")
        os.remove(store_path)
        for path in ("/api/experiments", "/api/experiments/1", "/api/runs/1"):
            code, body = get_error(base, path)
            assert code == 404 and store_path in body["error"]
        assert not os.path.exists(store_path)  # never re-materialized

    def test_replaced_store_serves_the_new_rows(self, watched, tmp_path):
        store_path, base = watched
        assert _live(get_json(base, "/api/experiments")["experiments"], "live")
        fresh = str(tmp_path / "fresh.sqlite")
        with ExperimentStore(fresh) as store:
            for name in ("first", "second"):
                store.create_experiment(name, "run", quick_config(), 2)
        os.replace(fresh, store_path)
        rows = get_json(base, "/api/experiments")["experiments"]
        assert [row["name"] for row in rows] == ["second", "first"]
        assert get_json(base, "/api/experiments/1")["runs"] == []

    def test_a_foreign_replacement_is_a_json_404(self, watched, tmp_path):
        store_path, base = watched
        get_json(base, "/api/experiments")
        foreign = str(tmp_path / "foreign.sqlite")
        conn = sqlite3.connect(foreign)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        os.replace(foreign, store_path)
        code, body = get_error(base, "/api/experiments")
        assert code == 404 and "not an experiment store" in body["error"]


class TestConcurrentReaders:
    """Many request threads share the server's store handle while a writer
    records runs as fast as it can."""

    CLIENTS = 8  # more than the cores
    REQUESTS = 40

    def test_readers_beside_a_writer(self, tmp_path, capsys):
        store_path = str(tmp_path / "exp.sqlite")
        result = run_simulation(quick_config())
        with ExperimentStore(store_path) as store:
            done = store.create_experiment("done", "run", quick_config(), 1)
            store.record_run(done, 0, result)
            store.finish_experiment(done)
            live = store.create_experiment("live", "run", quick_config(), 0)
        # The live experiment grows by hundreds of runs a second, so the
        # routes that read all of an experiment's runs ask for the done one.
        routes = ["/api/experiments", f"/api/experiments/{done}", "/api/runs/1",
                  f"/api/experiments/{done}/health",
                  f"/api/experiments/{done}/diff/{done}"]
        server, thread, base = _serve(store_path)
        stop = threading.Event()
        errors: list[str] = []

        def write() -> None:
            with ExperimentStore(store_path, create=False) as writer:
                index = 0
                while not stop.is_set():
                    writer.record_run(live, index, result)
                    index += 1

        def read(client: int) -> None:
            seen = -1
            try:
                for i in range(self.REQUESTS):
                    path = routes[(client + i) % len(routes)]
                    with urllib.request.urlopen(base + path, timeout=30) as response:
                        assert response.status == 200
                        data = json.load(response)
                    assert isinstance(data, dict)
                    if "experiments" in data:
                        done_runs = _live(data["experiments"], "live")["done_runs"]
                        assert done_runs >= seen, (done_runs, seen)
                        seen = done_runs
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"client {client}: {exc!r}")

        def hammer(answers: list[int]) -> None:
            try:
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(base + routes[1], timeout=5) as response:
                            assert isinstance(json.load(response), dict)
                            answers.append(response.status)
                    except urllib.error.HTTPError as error:
                        with error:
                            assert isinstance(json.load(error), dict)
                        answers.append(error.code)
            except OSError:  # the listening socket is gone
                pass
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(f"late client: {exc!r}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write)
        try:
            writer.start()
            clients = [threading.Thread(target=read, args=(c,))
                       for c in range(self.CLIENTS)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
                assert not client.is_alive()
            assert not errors, errors
            # Close while clients are still asking.
            answers: list[int] = []
            late = [threading.Thread(target=hammer, args=(answers,))
                    for _ in range(2)]
            for client in late:
                client.start()
            deadline = time.monotonic() + 10
            while len(answers) < 10 and time.monotonic() < deadline:
                time.sleep(0.01)
            server.shutdown()
            server.server_close()
            stop.set()
            for client in late + [writer]:
                client.join(timeout=30)
                assert not client.is_alive()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert not errors, errors
            assert len(answers) >= 10 and set(answers) <= {200, 503}
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        with ExperimentStore(store_path, create=False) as store:
            assert store.experiment(live).done_runs > 0
        assert "Traceback" not in capsys.readouterr().err


    def test_a_burst_of_connects_is_answered_at_once(self, served):
        """20 clients connect and GET at the same instant: each answers well
        inside the 1-s SYN retransmit a backlog shorter than the burst
        costs the connects it drops."""
        clients = 20
        barrier = threading.Barrier(clients)
        took: list[float] = []

        def client() -> None:
            barrier.wait()
            start = time.monotonic()
            if len(get_json(served, "/api/experiments")["experiments"]) == 2:
                took.append(time.monotonic() - start)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(took) == clients
        assert max(took) < 0.5, sorted(took)

    def test_a_request_racing_server_close_is_a_json_503(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            store.create_experiment("one", "run", quick_config(), 1)
        server, thread, base = _serve(store_path)
        store = server.store
        inside, release = threading.Event(), threading.Event()
        run_texts = store.run_texts

        def blocked_run_texts(experiment_id):
            inside.set()
            release.wait(timeout=10)
            return run_texts(experiment_id)

        store.run_texts = blocked_run_texts
        answers: list = []

        def ask() -> None:
            answers.append(get_error(base, "/api/experiments/1"))

        client = threading.Thread(target=ask)
        client.start()
        assert inside.wait(timeout=10)
        server.shutdown()
        server.server_close()
        release.set()
        client.join(timeout=10)
        assert not client.is_alive()
        thread.join(timeout=5)
        assert not thread.is_alive()
        ((code, body),) = answers
        assert code == 503 and "store handle closed" in body["error"]
        with pytest.raises(sqlite3.ProgrammingError):
            server.store  # noqa: B018


class TestAcceptThreads:
    """Request threads are reused: no thread starts per connection, and
    the ones a burst needed exit once it is over."""

    GET = b"GET /api/experiments HTTP/1.0\r\n\r\n"

    @pytest.fixture
    def store_path(self, tmp_path):
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            store.create_experiment("one", "run", quick_config(), 1)
        return store_path

    def test_sequential_gets_start_no_thread(self, store_path, monkeypatch):
        server, thread, base = _serve(store_path)
        try:
            for _ in range(5):  # the waiting threads start
                assert _status(_raw(base, self.GET)) == 200
            started: list[threading.Thread] = []
            start = threading.Thread.start

            def counted_start(new: threading.Thread) -> None:
                started.append(new)
                start(new)

            monkeypatch.setattr(threading.Thread, "start", counted_start)
            for _ in range(50):  # each read to the server's hang-up
                assert _status(_raw(base, self.GET)) == 200
            assert started == []
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_threads_a_burst_took_exit_after_it(self, store_path, monkeypatch):
        """10 clients held open at once hold 10 threads; once they hang up
        and a few GETs follow, the server holds only its waiting threads
        (plus the thread blocked in serve_forever)."""
        handled = _handler_threads(monkeypatch)
        before = set(threading.enumerate())
        server, thread, base = _serve(store_path)
        held: list[socket.socket] = []
        try:
            for count in range(1, 11):
                held.append(socket.create_connection(
                    ("127.0.0.1", server.server_address[1])))
                deadline = time.monotonic() + 10
                while len(handled) < count:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            assert len(set(handled)) == 10
            for sock in held:
                sock.close()
            for _ in range(5):
                assert _status(_raw(base, self.GET)) == 200
            deadline = time.monotonic() + 10
            while len(set(threading.enumerate()) - before) > 1 + _WAITING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            for sock in held:
                sock.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


def _raw(base: str, data: bytes) -> bytes:
    """Send raw bytes; everything the server answers before hanging up."""
    host, port = base.rsplit("/", 1)[1].split(":")
    chunks = []
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        try:
            sock.sendall(data)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # the server hung up on unread input
            pass
    return b"".join(chunks)


def _status(response: bytes) -> int:
    assert response.startswith(b"HTTP/1.0 "), response[:80]
    return int(response.split()[1])


class TestHostileRequests:
    """Malformed requests, pinned as they are answered today."""

    @pytest.mark.parametrize("method", ["HEAD", "POST", "PUT", "DELETE"])
    def test_other_methods_are_501(self, served, method):
        response = _raw(
            served, f"{method} /api/experiments HTTP/1.0\r\n\r\n".encode())
        assert _status(response) == 501

    @pytest.mark.parametrize("path", [
        b"/api/runs/abc", b"/api/experiments/1x", b"/api/runs/\xd9\xa1",
        b"/api/runs/%D9%A1", b"/api/experiments/-1",
    ])
    def test_ids_that_are_not_ascii_digits_are_json_404(self, served, path):
        response = _raw(served, b"GET " + path + b" HTTP/1.0\r\n\r\n")
        assert _status(response) == 404
        assert "error" in json.loads(response.partition(b"\r\n\r\n")[2])

    def test_a_70kb_request_line_is_414(self, served):
        response = _raw(
            served, b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n")
        assert _status(response) == 414

    @pytest.mark.parametrize("line", [b"GARBAGE", b"\x00\xff\xfe junk here",
                                      b"GET / HTTP/9"])
    def test_a_garbage_request_line_is_400(self, served, line):
        # No version could be read, so the answer is HTTP/0.9 style: the
        # error page alone, without a status line.
        response = _raw(served, line + b"\r\n\r\n")
        assert not response.startswith(b"HTTP/")
        assert b"Error code: 400" in response

    def test_150_headers_are_431(self, served):
        headers = b"".join(b"X-Header-%d: v\r\n" % i for i in range(150))
        response = _raw(served, b"GET /api/meta HTTP/1.0\r\n" + headers + b"\r\n")
        assert _status(response) == 431

    def test_a_70kb_header_line_is_431(self, served):
        response = _raw(served, b"GET /api/meta HTTP/1.0\r\nX-Big: "
                        + b"a" * 70_000 + b"\r\n\r\n")
        assert _status(response) == 431

    def test_silent_clients_block_no_get_and_their_threads_exit(
        self, tmp_path, monkeypatch
    ):
        """20 connections that send half a request and fall silent: each
        holds its own thread, a GET beside them answers, and once the
        server is closed their handler threads exit after the read
        timeout, though the clients never hang up."""
        assert 0 < DashboardHandler.timeout <= 60
        monkeypatch.setattr(DashboardHandler, "timeout", 2.0)
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            store.create_experiment("one", "run", quick_config(), 1)
        handled = _handler_threads(monkeypatch)
        server, thread, base = _serve(store_path)
        silent: list[socket.socket] = []
        try:
            # One at a time, so each is counted once its handler starts.
            for count in range(1, 21):
                silent.append(socket.create_connection(
                    ("127.0.0.1", server.server_address[1])))
                silent[-1].sendall(b"GET /api/experiments HTTP/1.0\r\nHost: x\r\n")
                deadline = time.monotonic() + 10
                while len(handled) < count:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            handlers = set(handled)
            assert len(handlers) == 20
            start = time.monotonic()
            assert len(get_json(base, "/api/experiments")["experiments"]) == 1
            assert time.monotonic() - start < DashboardHandler.timeout
            assert all(handler.is_alive() for handler in handlers)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            assert not thread.is_alive()
            for handler in handlers:
                handler.join(timeout=10)
                assert not handler.is_alive()
            for sock in silent:
                sock.settimeout(5)
                assert sock.recv(1) == b""  # hung up, no answer
        finally:
            for sock in silent:
                sock.close()

    def test_a_trickling_client_is_hung_up_on_at_the_deadline(
        self, tmp_path, monkeypatch
    ):
        """A client sending one byte every 0.3 s never lets a single read
        wait out the timeout, but the timeout bounds the whole request:
        it is hung up on, unanswered, once the timeout has passed."""
        monkeypatch.setattr(DashboardHandler, "timeout", 1.0)
        store_path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(store_path) as store:
            store.create_experiment("one", "run", quick_config(), 1)
        server, thread, _base = _serve(store_path)
        answer, hung_up = b"", None
        try:
            with socket.create_connection(
                    ("127.0.0.1", server.server_address[1])) as sock:
                start = time.monotonic()
                for byte in b"GET /api/experiments HTTP/1.0\r\nHost: x\r\n\r\n":
                    if time.monotonic() - start > 3:
                        break
                    try:
                        sock.sendall(bytes([byte]))
                        if select.select([sock], [], [], 0.3)[0]:
                            chunk = sock.recv(65536)
                            answer += chunk
                            if not chunk:
                                hung_up = time.monotonic() - start
                                break
                    except (BrokenPipeError, ConnectionResetError):
                        hung_up = time.monotonic() - start
                        break
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert hung_up is not None and hung_up < 1.5, hung_up
        assert answer == b""

    def test_a_good_get_still_answers_after_them(self, served):
        for data in (b"DELETE / HTTP/1.0\r\n\r\n", b"GARBAGE\r\n\r\n",
                     b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n"):
            _raw(served, data)
        assert len(get_json(served, "/api/experiments")["experiments"]) == 2
