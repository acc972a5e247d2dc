"""Dashboard server tests: endpoint JSON schemas, trace-backed analysis,
degradation without traces, and 404 behavior — all over a real socket."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.runner import run_simulation
from repro.serve import create_server
from repro.serve.server import run_analysis
from repro.store import ExperimentStore, StoreRecorder
from tests.conftest import quick_config


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
        assert excinfo.value.code == 404
        assert "99999999999999999999" in json.load(excinfo.value)["error"]

    def test_unknown_route_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(served, "/api/nope")
        assert excinfo.value.code == 404


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
