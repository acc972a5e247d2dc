"""Unit tests for the sqlite experiment store: round trips, schema
versioning, progress counters, and fingerprint diffing."""

from __future__ import annotations

import json
import sqlite3
from dataclasses import asdict, fields

import pytest

from repro.cli import main
from repro.core.config import AttackConfig
from repro.core.results import RunFailure, result_attachments, result_fingerprint
from repro.core.runner import run_simulation
from repro.faults import parse_faults_spec
from repro.workload import parse_workload_spec
from repro.store import (
    SCHEMA_VERSION,
    ExperimentStore,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
)
from tests.conftest import quick_config


@pytest.fixture
def store(tmp_path) -> ExperimentStore:
    handle = ExperimentStore(tmp_path / "exp.sqlite")
    yield handle
    handle.close()


def _result(seed: int = 1, **kwargs):
    return run_simulation(quick_config(seed=seed, **kwargs))


def _failure(seed: int = 1, run_index: int = 0) -> RunFailure:
    return RunFailure(
        config=quick_config(seed=seed),
        kind="error",
        error_type="ValueError",
        message="synthetic",
        run_index=run_index,
        traceback="Traceback: synthetic",
    )


class TestRoundTrip:
    def test_result_row_round_trips(self, store):
        config = quick_config()
        result = _result()
        experiment_id = store.create_experiment("rt", "run", config, 1)
        run_id = store.record_run(experiment_id, 0, result, label="rep 0")

        row = store.run(run_id)
        assert row.run_index == 0
        assert row.label == "rep 0"
        assert row.status == "ok"
        assert row.seed == config.seed
        assert row.protocol == config.protocol
        assert row.config == config.to_dict()
        assert row.fingerprint == result_fingerprint(result)
        assert row.terminated is True
        assert row.stalled is False
        assert row.latency == result.latency
        assert row.latency_per_decision == result.latency_per_decision
        assert row.messages == result.messages
        assert row.messages_per_decision == result.messages_per_decision
        assert row.events_processed == result.events_processed
        assert row.max_view == result.max_view
        assert row.failure is None

    def test_failure_row_round_trips(self, store):
        experiment_id = store.create_experiment("rt", "run", quick_config(), 1)
        run_id = store.record_run(experiment_id, 0, _failure())
        row = store.run(run_id)
        assert row.status == "failed"
        assert row.failed
        assert row.fingerprint is None
        assert row.latency is None
        assert row.failure["error_type"] == "ValueError"
        assert row.failure["message"] == "synthetic"

    def test_progress_counters_update_per_run(self, store):
        experiment_id = store.create_experiment("p", "run", quick_config(), 3)
        assert store.experiment(experiment_id).done_runs == 0
        store.record_run(experiment_id, 0, _result())
        assert store.experiment(experiment_id).done_runs == 1
        store.record_run(experiment_id, 1, _failure(run_index=1))
        row = store.experiment(experiment_id)
        assert (row.done_runs, row.failed_runs) == (2, 1)
        assert row.running  # still open until finish_experiment

    def test_finish_experiment_status_inference(self, store):
        ok = store.create_experiment("ok", "run", quick_config(), 1)
        store.record_run(ok, 0, _result())
        store.finish_experiment(ok)
        assert store.experiment(ok).status == "complete"

        bad = store.create_experiment("bad", "run", quick_config(), 1)
        store.record_run(bad, 0, _failure())
        store.finish_experiment(bad)
        assert store.experiment(bad).status == "failed"

    def test_duplicate_run_index_rejected(self, store):
        experiment_id = store.create_experiment("d", "run", quick_config(), 2)
        store.record_run(experiment_id, 0, _result())
        with pytest.raises(StoreError):
            store.record_run(experiment_id, 0, _result())

    def test_signals_summary_round_trips(self, store):
        from repro.core.config import AttackConfig

        config = quick_config(
            attack=AttackConfig(name="adaptive", params={"signal": "busiest"})
        )
        result = run_simulation(config)
        assert result.signals_summary is not None
        experiment_id = store.create_experiment("s", "run", config, 1)
        run_id = store.record_run(experiment_id, 0, result)
        assert store.run(run_id).attachments["signals"] == result.signals_summary

    def test_trace_path_round_trip_and_missing(self, store, tmp_path):
        experiment_id = store.create_experiment("t", "run", quick_config(), 2)
        trace = str(tmp_path / "trace.jsonl")
        with_trace = store.record_run(
            experiment_id, 0, _result(), trace_path=trace
        )
        without = store.record_run(experiment_id, 1, _result(seed=2))
        assert store.trace_path(with_trace) == trace
        with pytest.raises(StoreError):
            store.trace_path(without)

    def test_artifacts_round_trip(self, store):
        experiment_id = store.create_experiment("a", "mine", quick_config(), 1)
        store.record_artifact(
            experiment_id, "mining-winner", name="mined-001",
            path="out.json", payload={"score": 12.5},
        )
        rows = store.artifacts(experiment_id)
        assert len(rows) == 1
        assert rows[0].kind == "mining-winner"
        assert rows[0].payload == {"score": 12.5}
        assert rows[0].path == "out.json"

    def test_set_progress_overwrites_counters(self, store):
        experiment_id = store.create_experiment("m", "mine", quick_config(), 5)
        store.set_progress(experiment_id, 3)
        assert store.experiment(experiment_id).done_runs == 3
        store.set_progress(experiment_id, 4, total_runs=8)
        row = store.experiment(experiment_id)
        assert (row.done_runs, row.total_runs) == (4, 8)

    def test_experiments_listed_newest_first(self, store):
        first = store.create_experiment("one", "run", quick_config(), 1)
        second = store.create_experiment("two", "run", quick_config(), 1)
        assert [row.id for row in store.experiments()] == [second, first]

    def test_unknown_ids_raise(self, store):
        with pytest.raises(StoreError):
            store.experiment(99)
        with pytest.raises(StoreError):
            store.run(99)
        with pytest.raises(StoreError):
            store.diff(1, 2)

    def test_ids_past_the_integer_range_name_no_row(self, store):
        huge = 10**20
        experiment_id = store.create_experiment("r", "run", quick_config(), 1)
        with pytest.raises(StoreError, match=f"no experiment with id {huge}"):
            store.experiment(huge)
        with pytest.raises(StoreError, match=f"no experiment with id {huge}"):
            store.runs(huge)
        with pytest.raises(StoreError, match=f"no experiment with id {huge}"):
            store.diff(experiment_id, huge)
        with pytest.raises(StoreError, match=f"no run with id {huge}"):
            store.run(huge)
        with pytest.raises(StoreError, match=f"no run with id {huge}"):
            store.trace_path(huge)


class TestPersistence:
    def test_store_survives_reopen(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        store = ExperimentStore(path)
        experiment_id = store.create_experiment("p", "run", quick_config(), 1)
        run_id = store.record_run(experiment_id, 0, _result())
        fingerprint = store.run(run_id).fingerprint
        store.close()

        reopened = ExperimentStore(path)
        try:
            assert reopened.run(run_id).fingerprint == fingerprint
            assert reopened.experiment(experiment_id).name == "p"
        finally:
            reopened.close()


class TestReadOnlyOpen:
    def test_create_false_rejects_missing_path(self, tmp_path):
        missing = tmp_path / "missing.sqlite"
        with pytest.raises(StoreError, match="does not exist"):
            ExperimentStore(missing, create=False)
        assert not missing.exists()

    def test_create_false_opens_existing_store(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ExperimentStore(path).close()
        store = ExperimentStore(path, create=False)
        assert store.experiments() == []
        store.close()


class TestSchemaVersioning:
    def test_schema_version_recorded(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        try:
            value = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()[0]
        finally:
            conn.close()
        assert int(value) == SCHEMA_VERSION

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "exp.sqlite"
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError):
            ExperimentStore(path)

    def test_v3_store_is_refused_naming_both_versions(self, tmp_path):
        path = tmp_path / "v3.sqlite"
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value = '3' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        assert SCHEMA_VERSION == 4
        with pytest.raises(
            StoreSchemaError, match="schema version 3, this version of repro reads 4"
        ):
            ExperimentStore(path)

    def test_store_written_before_profile_json_was_dropped_still_works(self, tmp_path):
        """Same schema version, one extra nullable ``runs`` column: inserts
        name their columns, so the older file records and reads back."""
        from repro.store.store import _SCHEMA

        failure_column = "    failure_json         TEXT,\n"
        older_ddl = _SCHEMA.replace(
            failure_column, failure_column + "    profile_json         TEXT,\n"
        )
        assert older_ddl != _SCHEMA
        path = tmp_path / "older.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(older_ddl)
        conn.execute(
            "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        conn.commit()
        conn.close()

        store = ExperimentStore(path, create=False)
        try:
            result = _result()
            experiment_id = store.create_experiment("older", "run", quick_config(), 2)
            run_id = store.record_run(experiment_id, 0, result)
            store.record_run(experiment_id, 1, _failure(run_index=1))
            assert store.run(run_id).fingerprint == result_fingerprint(result)
            assert [row.status for row in store.runs(experiment_id)] == ["ok", "failed"]
        finally:
            store.close()

    def test_non_store_database_rejected(self, tmp_path):
        path = tmp_path / "other.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreSchemaError):
            ExperimentStore(path)


class TestDiff:
    def test_identical_experiments_diff_clean(self, store):
        a = store.create_experiment("a", "run", quick_config(), 2)
        b = store.create_experiment("b", "run", quick_config(), 2)
        for experiment_id in (a, b):
            store.record_run(experiment_id, 0, _result(seed=1))
            store.record_run(experiment_id, 1, _result(seed=2))
        diff = store.diff(a, b)
        assert diff.identical
        assert diff.mismatches == []
        assert "IDENTICAL" in diff.summary()

    def test_differing_seed_shows_up(self, store):
        a = store.create_experiment("a", "run", quick_config(), 1)
        b = store.create_experiment("b", "run", quick_config(), 1)
        store.record_run(a, 0, _result(seed=1))
        store.record_run(b, 0, _result(seed=3))
        diff = store.diff(a, b)
        assert not diff.identical
        assert len(diff.mismatches) == 1
        assert diff.rows[0].a != diff.rows[0].b

    def test_missing_slot_is_a_mismatch(self, store):
        a = store.create_experiment("a", "run", quick_config(), 2)
        b = store.create_experiment("b", "run", quick_config(), 2)
        store.record_run(a, 0, _result(seed=1))
        store.record_run(a, 1, _result(seed=2))
        store.record_run(b, 0, _result(seed=1))
        diff = store.diff(a, b)
        assert not diff.identical
        assert [row.run_index for row in diff.mismatches] == [1]

    def test_failed_run_never_matches(self, store):
        a = store.create_experiment("a", "run", quick_config(), 1)
        b = store.create_experiment("b", "run", quick_config(), 1)
        store.record_run(a, 0, _failure())
        store.record_run(b, 0, _failure())
        assert not store.diff(a, b).identical

    def test_diff_reads_no_stored_json_of_the_runs(self, store):
        """A diff compares fingerprints and latencies only, so a run whose
        attachments no longer decode still diffs, and diffs the same."""
        a = store.create_experiment("a", "run", quick_config(), 2)
        b = store.create_experiment("b", "run", quick_config(), 2)
        for experiment_id, seeds in ((a, (1, 2)), (b, (1, 3))):
            for index, seed in enumerate(seeds):
                store.record_run(experiment_id, index, _result(seed=seed))
        before = store.diff(a, b).to_dict()
        store._conn.execute("UPDATE runs SET attachments_json = '{bad'")
        store._conn.commit()
        with pytest.raises(StoreCorruptError):
            store.runs(a)
        assert store.diff(a, b).to_dict() == before
        assert [row.match for row in store.diff(a, b).rows] == [True, False]


class TestHealthColumns:
    """The run-health report is the ``health`` key of the attachments map."""

    def test_health_report_round_trips(self, store):
        result = run_simulation(quick_config(), health=True)
        assert result.health is not None
        experiment_id = store.create_experiment("health", "run", quick_config(), 1)
        run_id = store.record_run(experiment_id, 0, result)

        row = store.run(run_id)
        assert row.attachments == {"health": result.health.to_dict()}

    def test_unmonitored_run_stores_nulls(self, store):
        result = _result()
        assert result.health is None
        experiment_id = store.create_experiment("plain", "run", quick_config(), 1)
        run_id = store.record_run(experiment_id, 0, result)
        assert store.run(run_id).attachments == {}

    def test_failure_row_has_no_health(self, store):
        experiment_id = store.create_experiment("fail", "run", quick_config(), 1)
        run_id = store.record_run(experiment_id, 0, _failure())
        assert store.run(run_id).attachments == {}

    def test_anomalous_run_round_trips_events(self, store):
        config = quick_config(num_decisions=1).replace(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            faults=parse_faults_spec("delay=0.7x6"),
            allow_horizon=True,
        )
        result = run_simulation(config, health=250.0)
        assert result.health.anomaly_count > 0
        experiment_id = store.create_experiment("anomalous", "run", config, 1)
        row = store.run(store.record_run(experiment_id, 0, result))
        health = row.attachments["health"]
        assert health["anomaly_count"] == result.health.anomaly_count
        assert health["min_fairness"] == pytest.approx(result.health.min_fairness)
        assert health["events"] == [e.to_dict() for e in result.health.events]


#: Every layer ``result_attachments`` names.
LAYERS = {"fault_counts", "stall", "metrics", "signals", "workload", "health"}

#: case -> (config, run options, the layers the run carries).  Between them
#: the cases carry every layer.
LAYER_CASES = {
    "faults-and-stall": (
        quick_config(
            lam=300.0, std=15.0, seed=3, max_time=600_000.0,
            faults=parse_faults_spec("loss=1.0"), stall_timeout=20_000.0,
        ),
        {},
        {"fault_counts", "stall"},
    ),
    "metrics": (quick_config(), {"metrics": True}, {"metrics"}),
    "signals": (
        quick_config(
            attack=AttackConfig(name="adaptive", params={"signal": "busiest"})
        ),
        {},
        {"signals"},
    ),
    "workload-and-health": (
        quick_config(
            workload=parse_workload_spec("rate:60,clients:6,batch:8,duration:2000"),
            allow_horizon=True,
        ),
        {"health": True},
        {"workload", "health"},
    ),
}


class TestAttachments:
    """One map per run: what ``result_attachments`` returns is what the
    store keeps and what ``repro run --json`` prints."""

    def test_cases_carry_every_layer(self):
        assert set().union(*(case[2] for case in LAYER_CASES.values())) == LAYERS

    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    def test_stored_map_is_result_attachments(self, case, tmp_path):
        config, options, layers = LAYER_CASES[case]
        result = run_simulation(config, **options)
        attachments = result_attachments(result)
        assert set(attachments) == layers
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            experiment_id = store.create_experiment(case, "run", config, 1)
            row = store.run(store.record_run(experiment_id, 0, result))
        assert row.attachments == json.loads(json.dumps(attachments, sort_keys=True))
        assert not LAYERS & set(row.to_dict())

    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    def test_run_json_prints_the_stored_map(self, case, tmp_path, capsys):
        config, options, layers = LAYER_CASES[case]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        store_path = str(tmp_path / "exp.sqlite")
        main(["run", "--config", str(config_path), "--json",
              "--store", store_path, *(f"--{name}" for name in options)])
        printed = json.loads(capsys.readouterr().out)
        with ExperimentStore(store_path, create=False) as store:
            stored = store.runs(1)[0].attachments
        assert set(stored) == layers
        assert {key: printed[key] for key in LAYERS & set(printed)} == stored


#: A run label with non-ASCII text, a quote and a backslash.
ODD_LABEL = 'réplica "7" \\ ω'


def record_row_shapes(path) -> None:
    """Record every row shape the dashboard serves into the store at
    ``path``: completed, stalled and failed runs (NULL ``attachments_json``,
    a ``failure_json``); fault, stall, workload and health attachments; a
    label holding non-ASCII text, ``"`` and ``\\``; a latency of ``inf``;
    an attachment holding NaN; and an artifact with a nested payload."""
    with ExperimentStore(path) as store:
        sweep = store.create_experiment(
            "rows", "sweep", quick_config(), 3,
            params={"param": "lam", "values": [400, 800], "reps": {"n": 2}},
        )
        for index, case in enumerate(("faults-and-stall", "workload-and-health")):
            config, options, _layers = LAYER_CASES[case]
            store.record_run(sweep, index, run_simulation(config, **options))
        store.record_run(sweep, 2, _failure(run_index=2))
        store.finish_experiment(sweep)
        other = store.create_experiment("other", "run", quick_config(), 3)
        odd = store.record_run(other, 0, _result(), label=ODD_LABEL)
        nan = store.record_run(other, 1, _result(seed=2))
        store.record_artifact(
            other, "winner", name="w", path="w.json",
            payload={"lineage": [{"gen": 0, "ratio": 1.5}], "tags": ["a", None]},
        )
    conn = sqlite3.connect(path)
    with conn:
        # sqlite keeps inf in a REAL column but stores NaN as NULL, so the
        # NaN row reads back latency None; NaN inside a JSON column stays.
        conn.execute("UPDATE runs SET latency = ? WHERE id = ?", (float("inf"), odd))
        conn.execute(
            "UPDATE runs SET latency = ?, attachments_json = ? WHERE id = ?",
            (float("nan"), json.dumps({"metrics": {"p": float("nan")}}), nan),
        )
    conn.close()


class TestRowDicts:
    """``to_dict()`` is a shallow dict of the fields (plus the derived key):
    it serializes exactly as ``dataclasses.asdict`` did, key order included,
    without copying the decoded values.  The ``*_texts`` queries render
    every row as ``json.dumps(row.to_dict())`` without decoding it."""

    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rowdicts") / "exp.sqlite"
        record_row_shapes(path)
        store = ExperimentStore(path, create=False)
        yield store
        store.close()

    @staticmethod
    def _assert_same(row, reference) -> None:
        assert json.dumps(row.to_dict()) == json.dumps(reference)
        assert (json.dumps(row.to_dict(), sort_keys=True)
                == json.dumps(reference, sort_keys=True))

    def test_experiment_rows(self, seeded):
        rows = seeded.experiments()
        assert rows[-1].params["values"] == [400, 800]
        for row in rows:
            reference = asdict(row)
            reference["progress"] = row.done_runs / row.total_runs
            self._assert_same(row, reference)
            assert row.to_dict()["config"] is row.config

    def test_run_rows(self, seeded):
        runs = seeded.runs(1)
        assert set(runs[0].attachments) == {"fault_counts", "stall"}
        assert runs[0].stalled
        assert set(runs[1].attachments) == {"workload", "health"}
        assert runs[2].failure["message"] == "synthetic"
        assert runs[2].attachments == {}
        for row in runs + seeded.runs(2):
            self._assert_same(row, asdict(row))
            assert row.to_dict()["attachments"] is row.attachments

    def test_row_texts_are_the_dumped_dicts(self, seeded):
        experiments = seeded.experiments()
        assert seeded.experiment_texts() == [
            json.dumps(row.to_dict()) for row in experiments]
        for experiment in experiments:
            assert seeded.experiment_text(experiment.id) == json.dumps(
                experiment.to_dict())
            runs = seeded.runs(experiment.id)
            assert seeded.run_texts(experiment.id) == [
                json.dumps(row.to_dict()) for row in runs]
            for row in runs:
                assert seeded.run_text(row.id) == json.dumps(row.to_dict())
            assert seeded.artifact_texts(experiment.id) == [
                json.dumps(row.to_dict()) for row in seeded.artifacts(experiment.id)]

    def test_the_texts_cover_every_shape(self, seeded):
        assert '"progress": 0.6666666666666666}' in seeded.experiment_text(2)
        texts = [seeded.run_text(run_id) for run_id in range(1, 6)]
        assert '"stalled": true' in texts[0]
        assert '"attachments": {}' in texts[2] and '"failure": {' in texts[2]
        assert json.loads(texts[3])["label"] == ODD_LABEL
        assert '"latency": Infinity' in texts[3]
        assert '"latency": null' in texts[4] and '"p": NaN' in texts[4]
        (artifact,) = seeded.artifact_texts(2)
        assert json.loads(artifact)["payload"]["lineage"][0]["ratio"] == 1.5

    def test_run_attachments_are_the_decoded_maps(self, seeded):
        for experiment in (1, 2):
            assert seeded.run_attachments(experiment) == [
                (row.id, row.run_index, row.attachments)
                for row in seeded.runs(experiment)]

    @pytest.mark.parametrize("column", ["config_json", "attachments_json",
                                        "failure_json"])
    def test_a_corrupt_run_column_is_named(self, store, column):
        experiment = store.create_experiment("c", "run", quick_config(), 1)
        run_id = store.record_run(experiment, 0, _result())
        store._conn.execute(
            f"UPDATE runs SET {column} = '{{bad' WHERE id = ?", (run_id,))
        store._conn.commit()
        readers = [lambda: store.run(run_id), lambda: store.runs(experiment),
                   lambda: store.run_text(run_id),
                   lambda: store.run_texts(experiment)]
        if column == "attachments_json":
            readers.append(lambda: store.run_attachments(experiment))
        for read in readers:
            with pytest.raises(StoreCorruptError) as excinfo:
                read()
            assert str(excinfo.value).startswith(
                f"run {run_id}: stored {column} is not valid JSON (")

    @pytest.mark.parametrize("column", ["config_json", "params_json"])
    def test_a_corrupt_experiment_column_is_named(self, store, column):
        experiment = store.create_experiment("c", "run", quick_config(), 1)
        store._conn.execute(f"UPDATE experiments SET {column} = '[1,'")
        store._conn.commit()
        for read in (store.experiments, lambda: store.experiment(experiment),
                     store.experiment_texts,
                     lambda: store.experiment_text(experiment)):
            with pytest.raises(StoreCorruptError, match=(
                    f"^experiment {experiment}: stored {column} is not valid")):
                read()

    def test_artifact_rows(self, seeded):
        (row,) = seeded.artifacts(2)
        assert row.payload["lineage"][0]["ratio"] == 1.5
        self._assert_same(row, asdict(row))

    def test_experiment_diff(self, seeded):
        diff = seeded.diff(1, 2)
        reference = {
            "a": {**asdict(diff.a), "progress": 1.0},
            "b": {**asdict(diff.b), "progress": 2 / 3},
            "identical": diff.identical,
            "rows": [{**asdict(row), "match": row.match} for row in diff.rows],
        }
        assert json.dumps(diff.to_dict()) == json.dumps(reference)
        assert (json.dumps(diff.to_dict(), sort_keys=True)
                == json.dumps(reference, sort_keys=True))


def _typed(mapping: dict) -> dict:
    """``mapping`` with each value paired with its type (``1 != True``)."""
    return {key: (type(value), value) for key, value in mapping.items()}


class TestColumnMapping:
    """Each column lands in its own field.  A row written through raw SQL
    with a distinct value in every column must read back value for value,
    as the row object and as the response text: the texts are compared
    with the rows elsewhere, and two products of one mapping cannot catch
    a column mapped to the wrong field."""

    @staticmethod
    def _insert(store: ExperimentStore, table: str, columns: dict) -> None:
        store._conn.execute(
            f"INSERT INTO {table} ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            list(columns.values()),
        )
        store._conn.commit()

    @staticmethod
    def _assert_reads(row, text: str, expected: dict) -> None:
        attributes = {f.name: getattr(row, f.name) for f in fields(row)}
        assert _typed(attributes) == _typed(
            {key: expected[key] for key in attributes})
        assert _typed(json.loads(text)) == _typed(expected)
        assert list(json.loads(text)) == list(expected)

    def _experiment(self, store: ExperimentStore) -> None:
        self._insert(store, "experiments", {
            "id": 3, "name": "n", "kind": "k", "status": "complete",
            "created_at": 1.5, "finished_at": 2.5,
            "config_json": '{"c": 1}', "params_json": '{"p": 2}',
            "total_runs": 8, "done_runs": 6, "failed_runs": 4,
            "stalled_runs": 5,
        })

    def test_experiment_columns(self, store):
        self._experiment(store)
        expected = {
            "id": 3, "name": "n", "kind": "k", "status": "complete",
            "created_at": 1.5, "finished_at": 2.5,
            "config": {"c": 1}, "params": {"p": 2},
            "total_runs": 8, "done_runs": 6, "failed_runs": 4,
            "stalled_runs": 5, "progress": 0.75,
        }
        self._assert_reads(
            store.experiment(3), store.experiment_text(3), expected)
        self._assert_reads(
            store.experiments()[0], store.experiment_texts()[0], expected)

    def test_run_columns(self, store):
        self._experiment(store)
        self._insert(store, "runs", {
            "id": 11, "experiment_id": 3, "run_index": 2, "label": "l",
            "status": "ok", "seed": 9, "protocol": "pbft",
            "config_json": '{"c": 1}', "fingerprint": "f",
            "terminated": 1, "stalled": 0, "latency": 1.5,
            "latency_per_decision": 2.5, "messages": 13,
            "messages_per_decision": 4.5, "events_processed": 16,
            "max_view": 17, "wall_clock_seconds": 8.5,
            "attachments_json": '{"a": 1}', "failure_json": '{"f": 2}',
            "trace_path": "t.jsonl",
        })
        expected = {
            "id": 11, "experiment_id": 3, "run_index": 2, "label": "l",
            "status": "ok", "seed": 9, "protocol": "pbft",
            "config": {"c": 1}, "fingerprint": "f",
            "terminated": True, "stalled": False, "latency": 1.5,
            "latency_per_decision": 2.5, "messages": 13,
            "messages_per_decision": 4.5, "events_processed": 16,
            "max_view": 17, "wall_clock_seconds": 8.5,
            "attachments": {"a": 1}, "failure": {"f": 2},
            "trace_path": "t.jsonl",
        }
        self._assert_reads(store.run(11), store.run_text(11), expected)
        self._assert_reads(store.runs(3)[0], store.run_texts(3)[0], expected)
        assert store.run_attachments(3) == [(11, 2, {"a": 1})]

    def test_artifact_columns(self, store):
        self._experiment(store)
        self._insert(store, "artifacts", {
            "id": 4, "experiment_id": 3, "kind": "winner", "name": "w",
            "path": "p.json", "payload_json": '{"x": 1}',
        })
        expected = {
            "id": 4, "experiment_id": 3, "kind": "winner", "name": "w",
            "path": "p.json", "payload": {"x": 1},
        }
        self._assert_reads(
            store.artifacts(3)[0], store.artifact_texts(3)[0], expected)
