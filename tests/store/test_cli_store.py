"""CLI tests for the experiment-store surface: ``--store`` on run/sweep,
the ``experiments`` subcommands, store run-ids in ``inspect``, and
``mine --check``."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import main
from repro.store import ExperimentStore

RUN_ARGS = ["--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--lam", "500", "--decisions", "1"]


@pytest.fixture
def store_path(tmp_path) -> str:
    return str(tmp_path / "exp.sqlite")


def _recorded(store_path: str, experiment_id: int):
    store = ExperimentStore(store_path)
    try:
        return (
            store.experiment(experiment_id),
            store.runs(experiment_id),
        )
    finally:
        store.close()


class TestRunStore:
    def test_run_records_one_experiment(self, store_path, capsys):
        assert main(["run", *RUN_ARGS, "--store", store_path]) == 0
        experiment, runs = _recorded(store_path, 1)
        assert experiment.kind == "run"
        assert experiment.status == "complete"
        assert (experiment.done_runs, experiment.total_runs) == (1, 1)
        assert len(runs) == 1
        assert runs[0].fingerprint
        assert f"store: experiment 1 -> {store_path}" \
            in capsys.readouterr().err

    def test_run_records_trace_pointer(self, store_path, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["run", *RUN_ARGS, "--store", store_path, "--trace-out", trace]
        ) == 0
        _experiment, runs = _recorded(store_path, 1)
        assert runs[0].trace_path == trace

    def test_store_does_not_change_output_fingerprint(self, store_path,
                                                      capsys):
        assert main(["run", *RUN_ARGS, "--seed", "2022", "--json"]) == 0
        bare = json.loads(capsys.readouterr().out)
        assert main(["run", *RUN_ARGS, "--seed", "2022", "--json",
                     "--store", store_path]) == 0
        with_store = json.loads(capsys.readouterr().out)
        bare.pop("wall_clock_seconds")
        with_store.pop("wall_clock_seconds")
        assert bare == with_store


    def test_run_that_dies_is_closed_as_failed(self, store_path, capsys):
        assert main(["run", *RUN_ARGS, "--timeout", "0",
                     "--store", store_path]) == 1
        experiment, runs = _recorded(store_path, 1)
        assert experiment.status == "failed"
        assert runs == []

    def test_refused_mine_creates_no_experiment(self, store_path, capsys):
        assert main(["mine", *RUN_ARGS, "--jobs", "-3",
                     "--store", store_path]) == 1
        with ExperimentStore(store_path) as store:
            assert store.experiments() == []


class TestSweepStore:
    def test_sweep_records_grid(self, store_path, capsys):
        assert main([
            "sweep", *RUN_ARGS, "--param", "lam", "--values", "400,800",
            "--reps", "2", "--jobs", "2", "--store", store_path,
        ]) == 0
        experiment, runs = _recorded(store_path, 1)
        assert experiment.kind == "sweep"
        assert experiment.status == "complete"
        assert experiment.total_runs == 4
        assert [run.label for run in runs] == [
            "lam=400.0 rep 0", "lam=400.0 rep 1",
            "lam=800.0 rep 0", "lam=800.0 rep 1",
        ]
        assert [run.config["lam"] for run in runs] == [
            400.0, 400.0, 800.0, 800.0,
        ]


    @pytest.mark.parametrize(
        "bad",
        [
            ["--values", "400,800", "--reps", "0"],
            ["--values", "400,800", "--jobs", "-3"],
            ["--values", "abc"],
            ["--values", "400,800", "--timeout", "0"],
            ["--values", "400,800", "--protocol", "_test-raise"],
        ],
        ids=["reps-0", "jobs-negative", "values-abc", "timeout-0",
             "every-run-fails"],
    )
    def test_failing_sweep_leaves_no_running_experiment(
        self, store_path, capsys, bad
    ):
        import tests.core.test_parallel  # noqa: F401  registers _test-raise

        assert main(["sweep", *RUN_ARGS, "--param", "lam",
                     "--store", store_path, *bad]) == 1
        assert "error:" in capsys.readouterr().err
        main(["experiments", "list", "--store", store_path])
        assert "running" not in capsys.readouterr().out

    def test_refused_sweep_creates_no_experiment(self, store_path, capsys):
        """Options and grid are checked before the store row exists."""
        for bad in (["--reps", "0"], ["--jobs", "-3"], ["--values", "abc"]):
            assert main(["sweep", *RUN_ARGS, "--param", "lam", "--values",
                         "400", "--store", store_path, *bad]) == 1
        with ExperimentStore(store_path) as store:
            assert store.experiments() == []

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("n", "4.7", "--param n takes whole numbers, got 4.7"),
            ("colour", "1", "unsupported sweep parameter: colour"),
            ("rate", "100", "--param rate requires --workload"),
        ],
    )
    def test_bad_param_is_one_error_line(self, capsys, param, values, message):
        assert main(["sweep", *RUN_ARGS, "--param", param,
                     "--values", values]) == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestExperimentsCommands:
    def _populate(self, store_path: str) -> None:
        assert main(["run", *RUN_ARGS, "--store", store_path]) == 0
        assert main(["run", *RUN_ARGS, "--store", store_path]) == 0
        assert main(["run", *RUN_ARGS, "--seed", "9",
                     "--store", store_path]) == 0

    def test_list(self, store_path, capsys):
        self._populate(store_path)
        assert main(["experiments", "list", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "pbft run" in out
        assert "complete" in out

    def test_list_json(self, store_path, capsys):
        self._populate(store_path)
        capsys.readouterr()
        assert main(["experiments", "list", "--store", store_path,
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["experiments"]) == 3

    def test_show(self, store_path, capsys):
        self._populate(store_path)
        assert main(["experiments", "show", "1", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "experiment 1: pbft run" in out
        assert "1/1 runs" in out

    def test_show_names_a_corrupt_column(self, store_path, capsys):
        self._populate(store_path)
        conn = sqlite3.connect(store_path)
        with conn:
            conn.execute("UPDATE runs SET attachments_json = '{bad' WHERE id = 2")
        conn.close()
        capsys.readouterr()
        assert main(["experiments", "show", "2", "--store", store_path]) == 1
        assert capsys.readouterr().err == (
            "error: run 2: stored attachments_json is not valid JSON (Expecting "
            "property name enclosed in double quotes: line 1 column 2 (char 1))\n")

    def test_diff_identical_exit_zero(self, store_path, capsys):
        self._populate(store_path)
        assert main(["experiments", "diff", "1", "2",
                     "--store", store_path]) == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_diff_mismatch_exit_two(self, store_path, capsys):
        self._populate(store_path)
        assert main(["experiments", "diff", "1", "3",
                     "--store", store_path]) == 2
        assert "differ" in capsys.readouterr().out

    def test_missing_store_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "nope" / "exp.sqlite")
        assert main(["experiments", "list", "--store", missing]) == 1
        assert "error:" in capsys.readouterr().err

    def test_browsing_never_creates_a_store(self, tmp_path, capsys):
        # A typo'd path in a directory that exists must error, not
        # materialize an empty database.
        missing = str(tmp_path / "typo.sqlite")
        assert main(["experiments", "list", "--store", missing]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "typo.sqlite").exists()


HUGE_ID = "99999999999999999999"  # past sqlite's INTEGER range


class TestOutOfRangeIds:
    @pytest.mark.parametrize("argv, message", [
        (["experiments", "show", HUGE_ID], f"no experiment with id {HUGE_ID}"),
        (["experiments", "diff", "1", HUGE_ID],
         f"no experiment with id {HUGE_ID}"),
        (["inspect", f"store:{HUGE_ID}"], f"no run with id {HUGE_ID}"),
        (["watch", "--experiment", HUGE_ID, "--once"],
         f"no experiment with id {HUGE_ID}"),
    ], ids=["show", "diff", "inspect", "watch"])
    def test_one_error_line(self, store_path, capsys, argv, message):
        assert main(["run", *RUN_ARGS, "--store", store_path]) == 0
        capsys.readouterr()
        if argv[0] == "watch":
            argv = [argv[0], store_path, *argv[1:]]
        else:
            argv = [*argv, "--store", store_path]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


class TestInspectStoreRunId:
    def _run_with_trace(self, store_path: str, tmp_path) -> str:
        trace = str(tmp_path / "t.jsonl")
        assert main(["run", *RUN_ARGS, "--store", store_path,
                     "--trace-out", trace]) == 0
        return trace

    def test_store_prefixed_run_id(self, store_path, tmp_path, capsys):
        self._run_with_trace(store_path, tmp_path)
        assert main(["inspect", "store:1", "--store", store_path]) == 0
        assert "trace:" in capsys.readouterr().out

    def test_bare_run_id_with_store_flag(self, store_path, tmp_path, capsys):
        self._run_with_trace(store_path, tmp_path)
        capsys.readouterr()
        assert main(["inspect", "1", "--store", store_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["decides"] > 0

    def test_run_without_trace_errors(self, store_path, capsys):
        assert main(["run", *RUN_ARGS, "--store", store_path]) == 0
        capsys.readouterr()
        assert main(["inspect", "store:1", "--store", store_path]) == 1
        assert "error:" in capsys.readouterr().err


class TestMineCheckCLI:
    def _make_artifact(self, tmp_path) -> str:
        path = str(tmp_path / "artifact.json")
        code = main([
            "mine", *RUN_ARGS, "--generations", "1", "--population", "2",
            "--out", path,
        ])
        assert code == 0
        return path

    def test_check_fresh_artifact_passes(self, tmp_path, capsys):
        path = self._make_artifact(tmp_path)
        capsys.readouterr()
        assert main(["mine", "--check", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_detects_tampered_ratio(self, tmp_path, capsys):
        path = self._make_artifact(tmp_path)
        with open(path, encoding="utf-8") as handle:
            artifact = json.load(handle)
        artifact["winner"]["median_latency"] *= 2
        artifact["winner"]["ratio_vs_baseline"] *= 2
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle)
        capsys.readouterr()
        assert main(["mine", "--check", path]) == 2
        assert "DRIFT" in capsys.readouterr().out

    def test_check_json_output(self, tmp_path, capsys):
        path = self._make_artifact(tmp_path)
        capsys.readouterr()
        assert main(["mine", "--check", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["fresh_ratio"] == pytest.approx(data["stored_ratio"])


class TestServeCLIParsing:
    def test_serve_rejects_missing_store_file(self, tmp_path, capsys):
        missing = str(tmp_path / "sub" / "exp.sqlite")
        assert main(["serve", "--store", missing, "--port", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_never_creates_a_store(self, tmp_path, capsys):
        missing = str(tmp_path / "typo.sqlite")
        assert main(["serve", "--store", missing, "--port", "0"]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "typo.sqlite").exists()
