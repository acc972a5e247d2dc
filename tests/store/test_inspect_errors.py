"""Regression tests: ``repro inspect`` diagnoses bad trace references.

Both failure arms used to surface a raw ``FileNotFoundError`` from the
trace reader; they must instead explain what the user got wrong:

* a bare run id without ``--store`` is a filesystem path that does not
  exist — the error points at the ``store:<id>`` syntax;
* a stored run whose recorded trace pointer names a deleted file says so
  (run id and the stale pointer), instead of an open() traceback;
* a compressed trace cut short (a sink killed mid-write) is one ``error:``
  line naming the cut, whichever analyzer reads it first.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main

RUN_ARGS = ["--protocol", "pbft", "-n", "4", "--mean", "50", "--std", "10",
            "--lam", "500", "--decisions", "1"]


@pytest.fixture
def store_path(tmp_path) -> str:
    return str(tmp_path / "exp.sqlite")


def _store_one_run(store_path: str, trace: str | None = None) -> None:
    args = ["run", *RUN_ARGS, "--store", store_path]
    if trace is not None:
        args += ["--trace-out", trace]
    assert main(args) == 0


def test_bare_run_id_without_store_hints_at_store_syntax(capsys):
    assert main(["inspect", "42"]) == 1
    err = capsys.readouterr().err
    assert "trace file '42' does not exist" in err
    assert "store:42" in err
    assert "--store" in err
    assert "Traceback" not in err


def test_nonexistent_path_fails_cleanly(capsys):
    assert main(["inspect", "no/such/trace.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "trace file 'no/such/trace.jsonl' does not exist" in err
    assert "store:" not in err  # the hint is for run-id-shaped arguments


def test_deleted_trace_pointer_is_diagnosed(store_path, tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    _store_one_run(store_path, trace=trace)
    capsys.readouterr()
    os.remove(trace)
    assert main(["inspect", "store:1", "--store", store_path]) == 1
    err = capsys.readouterr().err
    assert "run 1 has no stored trace on disk" in err
    assert repr(trace) in err
    assert "moved or deleted" in err
    assert "Traceback" not in err


def test_run_without_trace_pointer_is_diagnosed(store_path, capsys):
    _store_one_run(store_path)  # no --trace-out: no pointer recorded
    capsys.readouterr()
    assert main(["inspect", "store:1", "--store", store_path]) == 1
    err = capsys.readouterr().err
    assert "run 1 recorded no trace pointer" in err
    assert "--trace-out" in err


def test_bare_run_id_with_store_reads_the_stored_trace(store_path, tmp_path,
                                                       capsys):
    trace = str(tmp_path / "t.jsonl")
    _store_one_run(store_path, trace=trace)
    capsys.readouterr()
    assert main(["inspect", "1", "--store", store_path]) == 0
    assert "trace:" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--quorum"], ["--health"]],
                         ids=["report", "quorum", "health"])
def test_truncated_gzip_trace_is_one_error_line(tmp_path, capsys, flags):
    trace = str(tmp_path / "t.jsonl.gz")
    assert main(["run", *RUN_ARGS, "--decisions", "3", "--trace-out", trace]) == 0
    with open(trace, "rb") as handle:
        data = handle.read()
    with open(trace, "wb") as handle:
        handle.write(data[: len(data) // 2])
    capsys.readouterr()
    assert main(["inspect", trace, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trace}: trace truncated after ")
    assert err.count("\n") == 1
