"""The sqlite-backed experiment repository.

Every run of the simulator is a deterministic function of its configuration,
which makes stored results *reproducible claims*: a row that records the
configuration JSON, the seed, and the ``result_fingerprint`` is enough to
re-run the experiment anywhere and byte-compare the outcome.  The
:class:`ExperimentStore` persists exactly that — plus the decision/latency
metrics, the run's per-layer outputs (one ``attachments`` map: faults,
stall, metrics, signals, workload, health), and
pointers to on-disk JSONL traces and mining artifacts — so results survive
the process that produced them and can be listed, diffed, and browsed later
(``repro experiments``, ``repro serve``).

Design rules:

* **Opt-in and fingerprint-neutral.**  Recording happens strictly *after* a
  run completes, from the result object; the engine never sees the store.
  Attaching a store changes no RNG draw and no result field — the golden
  digests are byte-identical with and without it (a dedicated test runs the
  golden configurations through a recorder and compares).
* **Stdlib only.**  ``sqlite3`` ships with CPython; there is no ORM, no
  migration framework — one schema version, checked on open, rejected on
  mismatch (:class:`StoreSchemaError`) rather than silently migrated.
* **Concurrent-writer safe.**  The store serializes its own writes behind a
  lock and opens sqlite in WAL mode with a busy timeout, so several
  runners/threads (e.g. two ``ParallelRunner`` fleets) can record into one
  file; progress counters are updated in the same transaction as the run
  row, so a dashboard poll never observes a half-recorded run.
* **One description per table, rows served as stored.**  Each table is
  described once (``_Table``: the row dataclass's fields, the stored JSON
  columns and what stands for their NULL), and every query reads through
  that description in one of two forms.  Row objects come from the plain
  columns, with the JSON decoded.  Every JSON column is written as
  ``json.dumps(sort_keys=True)``, so re-encoding its decoded value gives the
  stored text back; the ``*_texts`` queries use that to render each row as
  the text of ``json.dumps(row.to_dict())`` with the stored JSON spliced in,
  decoding nothing, and the dashboard joins those texts into its responses.
  ``to_dict()`` stays the reference they are tested against.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, Callable, NamedTuple

from ..core.config import SimulationConfig
from ..core.errors import SimulationError
from ..core.results import (
    RunFailure,
    SimulationResult,
    result_attachments,
    result_fingerprint,
)

#: Current on-disk schema version.  Bump on any incompatible change; the
#: store refuses files written by other versions instead of guessing.
#: v2: throughput columns for workload runs.  v3: run-health columns.
#: v4: the per-layer columns and their scalar copies become one
#: ``attachments_json`` map (:func:`~repro.core.results.result_attachments`);
#: a new layer is a new key in it, not a column or a version.
SCHEMA_VERSION = 4

#: Experiment lifecycle states.
EXPERIMENT_STATUSES = ("running", "complete", "failed")


class StoreError(SimulationError):
    """The experiment store was misused or the file is not a store."""


class StoreSchemaError(StoreError):
    """The store file was written by an incompatible schema version."""


class StoreCorruptError(StoreError):
    """A stored value does not parse; the message names its row and column."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    name         TEXT NOT NULL,
    kind         TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'running',
    created_at   REAL NOT NULL,
    finished_at  REAL,
    config_json  TEXT NOT NULL,
    params_json  TEXT NOT NULL DEFAULT '{}',
    total_runs   INTEGER NOT NULL DEFAULT 0,
    done_runs    INTEGER NOT NULL DEFAULT 0,
    failed_runs  INTEGER NOT NULL DEFAULT 0,
    stalled_runs INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS runs (
    id                   INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id        INTEGER NOT NULL REFERENCES experiments(id),
    run_index            INTEGER NOT NULL,
    label                TEXT NOT NULL DEFAULT '',
    status               TEXT NOT NULL,
    seed                 INTEGER NOT NULL,
    protocol             TEXT NOT NULL,
    config_json          TEXT NOT NULL,
    fingerprint          TEXT,
    terminated           INTEGER,
    stalled              INTEGER NOT NULL DEFAULT 0,
    latency              REAL,
    latency_per_decision REAL,
    messages             INTEGER,
    messages_per_decision REAL,
    events_processed     INTEGER,
    max_view             INTEGER,
    wall_clock_seconds   REAL,
    attachments_json     TEXT,
    failure_json         TEXT,
    trace_path           TEXT,
    UNIQUE (experiment_id, run_index)
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs(experiment_id);
CREATE TABLE IF NOT EXISTS artifacts (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    kind          TEXT NOT NULL,
    name          TEXT NOT NULL DEFAULT '',
    path          TEXT,
    payload_json  TEXT
);
CREATE INDEX IF NOT EXISTS idx_artifacts_experiment ON artifacts(experiment_id);
"""


def _json(value: Any) -> str | None:
    """Compact sorted JSON, or ``None`` for ``None`` (SQL NULL)."""
    if value is None:
        return None
    return json.dumps(value, sort_keys=True, default=repr)


def _loads(text: str, row: str, column: str) -> Any:
    """The decoded column; :class:`StoreCorruptError` names ``row`` and
    ``column`` when the stored text is not JSON."""
    try:
        return json.loads(text)
    except ValueError as error:
        raise StoreCorruptError(
            f"{row}: stored {column} is not valid JSON ({error})"
        ) from error


def _id(value: int, what: str) -> int:
    """``value`` as a row id; one past sqlite's INTEGER range names no row."""
    value = int(value)
    if not -(2**63) <= value < 2**63:
        raise StoreError(f"no {what} with id {value}")
    return value


@dataclass(frozen=True)
class ExperimentRow:
    """One stored experiment (a batch of runs recorded together)."""

    id: int
    name: str
    kind: str
    status: str
    created_at: float
    finished_at: float | None
    config: dict[str, Any]
    params: dict[str, Any]
    total_runs: int
    done_runs: int
    failed_runs: int
    stalled_runs: int

    @property
    def running(self) -> bool:
        return self.status == "running"

    def to_dict(self) -> dict[str, Any]:
        """The fields as a shallow dict, plus ``progress``; it shares the
        row's decoded ``config`` and ``params``, which are read-only."""
        data = dict(vars(self))
        data["progress"] = (
            self.done_runs / self.total_runs if self.total_runs else 0.0
        )
        return data


@dataclass(frozen=True)
class RunRow:
    """One stored run: metrics, per-layer outputs, and reproduction
    coordinates.  ``attachments`` is the run's
    :func:`~repro.core.results.result_attachments` map as stored (``{}``
    for a failure or a run that carried no optional layer)."""

    id: int
    experiment_id: int
    run_index: int
    label: str
    status: str
    seed: int
    protocol: str
    config: dict[str, Any]
    fingerprint: str | None
    terminated: bool | None
    stalled: bool
    latency: float | None
    latency_per_decision: float | None
    messages: int | None
    messages_per_decision: float | None
    events_processed: int | None
    max_view: int | None
    wall_clock_seconds: float | None
    attachments: dict[str, Any] = field(default_factory=dict)
    failure: dict[str, Any] | None = None
    trace_path: str | None = None

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_dict(self) -> dict[str, Any]:
        """The fields as a shallow dict; it shares the row's decoded
        ``config``, ``attachments`` and ``failure``, which are read-only."""
        return dict(vars(self))


@dataclass(frozen=True)
class ArtifactRow:
    """One stored artifact pointer/payload (mining winners, lineage...)."""

    id: int
    experiment_id: int
    kind: str
    name: str
    path: str | None
    payload: Any

    def to_dict(self) -> dict[str, Any]:
        """The fields as a shallow dict; it shares the row's decoded
        ``payload``, which is read-only."""
        return dict(vars(self))


@dataclass(frozen=True)
class RunDiff:
    """One run-index slot compared between two experiments."""

    run_index: int
    a: str | None  # fingerprint in experiment A (None: missing/failed)
    b: str | None
    a_latency: float | None = None
    b_latency: float | None = None

    @property
    def match(self) -> bool:
        return self.a is not None and self.a == self.b

    def to_dict(self) -> dict[str, Any]:
        """The fields as a shallow dict, plus ``match``."""
        data = dict(vars(self))
        data["match"] = self.match
        return data


@dataclass
class ExperimentDiff:
    """Fingerprint-level comparison of two stored experiments."""

    a: ExperimentRow
    b: ExperimentRow
    rows: list[RunDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return bool(self.rows) and all(row.match for row in self.rows)

    @property
    def mismatches(self) -> list[RunDiff]:
        return [row for row in self.rows if not row.match]

    def summary(self) -> str:
        verdict = "IDENTICAL" if self.identical else (
            f"{len(self.mismatches)}/{len(self.rows)} slots differ"
        )
        return (
            f"experiment {self.a.id} ({self.a.name}) vs "
            f"{self.b.id} ({self.b.name}): {verdict}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "identical": self.identical,
            "rows": [row.to_dict() for row in self.rows],
        }


#: JSON text of a scalar column value, by exact type, as ``json.dumps``
#: writes it.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    float: lambda value: float.__repr__(value) if isfinite(value) else json.dumps(value),
    str: encode_basestring_ascii,
    type(None): lambda _none: "null",
}


class _Read(NamedTuple):
    """One projection of a table: its ``SELECT ... FROM table``, the
    ``ORDER BY`` of a listing, and the builder of one fetched tuple."""

    what: str
    select: str
    order: str
    build: Callable[[tuple], Any]


class _Table:
    """One stored table, described once and read two ways.

    The description is the row dataclass's fields, in order; the stored
    JSON column behind a field and the JSON text that stands for its NULL;
    the integer columns that read as booleans; and the ``to_dict()`` keys
    that are no field.  :attr:`rows` selects the plain columns in field
    order and builds the row object, decoding each JSON column with
    :func:`_loads`.  :attr:`texts` selects the scalar columns, then the
    JSON texts, then one ``json_valid`` flag over the stored JSON columns,
    and renders ``json.dumps(row.to_dict())`` by filling a ``str.format``
    template of the ``to_dict()`` keys with the encoded scalars and the
    texts.

    Args:
        table: the table read.
        row_type: the row dataclass; a field that is not stored JSON is the
            column of its name.
        order: the ``ORDER BY`` of a listing.
        stored: field -> (JSON column, the JSON text that stands for NULL).
        flags: fields whose integer column is a boolean; NULL stays null.
        derived: ``to_dict()`` key -> SQL of its value, for the texts (the
            row object's ``to_dict()`` computes it).
    """

    def __init__(
        self,
        table: str,
        row_type: type,
        order: str,
        *,
        stored: dict[str, tuple[str, str]],
        flags: tuple[str, ...] = (),
        derived: dict[str, str] | None = None,
    ) -> None:
        derived = derived or {}
        names = [f.name for f in fields(row_type)]
        self.what = table[:-1]
        self._type = row_type
        self._decoded = [
            (names.index(name), column, null)
            for name, (column, null) in stored.items()
        ]
        self._flags = [names.index(name) for name in flags]
        columns = [stored[name][0] if name in stored else name for name in names]
        self.rows = _Read(
            self.what, f"SELECT {', '.join(columns)} FROM {table} ", order,
            self._row,
        )

        keys = names + list(derived)
        literals = [
            f"CASE WHEN {name} IS NULL THEN 'null' "
            f"WHEN {name} THEN 'true' ELSE 'false' END"
            for name in flags
        ]
        scalars = [key for key in keys if key not in flags and key not in stored]
        spliced = [
            f"COALESCE({column}, '{null}')" for column, null in stored.values()
        ]
        valid = " AND ".join(f"json_valid({text})" for text in spliced)
        self._columns = [column for column, _null in stored.values()]
        self._scalars = len(scalars)
        self.texts = _Read(
            self.what,
            "SELECT " + ", ".join(
                [derived.get(key, key) for key in scalars]
                + literals + spliced + [valid]
            ) + f" FROM {table} ",
            order,
            self._text,
        )
        position = scalars + list(flags) + list(stored)
        self._template = "{{" + ", ".join(
            f'"{key}": {{{position.index(key)}}}' for key in keys
        ) + "}}"

    def _row(self, values: tuple) -> Any:
        values = list(values)
        where = f"{self.what} {values[0]}"
        for index, column, null in self._decoded:
            text = values[index]
            values[index] = _loads(null if text is None else text, where, column)
        for index in self._flags:
            if values[index] is not None:
                values[index] = bool(values[index])
        return self._type(*values)

    def _text(self, row: tuple) -> str:
        scalars = self._scalars
        texts = [_SCALAR_TEXT[type(value)](value) for value in row[:scalars]]
        if not row[-1]:
            # sqlite's json_valid refuses NaN and Infinity, which the
            # encoder writes and json.loads reads: ask json.loads.
            for column, text in zip(self._columns, row[-1 - len(self._columns):-1]):
                _loads(text, f"{self.what} {row[0]}", column)
        return self._template.format(*texts, *row[scalars:-1])


_EXPERIMENTS = _Table(
    "experiments", ExperimentRow, "ORDER BY id DESC",
    stored={"config": ("config_json", "{}"), "params": ("params_json", "{}")},
    derived={"progress": (
        "CASE WHEN total_runs THEN done_runs * 1.0 / total_runs ELSE 0.0 END"
    )},
)
_RUNS = _Table(
    "runs", RunRow, "ORDER BY run_index",
    stored={
        "config": ("config_json", "{}"),
        "attachments": ("attachments_json", "{}"),
        "failure": ("failure_json", "null"),
    },
    flags=("terminated", "stalled"),
)
_ARTIFACTS = _Table(
    "artifacts", ArtifactRow, "ORDER BY id",
    stored={"payload": ("payload_json", "null")},
)
#: ``(id, run_index, attachments)`` of runs: only ``attachments_json`` decoded.
_RUN_ATTACHMENTS = _Read(
    "run",
    "SELECT id, run_index, COALESCE(attachments_json, '{}') FROM runs ",
    _RUNS.rows.order,
    lambda row: (
        row[0], row[1], _loads(row[2], f"run {row[0]}", "attachments_json")
    ),
)

#: ``(run_index, fingerprint, latency_per_decision)`` of runs: what
#: :meth:`ExperimentStore.diff` compares, with no stored JSON decoded.
_RUN_FINGERPRINTS = _Read(
    "run",
    "SELECT run_index, fingerprint, latency_per_decision FROM runs ",
    _RUNS.rows.order,
    tuple,
)


class ExperimentStore:
    """Persistent sqlite-backed repository of experiments and runs.

    Usable as a context manager; all writes are serialized behind an
    internal lock so one store object can be shared by several recording
    threads.  Every public method opens one short transaction.

    Args:
        path: sqlite file path (created on first use).  ``":memory:"`` is
            accepted for tests but obviously does not persist.
        create: with ``False``, a path that does not exist yet raises
            :class:`StoreError` instead of materializing an empty store —
            the right mode for read-only consumers (``repro experiments``,
            ``repro serve``, ``inspect store:<id>``), where a fresh file
            would silently mask a typo'd path.
    """

    def __init__(self, path: str, *, create: bool = True) -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        if (
            not create
            and self.path != ":memory:"
            and not os.path.exists(self.path)
        ):
            raise StoreError(
                f"experiment store {self.path!r} does not exist "
                "(record one first: repro run/sweep/mine --store PATH)"
            )
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open experiment store {self.path!r}: {error}"
            ) from error
        try:
            self._init_schema()
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StoreError(f"{self.path!r} is not an experiment store: {error}")

    def _init_schema(self) -> None:
        with self._lock, self._conn as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            tables = {
                row[0] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            if tables and "store_meta" not in tables:
                # A populated sqlite file that is not one of ours: refuse
                # rather than grow experiment tables inside someone else's
                # database.
                raise StoreSchemaError(
                    f"{self.path!r} is an existing sqlite database but not "
                    "an experiment store (no store_meta table)"
                )
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"store {self.path!r} has schema version {row[0]}, "
                    f"this version of repro reads {SCHEMA_VERSION}; re-record "
                    "the experiments (the store is a cache of reproducible "
                    "runs, never the only copy)"
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def create_experiment(
        self,
        name: str,
        kind: str,
        config: SimulationConfig | dict[str, Any],
        total_runs: int,
        params: dict[str, Any] | None = None,
    ) -> int:
        """Insert a new ``running`` experiment; returns its id."""
        if isinstance(config, SimulationConfig):
            config = config.to_dict()
        with self._lock, self._conn as conn:
            cursor = conn.execute(
                "INSERT INTO experiments (name, kind, status, created_at, "
                "config_json, params_json, total_runs) VALUES (?,?,?,?,?,?,?)",
                (
                    name, kind, "running", time.time(),
                    _json(config), _json(params or {}), int(total_runs),
                ),
            )
            return int(cursor.lastrowid)

    def record_run(
        self,
        experiment_id: int,
        run_index: int,
        entry: SimulationResult | RunFailure,
        *,
        label: str = "",
        trace_path: str | None = None,
    ) -> int:
        """Insert one completed run (or failure) and bump progress counters.

        The row and the experiment's ``done/failed/stalled`` counters are
        written in one transaction, so concurrent readers (the dashboard's
        polling endpoints) always see consistent progress.
        """
        if isinstance(entry, RunFailure):
            row = self._failure_row(entry)
        else:
            row = self._result_row(entry)
        experiment_id = _id(experiment_id, "experiment")
        row.update(
            experiment_id=experiment_id,
            run_index=int(run_index),
            label=label,
            trace_path=trace_path,
        )
        columns = sorted(row)
        placeholders = ", ".join("?" for _ in columns)
        failed = 1 if row["status"] == "failed" else 0
        stalled = 1 if row["stalled"] else 0
        with self._lock, self._conn as conn:
            try:
                cursor = conn.execute(
                    f"INSERT INTO runs ({', '.join(columns)}) "
                    f"VALUES ({placeholders})",
                    [row[c] for c in columns],
                )
            except sqlite3.IntegrityError as error:
                raise StoreError(
                    f"run index {run_index} already recorded for "
                    f"experiment {experiment_id}: {error}"
                ) from error
            conn.execute(
                "UPDATE experiments SET done_runs = done_runs + 1, "
                "failed_runs = failed_runs + ?, "
                "stalled_runs = stalled_runs + ? WHERE id = ?",
                (failed, stalled, experiment_id),
            )
            return int(cursor.lastrowid)

    def _result_row(self, result: SimulationResult) -> dict[str, Any]:
        return {
            "status": "ok",
            "seed": result.config.seed,
            "protocol": result.config.protocol,
            "config_json": _json(result.config.to_dict()),
            "fingerprint": result_fingerprint(result),
            "terminated": int(result.terminated),
            "stalled": int(result.stalled),
            "latency": result.latency,
            "latency_per_decision": result.latency_per_decision,
            "messages": result.messages,
            "messages_per_decision": result.messages_per_decision,
            "events_processed": result.events_processed,
            "max_view": result.max_view,
            "wall_clock_seconds": result.wall_clock_seconds,
            "attachments_json": _json(result_attachments(result)),
        }

    def _failure_row(self, failure: RunFailure) -> dict[str, Any]:
        # Every result column is nullable: a failed run sets none of them.
        return {
            "status": "failed",
            "seed": failure.config.seed,
            "protocol": failure.config.protocol,
            "config_json": _json(failure.config.to_dict()),
            "stalled": 0,
            "failure_json": _json({
                "kind": failure.kind,
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
                "traceback": failure.traceback,
            }),
        }

    def finish_experiment(
        self, experiment_id: int, status: str | None = None
    ) -> None:
        """Mark an experiment terminal (default: failed iff any run failed)."""
        experiment_id = _id(experiment_id, "experiment")
        with self._lock, self._conn as conn:
            if status is None:
                row = conn.execute(
                    "SELECT failed_runs FROM experiments WHERE id = ?",
                    (experiment_id,),
                ).fetchone()
                if row is None:
                    raise StoreError(f"no experiment with id {experiment_id}")
                status = "failed" if row[0] else "complete"
            if status not in EXPERIMENT_STATUSES:
                raise StoreError(
                    f"unknown experiment status {status!r}; "
                    f"expected one of {EXPERIMENT_STATUSES}"
                )
            conn.execute(
                "UPDATE experiments SET status = ?, finished_at = ? "
                "WHERE id = ?",
                (status, time.time(), experiment_id),
            )

    def set_progress(
        self,
        experiment_id: int,
        done_runs: int,
        total_runs: int | None = None,
    ) -> None:
        """Overwrite an experiment's progress counters directly.

        For batches whose individual runs are not recorded as run rows —
        the mining harness evaluates whole generations internally — but
        whose progress should still be live on the dashboard.
        """
        experiment_id = _id(experiment_id, "experiment")
        with self._lock, self._conn as conn:
            if total_runs is None:
                conn.execute(
                    "UPDATE experiments SET done_runs = ? WHERE id = ?",
                    (int(done_runs), experiment_id),
                )
            else:
                conn.execute(
                    "UPDATE experiments SET done_runs = ?, total_runs = ? "
                    "WHERE id = ?",
                    (int(done_runs), int(total_runs), experiment_id),
                )

    def record_artifact(
        self,
        experiment_id: int,
        kind: str,
        *,
        name: str = "",
        path: str | None = None,
        payload: Any = None,
    ) -> int:
        """Attach a named artifact (e.g. a mining winner) to an experiment."""
        experiment_id = _id(experiment_id, "experiment")
        with self._lock, self._conn as conn:
            cursor = conn.execute(
                "INSERT INTO artifacts (experiment_id, kind, name, path, "
                "payload_json) VALUES (?,?,?,?,?)",
                (experiment_id, kind, name, path, _json(payload)),
            )
            return int(cursor.lastrowid)

    # -- queries -----------------------------------------------------------
    #
    # Each reads rows as objects or, the ``*_text(s)`` forms, as the text of
    # ``json.dumps(row.to_dict())`` with the stored JSON spliced in undecoded.

    def experiments(self) -> list[ExperimentRow]:
        """Every stored experiment, newest first."""
        return self._read(_EXPERIMENTS.rows)

    def experiment(self, experiment_id: int) -> ExperimentRow:
        return self._read(_EXPERIMENTS.rows, row_id=experiment_id)

    def runs(self, experiment_id: int) -> list[RunRow]:
        """Every recorded run of one experiment, in run-index order."""
        return self._read(_RUNS.rows, experiment_id)

    def run(self, run_id: int) -> RunRow:
        return self._read(_RUNS.rows, row_id=run_id)

    def trace_path(self, run_id: int) -> str:
        """The on-disk trace pointer of one run (raises when absent)."""
        path = self.run(run_id).trace_path
        if not path:
            raise StoreError(
                f"run {run_id} recorded no trace pointer; re-run with "
                "--trace-out to capture one"
            )
        return path

    def artifacts(self, experiment_id: int) -> list[ArtifactRow]:
        return self._read(_ARTIFACTS.rows, experiment_id)

    def diff(self, experiment_a: int, experiment_b: int) -> ExperimentDiff:
        """Fingerprint-compare two experiments slot by slot (run_index)."""
        a = self.experiment(experiment_a)
        b = self.experiment(experiment_b)
        runs_a = {run[0]: run for run in self._read(_RUN_FINGERPRINTS, experiment_a)}
        runs_b = {run[0]: run for run in self._read(_RUN_FINGERPRINTS, experiment_b)}
        absent = (None, None, None)
        rows = []
        for index in sorted(set(runs_a) | set(runs_b)):
            _, a_print, a_latency = runs_a.get(index, absent)
            _, b_print, b_latency = runs_b.get(index, absent)
            rows.append(RunDiff(
                run_index=index, a=a_print, b=b_print,
                a_latency=a_latency, b_latency=b_latency,
            ))
        return ExperimentDiff(a=a, b=b, rows=rows)

    def experiment_texts(self) -> list[str]:
        return self._read(_EXPERIMENTS.texts)

    def experiment_text(self, experiment_id: int) -> str:
        return self._read(_EXPERIMENTS.texts, row_id=experiment_id)

    def run_texts(self, experiment_id: int) -> list[str]:
        return self._read(_RUNS.texts, experiment_id)

    def run_text(self, run_id: int) -> str:
        return self._read(_RUNS.texts, row_id=run_id)

    def artifact_texts(self, experiment_id: int) -> list[str]:
        return self._read(_ARTIFACTS.texts, experiment_id)

    def run_attachments(self, experiment_id: int) -> list[tuple[int, int, dict[str, Any]]]:
        """``(id, run_index, attachments)`` of every run of one experiment,
        in run-index order; only ``attachments_json`` is decoded."""
        return self._read(_RUN_ATTACHMENTS, experiment_id)

    def _read(
        self, read: _Read, experiment_id: int | None = None, *,
        row_id: int | None = None,
    ) -> Any:
        """``read`` over the row with id ``row_id``, else over one
        experiment's rows, else over every row; listings in ``read.order``."""
        if row_id is not None:
            where, params = "WHERE id = ?", (_id(row_id, read.what),)
        elif experiment_id is not None:
            where = "WHERE experiment_id = ? " + read.order
            params = (_id(experiment_id, "experiment"),)
        else:
            where, params = read.order, ()
        with self._lock:
            fetched = self._conn.execute(read.select + where, params).fetchall()
        if row_id is None:
            return [read.build(row) for row in fetched]
        if not fetched:
            raise StoreError(f"no {read.what} with id {row_id}")
        return read.build(fetched[0])
