"""``repro serve`` — the experiment-store dashboard server.

A deliberately small HTTP layer over :class:`~repro.store.ExperimentStore`:
Python's stdlib :class:`~http.server.HTTPServer`, whose requests are
handled by a few reused threads waiting in ``accept()`` (see
:class:`DashboardServer`), plus one embedded HTML page
(:mod:`repro.serve.dashboard`).  No web framework, no template engine, no
static asset pipeline — the simulator's zero-runtime-dependency policy
extends to its observability surface.

Routes (all JSON except ``/``):

==============================================  ================================
``GET /``                                       the dashboard page
``GET /api/meta``                               store path, schema, version
``GET /api/experiments``                        all experiments, newest first
``GET /api/experiments/<id>``                   experiment + runs + artifacts
``GET /api/experiments/<a>/diff/<b>``           fingerprint diff of two batches
``GET /api/experiments/<id>/health``            fleet health: anomaly timeline
``GET /api/runs/<id>``                          one run row
``GET /api/runs/<id>/analysis``                 quorums/phases/critical paths
==============================================  ================================

The analysis endpoint re-reads the run's JSONL trace (via the stored
``trace_path`` pointer) through the existing analyzers —
:mod:`repro.observability.causality`, :mod:`~repro.observability.phases`
and :mod:`~repro.observability.inspect` — so the dashboard's drill-down
views are exactly what ``repro inspect`` prints, rendered instead of
printed.  A run without a trace answers ``{"available": false}`` rather
than erroring: traces are opt-in and the dashboard must degrade.

Live progress needs no push channel: the store updates an experiment's
``done_runs`` counter transactionally per completed run, so the page simply
polls ``/api/experiments`` while any experiment is ``running``.  The
server keeps one :class:`ExperimentStore` handle, used only to read, for all
request threads (its queries run under the store's lock, and none leaves a read
transaction open between requests, so WAL mode still shows every commit of
the writing fleet and lets checkpoints proceed).  Each request stats the
path: a deleted store is a JSON 404, and a replaced file is reopened.

The row routes (the experiment list, experiment detail and run) decode no
stored JSON: the store renders each row as the text of
``json.dumps(row.to_dict())``, splicing its stored JSON columns in as
stored (:meth:`~repro.store.ExperimentStore.run_texts` and siblings), and
the route joins those texts into the response.  A stored column that is
not JSON is a JSON 500 naming the row and the column, on these routes and
on every other one that reads it.  ``/health`` decodes only the runs'
``attachments_json``.  A client has :attr:`DashboardHandler.timeout`
seconds to send its whole request, each read waiting only for what is left
of them, and is hung up on after that, so a half-sent or trickled request
cannot keep its handler thread alive.
"""

from __future__ import annotations

import io
import json
import os
import re
import socket
import sqlite3
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Iterable

from .. import __version__
from ..store import ExperimentStore, StoreCorruptError, StoreError
from .dashboard import PAGE_HTML

_RUN_ANALYSIS_LIMIT = 200  # decisions/views shipped per analysis response

#: Threads a :class:`DashboardServer` keeps waiting in ``accept()``
#: between requests.
_WAITING = 2


def run_analysis(trace_path: str) -> dict[str, Any]:
    """Drill-down payload for one stored trace, via the inspect analyzers.

    Returns ``{"available": False, "reason": ...}`` when the trace file is
    gone or unreadable — the store keeps pointers, not copies, and a
    deleted temp directory must not take the dashboard down with it.
    """
    if not os.path.exists(trace_path):
        return {"available": False, "reason": f"trace file missing: {trace_path}"}
    from ..core.tracing import Trace
    from ..observability.causality import (
        CausalityGraph,
        critical_paths,
        quorum_timelines,
    )
    from ..observability.inspect import analyze_trace
    from ..observability.phases import analyze_phases

    try:
        trace = Trace.read(trace_path)  # decoded once for the three analyses
        report = analyze_trace(trace)
        graph = CausalityGraph.build(trace)
        phases = analyze_phases(trace)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"available": False, "reason": f"trace unreadable: {exc}"}

    quorums = [
        {
            "slot": t.decision.slot,
            "node": t.decision.node,
            "msg_type": t.msg_type,
            "quorum_size": t.quorum_size,
            "first_arrival": t.first_arrival,
            "closed_at": t.closed_at,
            "straggler": t.straggler,
            "wasted": t.wasted,
        }
        for t in quorum_timelines(graph)[:_RUN_ANALYSIS_LIMIT]
    ]
    paths = [
        {
            "slot": p.decision.slot,
            "node": p.decision.node,
            "hops": p.hops,
            "duration": p.duration_ms,
            "complete": p.complete,
            "steps": [
                {"time": s.time, "kind": s.kind, "node": s.node, "label": s.label}
                for s in p.steps
            ],
        }
        for p in critical_paths(graph)[:_RUN_ANALYSIS_LIMIT]
    ]
    phase_dict = phases.to_dict()
    per_view = [
        {
            "view": entry["view"],
            "node": entry["node"],
            "durations": entry["phases_ms"],
            "duration": entry["duration_ms"],
        }
        for entry in phase_dict["per_view"][:_RUN_ANALYSIS_LIMIT]
    ]
    return {
        "available": True,
        "report": report.to_dict(),
        "quorums": quorums,
        "critical_paths": paths,
        "phases": {
            "totals": phase_dict["phase_totals_ms"],
            "per_view": per_view,
        },
    }


def fleet_health(runs: Iterable[tuple[int, int, dict[str, Any]]]) -> dict[str, Any]:
    """Fleet health rollup of ``(run id, run index, attachments)`` rows:
    every monitored run's stored anomalies, merged into one timeline
    (ordered by simulated time, then run)."""
    monitored = [
        (run_id, index, attachments["health"])
        for run_id, index, attachments in runs if "health" in attachments
    ]
    anomalies: list[dict[str, Any]] = []
    detectors: dict[str, int] = {}
    for run_id, index, health in monitored:
        for event in health["events"]:
            entry = dict(event)
            entry["run_index"] = index
            entry["run_id"] = run_id
            anomalies.append(entry)
            detector = str(event.get("detector", "?"))
            detectors[detector] = detectors.get(detector, 0) + 1
    anomalies.sort(key=lambda e: (e.get("time", 0.0), e["run_index"]))
    fairness = [
        health["min_fairness"] for _id, _index, health in monitored
        if health["min_fairness"] is not None
    ]
    return {
        "monitored_runs": len(monitored),
        "anomaly_total": sum(
            health["anomaly_count"] for _id, _index, health in monitored
        ),
        "min_fairness": min(fairness) if fairness else None,
        "detectors": dict(sorted(detectors.items())),
        "anomalies": anomalies[:_RUN_ANALYSIS_LIMIT],
    }


class DashboardServer(HTTPServer):
    """The dashboard's HTTP server, holding one store handle for every
    request thread (read it as :attr:`store`).

    Its threads each block in ``accept()`` on the listening socket and
    handle the connection they take, then accept again: no thread is
    started per request.  The last waiting thread to take a connection
    first starts one more, so a slow or silent client holds only its own
    thread; a thread done with a request exits instead of accepting again
    when :data:`_WAITING` others already wait.
    """

    # socketserver's listen backlog is 5: a burst of more connects than
    # that has its SYNs dropped, and each waits the 1-s SYN retransmit.
    request_queue_size = 128

    def __init__(
        self, address: tuple[str, int], store_path: str, *, quiet: bool = True
    ) -> None:
        self.store_path = str(store_path)
        self.quiet = quiet
        self._lock = threading.Lock()
        self._closed = False
        self._store: ExperimentStore | None = None
        self._identity: tuple[int, int] | None = None
        self._pool = threading.Condition()
        self._waiting = 0  # threads in, or on their way into, accept()
        self._stopping = False
        self._stopped = threading.Event()
        self._refresh()
        try:
            super().__init__(address, DashboardHandler)
        except OSError:
            self._store.close()
            raise

    @property
    def store(self) -> ExperimentStore:
        """The read handle for the file now at :attr:`store_path`.

        Raises :class:`StoreError` when that file is missing or not a
        store, and :class:`sqlite3.ProgrammingError` (what a query on a
        closed handle raises) after :meth:`server_close`.
        """
        with self._lock:
            if self._closed:
                raise sqlite3.ProgrammingError("Cannot operate on a closed database.")
            self._refresh()
            return self._store

    def _refresh(self) -> None:
        """One ``os.stat``; reopen when the file is not the one held.

        A file with a new ``(st_dev, st_ino)`` (replaced, or deleted and
        re-created) is opened afresh, so a foreign file raises as a fresh
        open would.  A missing file raises the fresh open's error and is
        never re-materialized as an empty database.
        """
        try:
            stat = os.stat(self.store_path)
            identity = (stat.st_dev, stat.st_ino)
        except FileNotFoundError:
            identity = None
        if self._store is not None:
            if identity == self._identity:
                return
            self._store.close()
            self._store = None
        # Stat before open: a file swapped in between is caught by the next
        # request's stat.
        self._store = ExperimentStore(self.store_path, create=False)
        self._identity = identity

    def serve_forever(self) -> None:
        """Start the accept threads, then block until :meth:`shutdown`."""
        for _ in range(_WAITING):
            self._start_thread()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Wake every thread waiting in ``accept()`` and return once none
        is left in it; requests in flight finish on their own threads,
        which then exit.  :meth:`serve_forever` returns."""
        with self._pool:
            if not self._stopping:
                self._stopping = True
                try:
                    # Linux fails every accept() blocked on a listening
                    # socket that is shut down (EINVAL), and refuses
                    # connects from here on.
                    self.socket.shutdown(socket.SHUT_RDWR)
                except OSError:  # never listened: the bind failed
                    pass
            self._pool.wait_for(lambda: self._waiting == 0)
        self._stopped.set()

    def _start_thread(self) -> None:
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        """One pool thread: accept a connection, answer it, and accept
        again for as long as :meth:`_wait` lets it."""
        waiting = self._wait()
        while waiting:
            try:
                request, client_address = self.get_request()
            except OSError:  # shut down, or this one accept failed
                request = None
            with self._pool:
                self._waiting -= 1
                self._pool.notify_all()
                last = self._waiting == 0 and not self._stopping
            if request is None:
                waiting = self._wait()
                continue
            if last:
                self._start_thread()
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            # Counted as waiting before the hang-up (which cannot block), so
            # a client that reads its answer to the end finds this thread
            # waiting for its next connection.
            waiting = self._wait()
            self.shutdown_request(request)

    def _wait(self) -> bool:
        """Count this thread as waiting in ``accept()``, unless the server
        is shutting down or enough threads wait already."""
        with self._pool:
            if self._stopping or self._waiting >= _WAITING:
                return False
            self._waiting += 1
            return True

    def server_close(self) -> None:
        """Stop the accept threads, close the listening socket, then the
        store handle; a request that reads the store after this gets a
        JSON 503."""
        self.shutdown()
        super().server_close()
        with self._lock:
            self._closed = True
            if self._store is not None:
                self._store.close()


class _RequestReader(io.RawIOBase):
    """A connection's reads under one deadline, ``seconds`` from now: each
    read waits at most for what is left of it, so a client that trickles
    its request cannot keep the thread longer.  Expiry raises
    :class:`TimeoutError`, which the handler answers by hanging up."""

    def __init__(self, connection: socket.socket, seconds: float) -> None:
        self._connection = connection
        self._seconds = seconds
        self._deadline = time.monotonic() + seconds

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not read within its deadline")
        self._connection.settimeout(left)
        try:
            return self._connection.recv_into(buffer)
        finally:  # the answer's writes wait up to ``seconds`` each
            self._connection.settimeout(self._seconds)


class DashboardHandler(BaseHTTPRequestHandler):
    """Route table for the dashboard; reads the server's store handle."""

    server: DashboardServer

    #: Seconds a client has to send its whole request, and that each
    #: socket write of the answer may wait, before its thread hangs up.
    timeout = 10.0

    _ROUTES = (
        (re.compile(r"^/$"), "page"),
        (re.compile(r"^/api/meta$"), "meta"),
        (re.compile(r"^/api/experiments$"), "experiments"),
        (re.compile(r"^/api/experiments/(\d+)$"), "experiment"),
        (re.compile(r"^/api/experiments/(\d+)/diff/(\d+)$"), "diff"),
        (re.compile(r"^/api/experiments/(\d+)/health$"), "health"),
        (re.compile(r"^/api/runs/(\d+)$"), "run"),
        (re.compile(r"^/api/runs/(\d+)/analysis$"), "analysis"),
    )

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        if not self.server.quiet:
            super().log_message(fmt, *args)

    def setup(self) -> None:
        super().setup()
        # The request is read under one deadline, not the per-read timeout
        # of the reader just made.
        self.rfile.close()
        self.rfile = io.BufferedReader(_RequestReader(self.connection, self.timeout))

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        if self.request_version == "HTTP/0.9":  # the body alone, no head
            self.wfile.write(body)
            return
        # What end_headers() and a second write would send, in one write.
        self._headers_buffer += (b"\r\n", body)
        self.flush_headers()

    def _json(self, payload: dict[str, Any], code: int = 200) -> None:
        self._json_text(json.dumps(payload), code)

    def _json_text(self, text: str, code: int = 200) -> None:
        self._send(code, text.encode(), "application/json; charset=utf-8")

    def _error(self, code: int, message: str) -> None:
        self._json({"error": message}, code=code)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        for pattern, name in self._ROUTES:
            match = pattern.match(path)
            if match:
                handler = getattr(self, f"_get_{name}")
                try:
                    handler(*(int(g) for g in match.groups()))
                except StoreCorruptError as exc:
                    self._error(500, str(exc))
                except StoreError as exc:
                    self._error(404, str(exc))
                except sqlite3.ProgrammingError:  # handle closed mid-request
                    self._error(
                        503, "store handle closed (server shutting down "
                        "or store file replaced); retry"
                    )
                except BrokenPipeError:  # client went away mid-response
                    pass
                return
        self._error(404, f"no such endpoint: {path}")

    # -- endpoints -----------------------------------------------------------

    def _get_page(self) -> None:
        self._send(200, PAGE_HTML.encode(), "text/html; charset=utf-8")

    def _get_meta(self) -> None:
        from ..store import SCHEMA_VERSION

        self._json({
            "store": self.server.store_path,
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
        })

    def _get_experiments(self) -> None:
        texts = self.server.store.experiment_texts()
        self._json_text('{"experiments": [' + ", ".join(texts) + "]}")

    def _get_experiment(self, experiment_id: int) -> None:
        store = self.server.store
        experiment = store.experiment_text(experiment_id)
        runs = store.run_texts(experiment_id)
        artifacts = store.artifact_texts(experiment_id)
        self._json_text(
            f'{{"experiment": {experiment}, "runs": [{", ".join(runs)}], '
            f'"artifacts": [{", ".join(artifacts)}]}}'
        )

    def _get_diff(self, a: int, b: int) -> None:
        diff = self.server.store.diff(a, b)
        self._json(diff.to_dict())

    def _get_health(self, experiment_id: int) -> None:
        store = self.server.store
        # Raises StoreError -> 404 for an unknown experiment id.
        store.experiment(experiment_id)
        self._json(fleet_health(store.run_attachments(experiment_id)))

    def _get_run(self, run_id: int) -> None:
        self._json_text('{"run": ' + self.server.store.run_text(run_id) + "}")

    def _get_analysis(self, run_id: int) -> None:
        row = self.server.store.run(run_id)
        if not row.trace_path:
            self._json({"available": False, "reason": "run recorded no trace"})
            return
        self._json(run_analysis(row.trace_path))


def create_server(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 8008,
    *,
    quiet: bool = True,
) -> DashboardServer:
    """Build (but do not start) the dashboard server.

    Opens the store up front so a missing path or a schema mismatch fails
    here, loudly, instead of per-request — serving a store that does not
    exist yet would just materialize an empty database over a typo.
    ``port=0`` asks the OS for a free port — the tests use this; read
    ``server.server_address[1]``.  Call ``shutdown()`` and then
    ``server_close()``, which closes the store handle.
    """
    return DashboardServer((host, port), store_path, quiet=quiet)


def serve(store_path: str, host: str = "127.0.0.1", port: int = 8008) -> None:
    """Run the dashboard until interrupted (the ``repro serve`` entry)."""
    server = create_server(store_path, host, port, quiet=False)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: dashboard on http://{bound_host}:{bound_port}/", flush=True)
    print(f"repro serve: store {store_path}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: stopped")
    finally:
        server.server_close()
