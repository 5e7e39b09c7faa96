"""The thin HTTP API over the store and the experiment runner.

Stdlib only (:class:`http.server.ThreadingHTTPServer`) — no new
dependencies.  Routes (all JSON unless noted):

====== =============================== =====================================
Method Path                            Meaning
====== =============================== =====================================
GET    ``/api/health``                 liveness + worker/queue snapshot
GET    ``/api/scenarios``              registered scenario names + summaries
GET    ``/api/scenarios/<name>``       one fully-resolved spec document
POST   ``/api/runs``                   submit ``{"scenario": name}`` or
                                       ``{"spec": {...}}`` (+ optional
                                       ``overrides``, ``force``)
GET    ``/api/runs``                   list runs (``?status=``, ``?sweep=``)
GET    ``/api/runs/<id>``              status document (``?spec=1`` embeds
                                       the spec)
GET    ``/api/runs/<id>/result``       result summary + event-log hash
GET    ``/api/runs/<id>/audit``        stored SLO/power audit report
GET    ``/api/runs/<id>/events``       the raw JSONL event log;
                                       ``?follow=1`` streams until the run
                                       finishes (tail -f semantics)
GET    ``/api/runs/<id>/checkpoints``  stored checkpoint metadata
POST   ``/api/runs/<id>/cancel``       cancel queued / stop running
POST   ``/api/sweeps``                 submit ``{"scenario"|"spec", "grid"}``
GET    ``/api/sweeps``                 list sweeps
GET    ``/api/sweeps/<id>``            sweep document + per-status counts
GET    ``/metrics``                    Prometheus text exposition (plain)
====== =============================== =====================================

The follow endpoint reuses :class:`repro.obs.runlog.JsonlFollower`, so a
client sees exactly the complete-line semantics the live dashboard
does.  ``/metrics`` renders with :func:`repro.obs.metrics.prom_text`.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.engine.scenario import ScenarioError, builtin_registry, resolve_scenario
from repro.obs.metrics import prom_text
from repro.obs.runlog import JsonlFollower
from repro.service.runner import ExperimentRunner, RunnerConfig
from repro.service.store import ResultsStore, StoreError
from repro.service.sweep import expand_grid

__all__ = ["ApiError", "ControlPlaneService", "ServiceConfig"]

logger = logging.getLogger(__name__)


class ApiError(Exception):
    """An HTTP-visible request error (status + message)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class ServiceConfig:
    """Service wiring: database path, data dir, bind address, runner knobs."""

    def __init__(
        self,
        db_path: str = "repro-service.db",
        data_dir: str = "repro-service-data",
        host: str = "127.0.0.1",
        port: int = 8642,
        workers: int = 2,
        checkpoint_every: int = 5,
        audit_violation_budget: float = 1.0,
        poll_interval_s: float = 0.2,
    ):
        self.db_path = db_path
        self.data_dir = data_dir
        self.host = host
        self.port = int(port)
        self.runner = RunnerConfig(
            data_dir=data_dir,
            workers=workers,
            checkpoint_every=checkpoint_every,
            audit_violation_budget=audit_violation_budget,
            poll_interval_s=poll_interval_s,
        )


class ControlPlaneService:
    """Store + runner + HTTP server, with one graceful shutdown path."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ResultsStore(self.config.db_path)
        self.runner = ExperimentRunner(self.store, self.config.runner)
        self.registry = builtin_registry()
        self.started_at = time.time()
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self.httpd.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound (host, port) — port 0 resolves here."""
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Launch the runner workers and serve HTTP in the background."""
        self.runner.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-http", daemon=True
        )
        self._serve_thread.start()
        logger.info("control-plane service listening on %s", self.url)

    def serve_forever(self) -> None:
        """Launch the runner and serve HTTP on the calling thread."""
        self.runner.start()
        logger.info("control-plane service listening on %s", self.url)
        self.httpd.serve_forever()

    def shutdown(self, graceful: bool = True) -> None:
        """Stop HTTP, stop the workers (checkpoint + requeue in-flight
        runs when *graceful*), and close the store."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.runner.stop(graceful=graceful)
        self.store.close()

    # -- operations the handler calls ----------------------------------

    def resolve_spec(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Spec document from ``{"scenario": name}`` or ``{"spec": {...}}``,
        with optional dotted-path ``overrides`` applied and validated."""
        if not isinstance(body, Mapping):
            raise ApiError(400, "request body must be a JSON object")
        if "spec" in body:
            source = body["spec"]
            if not isinstance(source, Mapping):
                raise ApiError(400, "spec must be an object")
        elif "scenario" in body:
            source = str(body["scenario"])
        else:
            raise ApiError(400, "body needs a 'scenario' name or a 'spec' object")
        overrides = body.get("overrides")
        if overrides and not isinstance(overrides, Mapping):
            raise ApiError(400, "overrides must be an object of path -> value")
        try:
            return resolve_scenario(source, overrides, self.registry).to_dict()
        except KeyError as exc:
            raise ApiError(404, exc.args[0])
        except ScenarioError as exc:
            raise ApiError(400, str(exc))

    def submit(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        doc = self.resolve_spec(body)
        run, cached = self.store.submit_run(
            doc, dedupe=not bool(body.get("force"))
        )
        return {"run": run.to_doc(), "cached": cached}

    def submit_sweep(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        base = self.resolve_spec(body)
        grid = body.get("grid")
        if not isinstance(grid, Mapping):
            raise ApiError(400, "body needs a 'grid' object of path -> values")
        try:
            jobs = expand_grid(base, grid)
        except ScenarioError as exc:
            raise ApiError(400, str(exc))
        name = str(body.get("name") or f"{base['name']}-sweep")
        sweep = self.store.create_sweep(name, base, dict(grid), len(jobs))
        run_ids = []
        for doc, _overrides in jobs:
            # No dedupe inside a sweep: every configuration gets its own
            # row so sweep progress/results stay self-contained.
            run, _ = self.store.submit_run(doc, sweep_id=sweep.id, dedupe=False)
            run_ids.append(run.id)
        return {
            "sweep": {"id": sweep.id, "name": sweep.name, "n_jobs": sweep.n_jobs},
            "run_ids": run_ids,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service state."""
        counts = self.store.counts_by_status()
        families = [("repro_service_runs_total", "gauge", [
            ("", {"status": status}, float(counts[status]))
            for status in sorted(counts)
        ])]
        families += [
            (name, kind, [("", None, float(value))])
            for name, kind, value in (
                ("repro_service_workers", "gauge", self.config.runner.workers),
                ("repro_service_busy_workers", "gauge", self.runner.busy_workers),
                ("repro_service_sweeps_total", "gauge",
                 len(self.store.list_sweeps())),
                ("repro_service_runs_completed_total", "counter",
                 self.runner.n_completed),
                ("repro_service_runs_resumed_total", "counter",
                 self.runner.n_resumed),
                ("repro_service_uptime_seconds", "gauge",
                 time.time() - self.started_at),
            )
        ]
        return prom_text(families)


_RUN_PATH = re.compile(
    r"^/api/runs/(?P<id>\d+)"
    r"(?:/(?P<sub>result|audit|events|checkpoints|cancel))?$"
)
_SWEEP_PATH = re.compile(r"^/api/sweeps/(?P<id>\d+)$")
_SCENARIO_PATH = re.compile(r"^/api/scenarios/(?P<name>[^/]+)$")


def _make_handler(service: ControlPlaneService):
    """A request-handler class closed over the service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro"

        # -- plumbing --------------------------------------------------

        def log_message(self, fmt: str, *args: Any) -> None:
            logger.debug("%s %s", self.address_string(), fmt % args)

        def _send_json(self, doc: Any, status: int = 200) -> None:
            payload = json.dumps(doc, indent=2, default=str).encode() + b"\n"
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_text(self, text: str, content_type: str = "text/plain") -> None:
            payload = text.encode()
            self.send_response(200)
            self.send_header("Content-Type", f"{content_type}; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _read_body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                raise ApiError(400, f"request body is not JSON: {exc}")
            if not isinstance(body, dict):
                raise ApiError(400, "request body must be a JSON object")
            return body

        def _dispatch(self, method: str) -> None:
            try:
                parsed = urlparse(self.path)
                query = {k: v[-1] for k, v in parse_qs(parsed.query).items()}
                self._route(method, parsed.path, query)
            except ApiError as exc:
                self._send_json({"error": str(exc)}, status=exc.status)
            except KeyError as exc:
                self._send_json({"error": str(exc.args[0])}, status=404)
            except (StoreError, ScenarioError) as exc:
                self._send_json({"error": str(exc)}, status=400)
            except BrokenPipeError:
                pass  # client went away mid-stream
            except Exception as exc:  # pragma: no cover - defensive
                logger.exception("unhandled API error")
                self._send_json({"error": f"internal error: {exc}"}, status=500)

        def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        # -- routes ----------------------------------------------------

        def _route(self, method: str, path: str, query: Dict[str, str]) -> None:
            if method == "GET" and path == "/api/health":
                counts = service.store.counts_by_status()
                self._send_json({
                    "status": "ok",
                    "workers": service.config.runner.workers,
                    "busy_workers": service.runner.busy_workers,
                    "runs": counts,
                    "uptime_s": time.time() - service.started_at,
                })
                return
            if method == "GET" and path == "/metrics":
                self._send_text(service.metrics_text())
                return
            if method == "GET" and path == "/api/scenarios":
                self._send_json([
                    {"name": s.name, "harness": s.harness,
                     "description": s.description}
                    for s in service.registry
                ])
                return
            match = _SCENARIO_PATH.match(path)
            if match and method == "GET":
                name = match.group("name")
                if name not in service.registry:
                    raise ApiError(404, f"unknown scenario {name!r}")
                self._send_json(service.registry.get(name).to_dict())
                return
            if path == "/api/runs" and method == "POST":
                self._send_json(service.submit(self._read_body()), status=201)
                return
            if path == "/api/runs" and method == "GET":
                sweep_id = query.get("sweep")
                runs = service.store.list_runs(
                    status=query.get("status"),
                    sweep_id=int(sweep_id) if sweep_id else None,
                )
                self._send_json([r.to_doc() for r in runs])
                return
            match = _RUN_PATH.match(path)
            if match:
                self._route_run(
                    method, int(match.group("id")), match.group("sub"), query
                )
                return
            if path == "/api/sweeps" and method == "POST":
                self._send_json(service.submit_sweep(self._read_body()), status=201)
                return
            if path == "/api/sweeps" and method == "GET":
                self._send_json([
                    {"id": s.id, "name": s.name, "n_jobs": s.n_jobs,
                     "created_at": s.created_at}
                    for s in service.store.list_sweeps()
                ])
                return
            match = _SWEEP_PATH.match(path)
            if match and method == "GET":
                sweep_id = int(match.group("id"))
                sweep = service.store.get_sweep(sweep_id)
                self._send_json({
                    "id": sweep.id, "name": sweep.name, "n_jobs": sweep.n_jobs,
                    "base": sweep.base, "grid": sweep.grid,
                    "created_at": sweep.created_at,
                    "runs": service.store.sweep_progress(sweep_id),
                })
                return
            raise ApiError(404, f"no route for {method} {path}")

        def _route_run(
            self, method: str, run_id: int, sub: Optional[str],
            query: Dict[str, str],
        ) -> None:
            store = service.store
            if sub == "cancel":
                if method != "POST":
                    raise ApiError(405, "cancel is POST-only")
                self._send_json({"run": store.request_cancel(run_id).to_doc()})
                return
            if method != "GET":
                raise ApiError(405, f"{sub or 'run'} is GET-only")
            run = store.get_run(run_id)
            if sub is None:
                self._send_json(run.to_doc(spec=bool(query.get("spec"))))
                return
            if sub == "result":
                if run.status != "done":
                    raise ApiError(
                        409, f"run {run_id} is {run.status}, not done"
                    )
                self._send_json({
                    "run": run.to_doc(),
                    "result": run.result,
                    "event_hash": run.event_hash,
                    "n_events": run.n_events,
                })
                return
            if sub == "audit":
                audit = store.get_audit(run_id)
                if audit is None:
                    raise ApiError(404, f"run {run_id} has no audit report")
                self._send_json({
                    "run_id": run_id, "passed": audit.passed,
                    "report": audit.report,
                })
                return
            if sub == "checkpoints":
                self._send_json([
                    {"period": c.period, "log_offset": c.log_offset,
                     "created_at": c.created_at}
                    for c in store.list_checkpoints(run_id)
                ])
                return
            # sub == "events"
            self._send_events(run_id, follow=bool(query.get("follow")),
                              timeout_s=float(query.get("timeout", "60")))

        def _send_events(
            self, run_id: int, follow: bool, timeout_s: float
        ) -> None:
            run = service.store.get_run(run_id)
            if not run.event_log:
                raise ApiError(409, f"run {run_id} has no event log yet")
            path = Path(run.event_log)
            if not follow:
                if not path.exists():
                    raise ApiError(404, f"event log {path} not found")
                self._send_text(
                    path.read_text(encoding="utf-8"), "application/x-ndjson"
                )
                return
            # tail -f: stream complete lines until the run is terminal
            # and fully drained (or the timeout elapses).  No length is
            # known up front, so the connection closes to mark the end.
            self.close_connection = True
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
            self.send_header("Connection", "close")
            self.end_headers()
            follower = JsonlFollower(path)
            deadline = time.monotonic() + min(timeout_s, 600.0)
            while time.monotonic() < deadline:
                records = follower.poll()
                for record in records:
                    self.wfile.write(
                        json.dumps(record, default=str).encode() + b"\n"
                    )
                if records:
                    self.wfile.flush()
                elif service.store.get_run(run_id).terminal:
                    return
                else:
                    time.sleep(0.2)

    return Handler
