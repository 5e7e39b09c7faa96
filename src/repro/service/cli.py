"""``repro serve``: run the control-plane service, or talk to one.

``start`` runs the service in the foreground (SIGTERM and Ctrl-C shut
it down gracefully: in-flight runs are checkpointed into the store and
requeued, event logs are flushed and closed, and a later ``start``
resumes them to bit-identical results).  The other actions are thin
HTTP clients against a running service:

* ``submit SCENARIO`` — queue one run (``--set params.seed=7`` applies
  dotted-path overrides; ``--wait`` polls to completion and exits
  non-zero if the run failed);
* ``status [RUN_ID]`` — one run, or a queue/status overview;
* ``results RUN_ID`` — the stored result summary (``--audit`` fetches
  the audit report instead and exits 1 when the SLO audit failed,
  mirroring ``repro obs audit``);
* ``sweep SCENARIO --set params.seed=1,2,3 ...`` — expand a parameter
  grid server-side into one job per configuration.

SCENARIO is read by :func:`~repro.engine.scenario.scenario_source`, the
rule ``repro sim --scenario`` uses too: a registered name
(``repro sim --list``) first, else a spec JSON file.  :mod:`repro.cli`
registers these actions with :func:`add_parser`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.engine.scenario import parse_overrides, scenario_source
from repro.util.cliutil import CliError

__all__ = ["add_parser"]

DEFAULT_URL = "http://127.0.0.1:8642"


# -- HTTP client helpers ----------------------------------------------


def _request(
    method: str, url: str, body: Optional[Dict[str, Any]] = None
) -> Any:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            payload = resp.read()
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace").strip()
        try:
            detail = json.loads(detail).get("error", detail)
        except ValueError:
            pass
        raise CliError(f"{exc.code} {exc.reason}: {detail}") from None
    except urllib.error.URLError as exc:
        raise CliError(
            f"cannot reach {url}: {exc.reason} "
            "(is the service running? see 'repro serve start')"
        ) from None
    if not payload:
        return None
    return json.loads(payload)


def _scenario_body(scenario: str) -> Dict[str, Any]:
    """Request body naming a registered scenario or carrying a spec file."""
    source = scenario_source(scenario)
    return {"scenario": source} if isinstance(source, str) else {"spec": source}


def _wait_for_runs(url: str, run_ids: List[int], poll_s: float) -> List[dict]:
    """Poll until every run id is terminal; returns the final documents."""
    done: Dict[int, dict] = {}
    while len(done) < len(run_ids):
        for run_id in run_ids:
            if run_id in done:
                continue
            doc = _request("GET", f"{url}/api/runs/{run_id}")
            if doc["status"] in ("done", "failed", "cancelled"):
                done[run_id] = doc
        if len(done) < len(run_ids):
            time.sleep(poll_s)
    return [done[run_id] for run_id in run_ids]


# -- subcommands -------------------------------------------------------


def _cmd_start(args: argparse.Namespace) -> int:
    from repro.obs import install_sigterm_flush
    from repro.service.api import ControlPlaneService, ServiceConfig

    install_sigterm_flush()  # SIGTERM -> SystemExit -> graceful path below
    service = ControlPlaneService(ServiceConfig(
        db_path=args.db,
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        audit_violation_budget=args.audit_violation_budget,
    ))
    print(
        f"repro serve: listening on {service.url} "
        f"({args.workers} workers, store {args.db})",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print(
            "repro serve: shutting down (checkpointing in-flight runs)",
            file=sys.stderr, flush=True,
        )
        service.shutdown(graceful=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    body = _scenario_body(args.scenario)
    overrides = parse_overrides(args.set)
    if overrides:
        body["overrides"] = overrides
    if args.force:
        body["force"] = True
    doc = _request("POST", f"{args.url}/api/runs", body)
    run = doc["run"]
    cached = " (cached)" if doc.get("cached") else ""
    print(f"run {run['id']}: {run['name']} [{run['status']}]{cached}")
    if not args.wait:
        return 0
    final = _wait_for_runs(args.url, [int(run["id"])], args.poll)[0]
    print(f"run {final['id']}: {final['status']}"
          + (f" — {final['error']}" if final.get("error") else ""))
    if args.json:
        print(json.dumps(final, indent=2))
    return 0 if final["status"] == "done" else 1


def _cmd_status(args: argparse.Namespace) -> int:
    if args.run_id is not None:
        doc = _request("GET", f"{args.url}/api/runs/{args.run_id}")
        print(json.dumps(doc, indent=2))
        return 0
    health = _request("GET", f"{args.url}/api/health")
    if args.json:
        print(json.dumps(health, indent=2))
        return 0
    runs = health["runs"]
    print(
        f"service ok — {health['busy_workers']}/{health['workers']} workers busy, "
        + ", ".join(f"{runs[s]} {s}" for s in sorted(runs) if runs[s])
    )
    for run in _request("GET", f"{args.url}/api/runs"):
        progress = ""
        if run["n_periods"]:
            progress = f" {run['periods_done']}/{run['n_periods']}"
        print(f"  run {run['id']:>4} {run['status']:>10}{progress}  {run['name']}")
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    if args.audit:
        doc = _request("GET", f"{args.url}/api/runs/{args.run_id}/audit")
        print(json.dumps(doc, indent=2))
        return 0 if doc["passed"] else 1
    doc = _request("GET", f"{args.url}/api/runs/{args.run_id}/result")
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = parse_overrides(args.set, grid=True)
    if not grid:
        raise CliError("sweep needs at least one --set PATH=V1,V2,...")
    body = _scenario_body(args.scenario)
    body["grid"] = grid
    if args.name:
        body["name"] = args.name
    doc = _request("POST", f"{args.url}/api/sweeps", body)
    sweep, run_ids = doc["sweep"], doc["run_ids"]
    print(f"sweep {sweep['id']}: {sweep['name']} — {sweep['n_jobs']} jobs queued")
    if not args.wait:
        return 0
    finals = _wait_for_runs(args.url, [int(i) for i in run_ids], args.poll)
    n_done = sum(1 for d in finals if d["status"] == "done")
    print(f"sweep {sweep['id']}: {n_done}/{len(finals)} done")
    for doc in finals:
        if doc["status"] != "done":
            print(f"  run {doc['id']}: {doc['status']} — {doc.get('error')}")
    return 0 if n_done == len(finals) else 1


def add_parser(sub: Any, parent: argparse.ArgumentParser) -> None:
    """Register ``serve`` and its actions on the ``repro`` subparsers *sub*."""
    p = sub.add_parser(
        "serve", parents=[parent],
        help="run (or talk to) the long-running control-plane service",
        description="Run (or talk to) the long-running control-plane "
        "service: HTTP API + experiment runner + SQLite results store "
        "(see docs/SERVICE.md).",
    )
    actions = p.add_subparsers(dest="action", required=True)

    p_start = actions.add_parser("start", help="run the service in the foreground")
    p_start.add_argument("--db", default="repro-service.db",
                         help="SQLite results-store path")
    p_start.add_argument("--data-dir", default="repro-service-data",
                         help="directory for per-run event logs")
    p_start.add_argument("--host", default="127.0.0.1")
    p_start.add_argument("--port", type=int, default=8642)
    p_start.add_argument("--workers", type=int, default=2,
                         help="concurrent experiment workers")
    p_start.add_argument("--checkpoint-every", type=int, default=5, metavar="K",
                         help="checkpoint in-flight runs every K periods")
    p_start.add_argument("--audit-violation-budget", type=float, default=1.0,
                         help="violation budget for the per-run SLO audit "
                         "(default 1.0: record, don't fail, short runs)")
    p_start.set_defaults(func=_cmd_start)

    def client(p: argparse.ArgumentParser, func: Callable[[argparse.Namespace], int]) -> None:
        p.add_argument("--url", default=DEFAULT_URL,
                       help=f"service base URL (default {DEFAULT_URL})")

        def run(args: argparse.Namespace) -> int:
            # A client only waits on HTTP: Ctrl-C must reach it even
            # when its parent started it with SIGINT ignored.
            signal.signal(signal.SIGINT, signal.default_int_handler)
            return func(args)

        p.set_defaults(func=run)

    p_sub = actions.add_parser("submit", help="queue one scenario run")
    p_sub.add_argument("scenario", help="registered name or spec JSON path")
    p_sub.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                       help="dotted-path override, e.g. params.seed=7 "
                       "(repeatable)")
    p_sub.add_argument("--force", action="store_true",
                       help="queue even if an identical spec already ran")
    p_sub.add_argument("--wait", action="store_true",
                       help="poll until the run finishes; exit 1 on failure")
    p_sub.add_argument("--poll", type=float, default=0.5,
                       help="poll interval for --wait (seconds)")
    p_sub.add_argument("--json", action="store_true",
                       help="with --wait: print the final run document")
    client(p_sub, _cmd_submit)

    p_stat = actions.add_parser("status", help="service overview or one run")
    p_stat.add_argument("run_id", nargs="?", type=int, default=None)
    p_stat.add_argument("--json", action="store_true")
    client(p_stat, _cmd_status)

    p_res = actions.add_parser("results", help="fetch a finished run's results")
    p_res.add_argument("run_id", type=int)
    p_res.add_argument("--audit", action="store_true",
                       help="fetch the SLO/power audit report instead; "
                       "exit 1 when the audit failed")
    client(p_res, _cmd_results)

    p_sweep = actions.add_parser(
        "sweep", help="submit a parameter-grid sweep (one job per config)"
    )
    p_sweep.add_argument("scenario", help="registered name or spec JSON path")
    p_sweep.add_argument("--set", action="append", default=[],
                         metavar="PATH=V1,V2,...",
                         help="grid axis: dotted path and comma-separated "
                         "values (repeatable; cartesian product)")
    p_sweep.add_argument("--name", default=None, help="sweep label")
    p_sweep.add_argument("--wait", action="store_true",
                         help="poll until every job finishes; exit 1 if any "
                         "failed")
    p_sweep.add_argument("--poll", type=float, default=0.5)
    client(p_sweep, _cmd_sweep)
