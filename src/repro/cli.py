"""Command-line entry points (installed as ``repro-sim``,
``repro-scenario``, ``repro-trace``, ``repro-obs`` and ``repro-faults``;
``repro-serve`` lives in :mod:`repro.service.cli`).

``repro-sim --scenario NAME|FILE`` is the one run command: it resolves a
scenario (``repro-scenario list`` shows the registry, including the
paper rigs ``testbed-paper`` and ``largescale-paper``), applies
``--set PATH=VALUE`` overrides and an optional ``--faults FILE``
(validate/generate one with ``repro-faults``), runs it through the
control-plane kernel and prints a plain-text report.
``--trace-jsonl PATH`` records a structured telemetry log that
``repro-obs`` can summarize, profile, audit, or watch live (see
``docs/OBSERVABILITY.md``); ``--checkpoint``/``--resume`` take and
restore mid-run snapshots.  All commands take ``--verbose``/``--quiet``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np

from repro.obs import (
    JsonlBackend,
    Telemetry,
    render_summary,
    summarize_jsonl,
    use_telemetry,
)
from repro.traces.generator import TraceConfig, generate_trace
from repro.util.logsetup import add_verbosity_flags, configure_logging
from repro.util.tables import format_table


def _telemetry_scope(jsonl_path: Optional[str]):
    """JSONL telemetry scope when a path was given, else a no-op scope.

    Also arms the SIGTERM handler so a terminated run unwinds through
    the ``with`` block and the event log is flushed and closed rather
    than truncated mid-line.
    """
    if jsonl_path is None:
        return contextlib.nullcontext()
    from repro.obs import install_sigterm_flush

    install_sigterm_flush()
    return use_telemetry(Telemetry(JsonlBackend(jsonl_path)))


def main_trace(argv: Optional[List[str]] = None) -> int:
    """Generate a synthetic utilization trace and write it to CSV."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Generate a synthetic 15-minute data-center utilization trace.",
    )
    parser.add_argument("output", help="output CSV path")
    parser.add_argument("--servers", type=int, default=5415)
    parser.add_argument("--days", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    trace = generate_trace(
        TraceConfig(n_servers=args.servers, n_days=args.days), rng=args.seed
    )
    trace.to_csv(args.output)
    u = trace.utilization
    print(
        f"Wrote {args.output}: {trace.n_series} series x {trace.n_samples} samples, "
        f"util mean {u.mean():.3f} / p95 {np.percentile(u, 95):.3f}"
    )
    return 0


def main_obs(argv: Optional[List[str]] = None) -> int:
    """Inspect telemetry JSONL files recorded by instrumented runs."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect telemetry recorded with --trace-jsonl (or the obs API): "
        "summarize a finished run, profile kernel phases, audit SLO/power, "
        "or watch a run live.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize",
        help="reduce a telemetry JSONL file to tracking error, time-in-span, "
        "and optimizer activity tables",
    )
    p_sum.add_argument("path", help="telemetry JSONL file")
    p_sum.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of tables",
    )

    p_prof = sub.add_parser(
        "profile",
        help="aggregate the kernel's phase.* spans into a per-phase "
        "wall/CPU/allocation profile",
    )
    p_prof.add_argument("path", help="telemetry JSONL file")
    p_prof.add_argument(
        "--json", action="store_true",
        help="print the profile as JSON instead of a table",
    )

    p_aud = sub.add_parser(
        "audit",
        help="evaluate SLO-violation episodes and power savings vs a "
        "baseline; exit 1 when the SLO check fails",
    )
    p_aud.add_argument("path", help="telemetry JSONL file")
    p_aud.add_argument(
        "--json", action="store_true",
        help="print the audit report as JSON instead of tables",
    )
    p_aud.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the machine-readable report (JSON) here",
    )
    p_aud.add_argument(
        "--baseline-w", type=float, default=None,
        help="fixed baseline power in W (default: derive per --baseline-rule)",
    )
    p_aud.add_argument(
        "--baseline-rule", choices=["peak", "first"], default="peak",
        help="how to derive the baseline from the trace when --baseline-w "
        "is not given (default: peak observed power)",
    )
    p_aud.add_argument(
        "--violation-budget", type=float, default=0.1,
        help="max tolerated fraction of violating periods per app "
        "(default 0.1)",
    )

    p_watch = sub.add_parser(
        "watch",
        help="follow a (possibly still-growing) telemetry file and render "
        "a live ASCII dashboard",
    )
    p_watch.add_argument("path", help="telemetry JSONL file (may not exist yet)")
    p_watch.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds (default 2)",
    )
    p_watch.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit",
    )
    p_watch.add_argument(
        "--max-updates", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until the run ends)",
    )
    p_watch.add_argument(
        "--prom", metavar="PATH", default=None,
        help="keep a Prometheus text-exposition snapshot current at PATH "
        "(scrape-ready, e.g. for a textfile collector)",
    )

    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    import json as _json

    if args.command == "watch":
        from repro.obs import watch as obs_watch

        dash = obs_watch(
            args.path,
            interval_s=args.interval,
            once=args.once,
            max_updates=args.max_updates,
            prom_path=args.prom,
        )
        if dash.n_records == 0:
            print(f"repro-obs: no records read from {args.path}", file=sys.stderr)
            return 1
        return 0

    try:
        if args.command == "summarize":
            summary = summarize_jsonl(args.path)
        elif args.command == "profile":
            from repro.obs import profile_jsonl

            summary = profile_jsonl(args.path)
        else:
            from repro.obs import AuditConfig, audit_jsonl

            summary = audit_jsonl(args.path, AuditConfig(
                baseline_power_w=args.baseline_w,
                baseline_rule=args.baseline_rule,
                violation_budget=args.violation_budget,
            ))
    except OSError as exc:
        print(f"repro-obs: cannot read {args.path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"repro-obs: {exc}", file=sys.stderr)
        return 1

    if args.command == "audit" and args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(summary, fh, indent=2, default=str)
        print(f"audit report written to {args.output}", file=sys.stderr)
    if args.json:
        print(_json.dumps(summary, indent=2, default=str))
    else:
        if args.command == "summarize":
            text = render_summary(summary, title=args.path)
            if summary.get("n_malformed"):
                text += f"\n\n({summary['n_malformed']} malformed lines skipped)"
            print(text)
        elif args.command == "profile":
            from repro.obs import render_profile

            print(render_profile(summary, title=args.path))
        else:
            from repro.obs import render_audit

            print(render_audit(summary, title=args.path))
    if args.command == "audit" and not summary["slo"]["passed"]:
        return 1
    return 0


def main_faults(argv: Optional[List[str]] = None) -> int:
    """Validate or generate fault-injection scenario files."""
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="Work with fault-injection scenario specs (JSON) for "
        "repro-sim --faults.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="check a scenario file and summarize its timeline"
    )
    p_val.add_argument("path", help="fault spec JSON file")

    p_gen = sub.add_parser(
        "generate",
        help="write a random (seeded, reproducible) scenario file",
    )
    p_gen.add_argument("output", help="output JSON path")
    p_gen.add_argument("--horizon", type=float, default=600.0,
                       help="scenario length in seconds")
    p_gen.add_argument("--server-ids", nargs="+", default=["T0", "T1", "T2", "T3"],
                       help="servers faults may target (testbed default: T0..T3)")
    p_gen.add_argument("--app-ids", nargs="*", default=[],
                       help="applications sensor faults may target")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--crash-rate", type=float, default=0.5,
                       help="server crashes per hour (Poisson)")
    p_gen.add_argument("--throttle-rate", type=float, default=0.5,
                       help="thermal throttles per hour (Poisson)")
    p_gen.add_argument("--sensor-rate", type=float, default=0.0,
                       help="sensor outages per hour (Poisson)")
    p_gen.add_argument("--mean-duration", type=float, default=600.0,
                       help="mean fault duration in seconds (exponential)")

    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    from repro.faults import FaultSchedule, validate_spec

    if args.command == "validate":
        import json as _json

        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                spec = _json.load(fh)
        except OSError as exc:
            print(f"repro-faults: cannot read {args.path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"repro-faults: {args.path} is not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate_spec(spec)
        if problems:
            for p in problems:
                print(f"repro-faults: {p}", file=sys.stderr)
            return 1
        schedule = FaultSchedule.from_spec(spec)
        by_kind: dict = {}
        for ev in schedule.events:
            by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
        last = max((ev.end_time_s for ev in schedule.events), default=0.0)
        print(
            f"{args.path}: OK — {len(schedule)} events ({kinds}), "
            f"seed {schedule.seed}, last transition at {last:.0f}s"
        )
        return 0

    schedule = FaultSchedule.random(
        horizon_s=args.horizon,
        server_ids=args.server_ids,
        app_ids=args.app_ids,
        seed=args.seed,
        crash_rate_per_hour=args.crash_rate,
        throttle_rate_per_hour=args.throttle_rate,
        sensor_rate_per_hour=args.sensor_rate,
        mean_duration_s=args.mean_duration,
    )
    schedule.to_json(args.output)
    print(f"wrote {args.output}: {len(schedule)} events over {args.horizon:.0f}s "
          f"(seed {args.seed})")
    return 0


def _read_json(path: str, unreadable: str):
    """Parse a JSON input file, or exit 1 with a one-line message."""
    import json as _json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _json.load(fh)
    except OSError:
        print(unreadable, file=sys.stderr)
    except ValueError as exc:
        print(f"{path} is not JSON: {exc}", file=sys.stderr)
    raise SystemExit(1)


def _load_scenario(name_or_path: str, sets=(), faults_path: Optional[str] = None):
    """Resolve a CLI scenario argument into a validated spec.

    *name_or_path* is a registry name or a spec JSON file; *sets* are
    ``PATH=VALUE`` overrides and *faults_path* a fault spec file that
    becomes the spec's ``faults`` section.  Unreadable files exit 1
    here; a spec that does not resolve raises
    :class:`~repro.engine.scenario.ScenarioError` for the caller to
    report under its own program name.
    """
    from repro.engine.scenario import (
        builtin_registry,
        parse_overrides,
        resolve_scenario,
    )

    registry = builtin_registry()
    source = name_or_path
    if name_or_path not in registry:
        source = _read_json(
            name_or_path,
            f"unknown scenario {name_or_path!r} (and no such file); "
            f"known: {', '.join(registry.names())}",
        )
    overrides = parse_overrides(sets)
    if faults_path is not None:
        overrides["faults"] = _read_json(
            faults_path, f"cannot read fault spec {faults_path}"
        )
    return resolve_scenario(source, overrides, registry)


def main_scenario(argv: Optional[List[str]] = None) -> int:
    """List and validate kernel scenario specs."""
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Inspect the named engine scenarios runnable with "
        "repro-sim --scenario.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    p_list = sub.add_parser("list", help="show every registered scenario")
    p_list.add_argument(
        "--json", action="store_true",
        help="print the full specs as JSON instead of a table",
    )
    p_val = sub.add_parser(
        "validate",
        help="check a scenario (registry name or JSON spec file)",
    )
    p_val.add_argument("scenario", help="registered name or path to a spec JSON")
    p_show = sub.add_parser(
        "show",
        help="print a fully-resolved scenario spec as JSON "
        "(editable, then runnable with repro-sim --scenario FILE)",
    )
    p_show.add_argument("scenario", help="registered name or path to a spec JSON")

    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    from repro.engine.scenario import ScenarioError, builtin_registry

    if args.command == "list":
        registry = builtin_registry()
        if args.json:
            import json as _json

            print(_json.dumps([s.to_dict() for s in registry], indent=2))
            return 0
        rows = [[s.name, s.harness, "yes" if s.faults else "-", s.description]
                for s in registry]
        print(format_table(
            ["name", "harness", "faults", "description"], rows,
            title=f"{len(registry)} scenarios",
        ))
        return 0

    try:
        spec = _load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"repro-scenario: {exc}", file=sys.stderr)
        return 1
    if args.command == "show":
        import json as _json

        print(_json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    engine_desc = f"{spec.harness} harness"
    if spec.faults:
        engine_desc += f", {len(spec.faults.get('events', []))} fault events"
    print(f"{spec.name}: OK — {engine_desc}")
    return 0


def main_sim(argv: Optional[List[str]] = None) -> int:
    """Run a named scenario through the control-plane kernel."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run a scenario (see repro-scenario list) through the "
        "unified engine, optionally checkpointing mid-run or resuming "
        "from a checkpoint.",
    )
    parser.add_argument(
        "--scenario", required=True, metavar="NAME",
        help="registered scenario name, or path to a scenario spec JSON",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="dotted-path override of the spec, e.g. params.duration_s=600 "
        "or params.control_mode=fleet (repeatable; VALUE is JSON when it "
        "parses, a bare string otherwise)",
    )
    parser.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject the fault scenario described by this JSON spec "
        "(see repro-faults); replaces the spec's faults section",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="record telemetry (spans, events, metrics) to a JSONL file",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="with --checkpoint-at: write the mid-run checkpoint here and stop",
    )
    parser.add_argument(
        "--checkpoint-at", type=int, default=None, metavar="K",
        help="stop after K control periods and save --checkpoint",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="restore this checkpoint (same scenario!) and run to completion",
    )
    add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    if (args.checkpoint is None) != (args.checkpoint_at is None):
        parser.error("--checkpoint and --checkpoint-at go together")
    if args.resume and args.checkpoint:
        parser.error("--resume and --checkpoint are mutually exclusive")

    from repro.engine.kernel import CheckpointError, ControlPlane, run_session
    from repro.engine.scenario import ScenarioError
    from repro.sim.report import largescale_report, testbed_report

    try:
        spec = _load_scenario(args.scenario, args.set, args.faults)
        engine, backend = spec.build()
    except ScenarioError as exc:
        print(f"repro-sim: {exc}", file=sys.stderr)
        return 1
    if args.checkpoint_at is not None and not 1 <= args.checkpoint_at < engine.n_periods:
        print(
            f"repro-sim: --checkpoint-at {args.checkpoint_at} is not mid-run: "
            f"{spec.name} runs {engine.n_periods} periods, so K must be in "
            f"1..{engine.n_periods - 1}",
            file=sys.stderr,
        )
        return 1

    def cannot_resume(exc: Exception) -> int:
        print(f"repro-sim: cannot resume {args.resume}: {exc}", file=sys.stderr)
        return 1

    resume = result = None
    if args.resume:
        try:
            resume = ControlPlane.load_checkpoint(args.resume)
        except (OSError, CheckpointError) as exc:
            return cannot_resume(exc)
    try:
        with _telemetry_scope(args.trace_jsonl), run_session(engine, backend, resume):
            if resume is not None:
                print(
                    f"resumed {spec.name} at period {engine.k}/{engine.n_periods}"
                )
            if args.checkpoint is not None:
                engine.run(until_period=args.checkpoint_at)
                engine.save_checkpoint(args.checkpoint)
                print(
                    f"checkpoint at period {engine.k}/{engine.n_periods} "
                    f"written to {args.checkpoint}"
                )
            else:
                engine.run()
                result = backend.result()
    except CheckpointError as exc:  # restore refused the document
        return cannot_resume(exc)
    if spec.harness == "testbed" and result is not None:
        cfg = backend.config
        print(testbed_report(result, n_apps=cfg.n_apps, setpoint_ms=cfg.setpoint_ms))
    elif result is not None:
        report = largescale_report(result)
        if "n_pods" in result.info:
            report += (
                f"\n{int(result.info['n_pods'])} pods on "
                f"{int(result.info['workers'])} workers"
            )
        print(report)
    if args.trace_jsonl:
        print(f"telemetry written to {args.trace_jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main_sim())
