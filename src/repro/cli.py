"""The ``repro`` command: one parser, five subcommands.

* ``repro sim --scenario NAME|FILE`` is the one run command: it resolves
  a scenario (``repro sim --list`` shows the registry, including the
  paper rigs ``testbed-paper`` and ``largescale-paper``), applies
  ``--set PATH=VALUE`` overrides and an optional ``--faults FILE``,
  runs it through the control-plane kernel and prints a plain-text
  report.  ``--show`` prints the resolved spec instead of running it.
  ``--trace-jsonl PATH`` records a structured telemetry log;
  ``--checkpoint``/``--resume`` take and restore mid-run snapshots.
* ``repro trace`` writes a synthetic utilization trace; ``repro faults``
  validates or generates fault specs for ``--faults``.
* ``repro obs`` summarizes, profiles, audits or watches a telemetry log
  (see ``docs/OBSERVABILITY.md``).
* ``repro serve`` runs or talks to the control-plane service
  (:mod:`repro.service.cli`).

Every subcommand takes ``--verbose``/``--quiet``.  A user error — a
:class:`~repro.util.cliutil.CliError`, a
:class:`~repro.engine.scenario.ScenarioError`, or a file that cannot be
read or written — prints one ``repro <sub>: ...`` line and exits 1.
``python -m repro.cli ...`` is the module form of the command.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from typing import Any, List, Optional

import numpy as np

from repro.engine.scenario import (
    ScenarioError,
    builtin_registry,
    parse_overrides,
    resolve_scenario,
    scenario_source,
)
from repro.obs import (
    AuditConfig,
    JsonlBackend,
    RunLog,
    Telemetry,
    audit_run,
    profile_run,
    render_audit,
    render_profile,
    render_summary,
    summarize_run,
    use_telemetry,
    watch,
)
from repro.service import cli as serve_cli
from repro.traces.generator import TraceConfig, generate_trace
from repro.util.cliutil import CliError, configure_logging
from repro.util.tables import format_table

#: Argument dests that name a file a subcommand writes; ``main`` checks
#: their directories before running and reports a failure as "write".
_OUTPUTS = ("output", "trace_jsonl", "checkpoint", "prom")


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


def _read_json(path: str) -> Any:
    """Parse a JSON input file (an unreadable one is ``main``'s to report)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CliError(f"{path} is not JSON: {exc}") from None


# -- repro trace ---------------------------------------------------------


def _cmd_trace(args: argparse.Namespace) -> int:
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


# -- repro obs -----------------------------------------------------------


def _obs_report(args: argparse.Namespace, report, render) -> dict:
    """Fold ``args.path`` into a report and print it as tables or JSON."""
    out = report(RunLog.read(args.path))
    if args.json:
        print(json.dumps(out, indent=2, default=str))
    else:
        print(render(out, title=args.path))
    return out


def _obs_summarize(args: argparse.Namespace) -> int:
    _obs_report(args, summarize_run, render_summary)
    return 0


def _obs_profile(args: argparse.Namespace) -> int:
    _obs_report(args, profile_run, render_profile)
    return 0


def _obs_audit(args: argparse.Namespace) -> int:
    try:
        config = AuditConfig(
            baseline_power_w=args.baseline_w,
            baseline_rule=args.baseline_rule,
            violation_budget=args.violation_budget,
        )
    except ValueError as exc:  # an out-of-range option
        raise CliError(str(exc)) from None
    report = _obs_report(args, lambda log: audit_run(log, config), render_audit)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"audit report written to {args.output}", file=sys.stderr)
    return 0 if report["slo"]["passed"] else 1


def _obs_watch(args: argparse.Namespace) -> int:
    try:
        log = watch(
            args.path,
            interval_s=args.interval,
            once=args.once,
            max_updates=args.max_updates,
            prom_path=args.prom,
        )
    except ValueError as exc:  # an out-of-range option, refused up front
        raise CliError(str(exc)) from None
    if log.n_records == 0:
        raise CliError(f"no records read from {args.path}")
    return 0


# -- repro faults --------------------------------------------------------


def _faults_validate(args: argparse.Namespace) -> int:
    from repro.faults import FaultSchedule, validate_spec

    spec = _read_json(args.path)
    problems = validate_spec(spec)
    if problems:
        raise CliError(f"{args.path} is invalid:\n  " + "\n  ".join(problems))
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


def _faults_generate(args: argparse.Namespace) -> int:
    from repro.faults import FaultSchedule

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


# -- repro sim -----------------------------------------------------------


def _sim_list() -> int:
    registry = builtin_registry()
    rows = [[s.name, s.harness, "yes" if s.faults else "-", s.description]
            for s in registry]
    print(format_table(
        ["name", "harness", "faults", "description"], rows,
        title=f"{len(registry)} scenarios",
    ))
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    if args.list:
        return _sim_list()
    if (args.checkpoint is None) != (args.checkpoint_at is None):
        raise CliError("--checkpoint and --checkpoint-at go together")

    from repro.engine.kernel import CheckpointError, ControlPlane, run_session
    from repro.sim.report import largescale_report, testbed_report

    overrides = parse_overrides(args.set)
    if args.faults is not None:
        overrides["faults"] = _read_json(args.faults)
    spec = resolve_scenario(scenario_source(args.scenario), overrides)
    if args.show:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    engine, backend = spec.build()
    if args.checkpoint_at is not None and not 1 <= args.checkpoint_at < engine.n_periods:
        raise CliError(
            f"--checkpoint-at {args.checkpoint_at} is not mid-run: "
            f"{spec.name} runs {engine.n_periods} periods, so K must be in "
            f"1..{engine.n_periods - 1}"
        )

    resume = result = None
    if args.resume:
        try:
            resume = ControlPlane.load_checkpoint(args.resume)
        except (OSError, CheckpointError) as exc:
            raise CliError(f"cannot resume {args.resume}: {exc}") from None
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
        raise CliError(f"cannot resume {args.resume}: {exc}") from None
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


# -- the parser ----------------------------------------------------------


def _add_sim(sub: Any, common: argparse.ArgumentParser) -> None:
    p = sub.add_parser(
        "sim", parents=[common],
        help="run a scenario through the control-plane kernel",
        description="Run a scenario through the unified engine, optionally "
        "checkpointing mid-run or resuming from a checkpoint; --list shows "
        "the registry and --show prints a resolved spec.",
    )
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--scenario", metavar="NAME|FILE",
        help="registered scenario name, else path to a scenario spec JSON",
    )
    what.add_argument(
        "--list", action="store_true", help="show every registered scenario",
    )
    p.add_argument(
        "--show", action="store_true",
        help="print the resolved spec as JSON instead of running it (an "
        "editable file for --scenario); exit 1 listing every problem when "
        "it does not validate",
    )
    p.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="dotted-path override of the spec, e.g. params.duration_s=600 "
        "or params.control_mode=fleet (repeatable; VALUE is JSON when it "
        "parses, a bare string otherwise)",
    )
    p.add_argument(
        "--faults", metavar="PATH", default=None,
        help="inject the fault scenario described by this JSON spec "
        "(see repro faults); replaces the spec's faults section",
    )
    p.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="record telemetry (spans, events, metrics) to a JSONL file",
    )
    p.add_argument(
        "--checkpoint-at", type=int, default=None, metavar="K",
        help="stop after K control periods and save --checkpoint",
    )
    restart = p.add_mutually_exclusive_group()
    restart.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="with --checkpoint-at: write the mid-run checkpoint here and stop",
    )
    restart.add_argument(
        "--resume", metavar="PATH", default=None,
        help="restore this checkpoint (same scenario!) and run to completion",
    )
    p.set_defaults(func=_cmd_sim)


def _add_trace(sub: Any, common: argparse.ArgumentParser) -> None:
    p = sub.add_parser(
        "trace", parents=[common],
        help="write a synthetic utilization trace to CSV",
        description="Generate a synthetic 15-minute data-center utilization trace.",
    )
    p.add_argument("output", help="output CSV path")
    p.add_argument("--servers", type=int, default=5415)
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_trace)


def _add_faults(sub: Any, common: argparse.ArgumentParser) -> None:
    p = sub.add_parser(
        "faults", parents=[common],
        help="validate or generate fault-injection specs",
        description="Work with fault-injection scenario specs (JSON) for "
        "repro sim --faults.",
    )
    actions = p.add_subparsers(dest="action", required=True)
    p_val = actions.add_parser(
        "validate", help="check a scenario file and summarize its timeline"
    )
    p_val.add_argument("path", help="fault spec JSON file")
    p_val.set_defaults(func=_faults_validate)

    p_gen = actions.add_parser(
        "generate", help="write a random (seeded, reproducible) scenario file",
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
    p_gen.set_defaults(func=_faults_generate)


def _add_obs(sub: Any, common: argparse.ArgumentParser) -> None:
    p = sub.add_parser(
        "obs", parents=[common],
        help="inspect telemetry recorded with --trace-jsonl",
        description="Inspect telemetry recorded with --trace-jsonl (or the obs "
        "API): summarize a finished run, profile kernel phases, audit "
        "SLO/power, or watch a run live.",
    )
    actions = p.add_subparsers(dest="action", required=True)

    def report(name: str, summary: str, json_help: str, func) -> argparse.ArgumentParser:
        p_act = actions.add_parser(name, help=summary)
        p_act.add_argument("path", help="telemetry JSONL file")
        p_act.add_argument("--json", action="store_true", help=json_help)
        p_act.set_defaults(func=func)
        return p_act

    report(
        "summarize",
        "reduce a telemetry JSONL file to tracking error, time-in-span, "
        "and optimizer activity tables",
        "print the summary as JSON instead of tables", _obs_summarize,
    )
    report(
        "profile",
        "aggregate the kernel's phase.* spans into a per-phase "
        "wall/CPU/allocation profile",
        "print the profile as JSON instead of a table", _obs_profile,
    )
    p_aud = report(
        "audit",
        "evaluate SLO-violation episodes and power savings vs a "
        "baseline; exit 1 when the SLO check fails",
        "print the audit report as JSON instead of tables", _obs_audit,
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

    p_watch = actions.add_parser(
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
    p_watch.set_defaults(func=_obs_watch)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: five subcommands sharing ``-v``/``-q``."""
    common = argparse.ArgumentParser(add_help=False)
    verbosity = common.add_mutually_exclusive_group()
    verbosity.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress (-v: INFO, -vv: DEBUG)",
    )
    verbosity.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings (errors only)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Performance-controlled power optimization for "
        "virtualized data centers: run scenarios, generate traces and "
        "fault specs, inspect telemetry, serve experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_sim, _add_trace, _add_faults, _add_obs, serve_cli.add_parser):
        add(sub, common)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run ``repro`` with *argv*; returns the exit status."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    prog = f"repro {args.command}"
    outputs = {getattr(args, dest) for dest in _OUTPUTS if getattr(args, dest, None)}
    try:
        for path in outputs:  # fail before the work, not after it
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return int(args.func(args))
    except (CliError, ScenarioError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
    except OSError as exc:
        if exc.filename is None:
            raise
        verb = "write" if os.fspath(exc.filename) in outputs else "read"
        print(f"{prog}: cannot {verb} {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
