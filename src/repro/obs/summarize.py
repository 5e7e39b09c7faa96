"""Summarize a telemetry JSONL run file (``repro obs summarize``).

Reduces the :class:`~repro.obs.runlog.RunLog` of an instrumented run
to:

* per-application response-time tracking error (vs. each controller's
  set point) from ``control_period`` events;
* a time-in-span breakdown (count, total, mean, max wall time per span
  name) from ``span`` records;
* optimizer activity: invocations, migrations, wake/sleep commands,
  IPAC drain diagnostics, and Minimum-Slack search effort;
* power/transition aggregates from per-period events and
  ``server_power`` transitions;
* the final metrics snapshot, when the run emitted one.
"""

from __future__ import annotations

import math
from typing import List

from repro.obs.runlog import RunLog, malformed_note
from repro.util.tables import format_table

__all__ = ["summarize_run", "render_summary"]


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def summarize_run(log: RunLog) -> dict:
    """Reduce a folded run log to a summary dict."""
    app_rows = {}
    for app_id, samples in sorted(log.apps.items()):
        measured = [(rt, sp) for _, rt, sp in samples if math.isfinite(rt)]
        rts = [rt for rt, _ in measured]
        errors = [rt - sp for rt, sp in measured if sp is not None]
        setpoints = [sp for _, _, sp in samples if sp is not None]
        rmse = math.sqrt(_mean([e * e for e in errors])) if errors else float("nan")
        app_rows[app_id] = {
            "periods": len(samples),
            "measured": len(rts),
            "setpoint_ms": setpoints[-1] if setpoints else None,
            "rt_mean_ms": _mean(rts),
            "rt_max_ms": max(rts) if rts else float("nan"),
            "mean_abs_error_ms": _mean([abs(e) for e in errors]),
            "rmse_ms": rmse,
        }

    span_rows = {
        name: {
            "count": tally.count,
            "total_s": tally.total_s,
            "mean_ms": 1000.0 * tally.total_s / tally.count,
            "max_ms": 1000.0 * tally.max_s,
            "max_depth": tally.max_depth,
        }
        for name, tally in log.spans.items()
    }
    power = list(log.power_w.values())
    return {
        "n_records": log.n_records,
        "n_control_periods": log.n_periods,
        "apps": app_rows,
        "spans": span_rows,
        "optimizer": log.optimizer,
        "migration_events": log.migrations,
        "server_transitions": log.transitions,
        "power": {
            "samples": len(power),
            "mean_w": _mean(power),
            "max_w": max(power) if power else float("nan"),
        },
        "request_traces": log.request_traces,
        "attribution": log.attribution,
        "metrics": log.metrics,
        "n_malformed": log.n_malformed,
    }


def _fmt(value: float, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}"


def render_summary(summary: dict, title: str = "telemetry summary") -> str:
    """Render a summary dict as plain-text tables."""
    parts: List[str] = [
        f"{title}: {summary['n_records']} records, "
        f"{summary['n_control_periods']} control periods"
        + malformed_note(summary)
    ]

    if summary["apps"]:
        rows = [
            [
                app_id,
                data["periods"],
                data["measured"],
                _fmt(data["setpoint_ms"], 0),
                _fmt(data["rt_mean_ms"]),
                _fmt(data["rt_max_ms"]),
                _fmt(data["mean_abs_error_ms"]),
                _fmt(data["rmse_ms"]),
            ]
            for app_id, data in summary["apps"].items()
        ]
        parts.append(
            format_table(
                ["app", "periods", "meas", "set ms", "mean ms", "max ms", "|err| ms", "rmse ms"],
                rows,
                title="Per-app response-time tracking",
            )
        )

    if summary["spans"]:
        ordered = sorted(
            summary["spans"].items(), key=lambda kv: -kv[1]["total_s"]
        )
        rows = [
            [
                name,
                data["count"],
                _fmt(data["total_s"], 3),
                _fmt(data["mean_ms"], 3),
                _fmt(data["max_ms"], 3),
                data["max_depth"],
            ]
            for name, data in ordered
        ]
        parts.append(
            format_table(
                ["span", "count", "total s", "mean ms", "max ms", "depth"],
                rows,
                title="Time in span",
            )
        )

    opt = summary["optimizer"]
    if opt["invocations"]:
        rows = [
            ["invocations", opt["invocations"]],
            ["migrations", opt["migrations"]],
            ["servers woken", opt["wake"]],
            ["servers slept", opt["sleep"]],
            ["unplaced VMs", opt["unplaced"]],
        ]
        for key, value in sorted(opt["info_totals"].items()):
            rows.append([key, _fmt(value, 1)])
        parts.append(format_table(["optimizer", "total"], rows, title="Optimizer activity"))

    power = summary["power"]
    extras = [
        ["power samples", power["samples"]],
        ["mean power W", _fmt(power["mean_w"])],
        ["max power W", _fmt(power["max_w"])],
        ["migration events", summary["migration_events"]],
        ["servers switched on", summary["server_transitions"]["on"]],
        ["servers switched off", summary["server_transitions"]["off"]],
    ]
    parts.append(format_table(["quantity", "value"], extras, title="Run aggregates"))

    metrics = summary.get("metrics")
    if metrics and metrics.get("counters"):
        rows = [[name, _fmt(val, 0)] for name, val in metrics["counters"].items()]
        parts.append(format_table(["counter", "value"], rows, title="Counters"))

    return "\n\n".join(parts)
