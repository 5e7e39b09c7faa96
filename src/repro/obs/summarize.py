"""Summarize a telemetry JSONL run file (``repro obs summarize``).

Reads the records written by :class:`~repro.obs.backends.JsonlBackend`
during an instrumented run and reduces them to:

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

import json
import logging
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.util.tables import format_table

__all__ = [
    "read_jsonl",
    "read_jsonl_lenient",
    "summarize_events",
    "summarize_jsonl",
    "render_summary",
]

logger = logging.getLogger(__name__)


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse every non-empty line of *path* as one JSON record.

    Raises :class:`ValueError` naming the first malformed line; use
    :func:`read_jsonl_lenient` to tolerate truncated/corrupt files.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    return records


def read_jsonl_lenient(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """Like :func:`read_jsonl`, but skip-and-count malformed lines.

    A run killed mid-write leaves a truncated last line (and a crashed
    writer can interleave garbage); analysis tooling should still read
    the intact prefix.  Returns ``(records, n_malformed)``; non-object
    lines (e.g. a bare JSON number) count as malformed too.
    """
    records: List[dict] = []
    n_malformed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                n_malformed += 1
                logger.debug("%s:%d: skipping malformed JSONL line", path, lineno)
                continue
            if not isinstance(record, dict):
                n_malformed += 1
                continue
            records.append(record)
    return records, n_malformed


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else float("nan")


def summarize_events(records: List[dict]) -> dict:
    """Reduce parsed telemetry records to a summary dict."""
    apps: Dict[str, dict] = {}
    spans: Dict[str, dict] = {}
    optimizer = {
        "invocations": 0,
        "migrations": 0,
        "wake": 0,
        "sleep": 0,
        "unplaced": 0,
        "info_totals": {},
    }
    power_samples: List[float] = []
    transitions = {"on": 0, "off": 0}
    migration_events = 0
    metrics: Optional[dict] = None
    n_periods = 0
    request_traces: Dict[str, int] = {}
    attribution: Optional[dict] = None

    for rec in records:
        kind = rec.get("kind")
        if kind == "control_period":
            n_periods += 1
            for app_id, data in (rec.get("apps") or {}).items():
                entry = apps.setdefault(
                    app_id,
                    {"n": 0, "n_measured": 0, "rts": [], "errors": [], "setpoint_ms": None},
                )
                entry["n"] += 1
                rt = data.get("rt_ms")
                setpoint = data.get("setpoint_ms")
                if setpoint is not None:
                    entry["setpoint_ms"] = float(setpoint)
                if rt is not None and math.isfinite(float(rt)):
                    rt = float(rt)
                    entry["n_measured"] += 1
                    entry["rts"].append(rt)
                    if setpoint is not None:
                        entry["errors"].append(rt - float(setpoint))
        elif kind == "span":
            name = str(rec.get("name", "?"))
            dur = float(rec.get("duration_s", 0.0))
            entry = spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0, "depths": set()}
            )
            entry["count"] += 1
            entry["total_s"] += dur
            entry["max_s"] = max(entry["max_s"], dur)
            entry["depths"].add(int(rec.get("depth", 0)))
        elif kind == "optimizer_invocation":
            optimizer["invocations"] += 1
            optimizer["migrations"] += int(rec.get("moves", 0))
            optimizer["wake"] += int(rec.get("wake", 0))
            optimizer["sleep"] += int(rec.get("sleep", 0))
            optimizer["unplaced"] += int(rec.get("unplaced", 0))
            for key, value in (rec.get("info") or {}).items():
                totals = optimizer["info_totals"]
                totals[key] = totals.get(key, 0.0) + float(value)
        elif kind == "migration":
            migration_events += 1
        elif kind == "server_power":
            state = str(rec.get("state", ""))
            if state in transitions:
                transitions[state] += 1
        elif kind in ("testbed.period", "largescale.step"):
            power = rec.get("power_w")
            if power is not None and math.isfinite(float(power)):
                power_samples.append(float(power))
        elif kind == "request_trace":
            app = str(rec.get("app", "?"))
            request_traces[app] = request_traces.get(app, 0) + 1
        elif kind == "attribution_summary":
            attribution = rec.get("attribution")
        elif kind == "metrics":
            metrics = rec.get("metrics")

    app_rows = {}
    for app_id, entry in sorted(apps.items()):
        rts = entry["rts"]
        errors = entry["errors"]
        rmse = math.sqrt(_mean([e * e for e in errors])) if errors else float("nan")
        app_rows[app_id] = {
            "periods": entry["n"],
            "measured": entry["n_measured"],
            "setpoint_ms": entry["setpoint_ms"],
            "rt_mean_ms": _mean(rts),
            "rt_max_ms": max(rts) if rts else float("nan"),
            "mean_abs_error_ms": _mean([abs(e) for e in errors]),
            "rmse_ms": rmse,
        }

    span_rows = {}
    for name, entry in spans.items():
        span_rows[name] = {
            "count": entry["count"],
            "total_s": entry["total_s"],
            "mean_ms": 1000.0 * entry["total_s"] / entry["count"],
            "max_ms": 1000.0 * entry["max_s"],
            "max_depth": max(entry["depths"]) if entry["depths"] else 0,
        }

    return {
        "n_records": len(records),
        "n_control_periods": n_periods,
        "apps": app_rows,
        "spans": span_rows,
        "optimizer": optimizer,
        "migration_events": migration_events,
        "server_transitions": transitions,
        "power": {
            "samples": len(power_samples),
            "mean_w": _mean(power_samples),
            "max_w": max(power_samples) if power_samples else float("nan"),
        },
        "request_traces": request_traces,
        "attribution": attribution,
        "metrics": metrics,
    }


def summarize_jsonl(path: Union[str, Path]) -> dict:
    """Lenient read + :func:`summarize_events` in one call.

    Malformed lines (a truncated tail, mid-file corruption) are skipped
    and surfaced as ``n_malformed`` in the summary instead of aborting
    the analysis.
    """
    records, n_malformed = read_jsonl_lenient(path)
    summary = summarize_events(records)
    summary["n_malformed"] = n_malformed
    return summary


def _fmt(value: float, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}"


def render_summary(summary: dict, title: str = "telemetry summary") -> str:
    """Render a summary dict as plain-text tables."""
    parts: List[str] = [
        f"{title}: {summary['n_records']} records, "
        f"{summary['n_control_periods']} control periods"
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
