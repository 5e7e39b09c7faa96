"""Live telemetry streaming (``repro obs watch``).

Follows the JSONL file a run is writing (tail -f semantics: only
complete, newline-terminated lines are consumed; a partially written
tail waits until the writer finishes it) into a windowed
:class:`~repro.obs.runlog.RunLog` — rolling windows of datacenter power,
per-app response time vs. set point, active server count, and fault
state — rendered as an ASCII dashboard on every refresh.

The dashboard also renders a Prometheus text-exposition snapshot
(:func:`watch_prometheus`), so ``repro obs watch --prom FILE`` keeps a
scrape-ready file current while the run progresses; point any file-based
collector (e.g. node_exporter's textfile collector) at it.

The follow loop ends on its own when the run's final
``{"kind": "metrics"}`` record appears (the backend emits it on close),
after ``--max-updates`` refreshes, or immediately with ``--once``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.obs.metrics import prom_text
from repro.obs.runlog import JsonlFollower, RunLog
from repro.util.ascii_chart import ascii_series

__all__ = ["watch_view", "render_watch", "watch_prometheus", "watch"]


def _last(values, default):
    return values[-1] if values else default


def watch_view(log: RunLog) -> dict:
    """The dashboard state of a (windowed) run log."""
    app_rt_ms: Dict[str, float] = {}
    app_setpoint_ms: Dict[str, float] = {}
    worst: Dict[float, float] = {}  # per period: worst rt / set point
    for app_id, samples in log.apps.items():
        for time_s, rt_ms, setpoint_ms in samples:
            if setpoint_ms is not None:
                app_setpoint_ms[app_id] = setpoint_ms
            if math.isfinite(rt_ms):
                app_rt_ms[app_id] = rt_ms
                ref = app_setpoint_ms.get(app_id)
                if ref:
                    worst[time_s] = max(worst.get(time_s, 0.0), rt_ms / ref)
    rt_ratio = [ratio for _, ratio in sorted(worst.items()) if ratio > 0.0]
    steps = log.active_servers or log.power_w
    return {
        "harness": log.harness,
        "time_s": next(reversed(steps), 0.0),
        "ended": log.ended,
        "n_records": log.n_records,
        "power_w": list(log.power_w.values()),
        "active_servers": list(log.active_servers.values()),
        "rt_ratio": rt_ratio[-log.window:] if log.window else rt_ratio,
        "app_rt_ms": app_rt_ms,
        "app_setpoint_ms": app_setpoint_ms,
        "active_faults": log.active_faults,
        "n_traces": sum(log.request_traces.values()),
    }


def render_watch(view: dict, width: int = 64, height: int = 8) -> str:
    """The ASCII dashboard of a :func:`watch_view`."""
    power, active, ratio = view["power_w"], view["active_servers"], view["rt_ratio"]
    slo = "OK" if not ratio or ratio[-1] <= 1.0 else "VIOLATING"
    status = "ended" if view["ended"] else "running"
    parts = [
        f"run[{view['harness'] or '?'}] t={view['time_s']:.0f}s "
        f"({status}, {view['n_records']} records)  "
        f"power={_last(power, float('nan')):.1f}W  "
        f"active={_last(active, 0)}  "
        f"faults={view['active_faults']}  traces={view['n_traces']}  SLO {slo}"
    ]
    if power:
        parts.append(ascii_series(
            power, width=width, height=height, label="datacenter power (W)",
        ))
    if ratio:
        parts.append(ascii_series(
            ratio, width=width, height=height,
            label="worst p90 RT / set point (1.0 = at reference)",
        ))
    if active:
        parts.append(ascii_series(
            active, width=width, height=max(4, height // 2),
            label="active servers",
        ))
    if view["app_rt_ms"]:
        rows = []
        for app_id in sorted(view["app_rt_ms"]):
            rt = view["app_rt_ms"][app_id]
            ref = view["app_setpoint_ms"].get(app_id)
            mark = ""
            if ref:
                mark = " <-- over" if rt > ref else ""
            rows.append(
                f"  {app_id}: {rt:7.1f} ms"
                + (f" / {ref:.0f} ms{mark}" if ref else "")
            )
        parts.append("latest per-app p90 RT vs set point\n" + "\n".join(rows))
    return "\n\n".join(parts)


def watch_prometheus(view: dict) -> str:
    """Scrape-ready text-exposition snapshot of a :func:`watch_view`."""
    families = [
        (name, kind, [("", None, float(value))])
        for name, kind, value in (
            ("repro_watch_records_total", "counter", view["n_records"]),
            ("repro_watch_power_watts", "gauge", _last(view["power_w"], float("nan"))),
            ("repro_watch_active_servers", "gauge", _last(view["active_servers"], 0)),
            ("repro_watch_active_faults", "gauge", view["active_faults"]),
            ("repro_watch_request_traces_total", "counter", view["n_traces"]),
        )
    ]
    for name, per_app in (("repro_watch_rt_ms", view["app_rt_ms"]),
                          ("repro_watch_setpoint_ms", view["app_setpoint_ms"])):
        if per_app:
            families.append((name, "gauge", [
                ("", {"app": app_id}, per_app[app_id]) for app_id in sorted(per_app)
            ]))
    return prom_text(families)


def watch(
    path: Union[str, Path],
    interval_s: float = 2.0,
    once: bool = False,
    max_updates: Optional[int] = None,
    prom_path: Optional[Union[str, Path]] = None,
    window: int = 240,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> RunLog:
    """Follow *path* and re-render the dashboard every ``interval_s``.

    Returns the final (windowed) run log.  Stops when the run ends
    (final metrics record), after ``max_updates`` refreshes, or after
    one refresh with ``once=True``.
    """
    if not (math.isfinite(interval_s) and interval_s >= 0.0):
        raise ValueError(f"interval must be finite and >= 0, got {interval_s}")
    if max_updates is not None and max_updates < 1:
        raise ValueError(f"max_updates must be >= 1, got {max_updates}")
    follower = JsonlFollower(path)
    log = RunLog(window=window)
    updates = 0
    while True:
        log.pull(follower)
        view = watch_view(log)
        out(render_watch(view))
        if prom_path is not None:
            Path(prom_path).write_text(watch_prometheus(view), encoding="utf-8")
        updates += 1
        if once or log.ended:
            break
        if max_updates is not None and updates >= max_updates:
            break
        sleep(interval_s)
    return log
