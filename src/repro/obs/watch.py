"""Live telemetry streaming (``repro obs watch``).

Follows the JSONL file a run is writing (tail -f semantics: only
complete, newline-terminated lines are consumed; a partially written
tail stays buffered until the writer finishes it) and maintains a
:class:`LiveDashboard` — rolling windows of datacenter power, per-app
response time vs. set point, active server count, and fault state —
rendered as an ASCII dashboard on every refresh.

The dashboard also renders a Prometheus text-exposition snapshot
(``prometheus_text``), so ``repro obs watch --prom FILE`` keeps a
scrape-ready file current while the run progresses; point any file-based
collector (e.g. node_exporter's textfile collector) at it.

The follow loop ends on its own when the run's final
``{"kind": "metrics"}`` record appears (the backend emits it on close),
after ``--max-updates`` refreshes, or immediately with ``--once``.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import prom_line
from repro.util.ascii_chart import ascii_series

__all__ = ["LiveDashboard", "JsonlFollower", "watch"]


class JsonlFollower:
    """Incremental reader over a growing JSONL file.

    ``poll()`` returns the records appended since the last call.  Lines
    that fail to parse are counted (``n_malformed``) and skipped — the
    writer may crash mid-line.  The file not existing yet is not an
    error; the follower waits for it to appear.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0
        self._partial = ""
        self.n_malformed = 0

    def poll(self) -> List[dict]:
        if not self.path.exists():
            return []
        with open(self.path, "r", encoding="utf-8") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        if not chunk:
            return []
        data = self._partial + chunk
        lines = data.split("\n")
        self._partial = lines.pop()  # "" when data ended with a newline
        records: List[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                self.n_malformed += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                self.n_malformed += 1
        return records


class LiveDashboard:
    """Rolling-window view of an instrumented run, fed record by record."""

    def __init__(self, window: int = 240):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        self.power_w: deque = deque(maxlen=window)
        self.active_servers: deque = deque(maxlen=window)
        self.rt_ratio: deque = deque(maxlen=window)  # worst rt/setpoint
        self.app_rt_ms: Dict[str, float] = {}
        self.app_setpoint_ms: Dict[str, float] = {}
        self.active_faults = 0
        self.n_faults_injected = 0
        self.n_traces = 0
        self.n_records = 0
        self.harness: Optional[str] = None
        self.time_s = 0.0
        self.run_ended = False

    def feed(self, record: dict) -> None:
        """Consume one telemetry record (unknown kinds are ignored)."""
        self.n_records += 1
        kind = record.get("kind")
        if kind == "run_config":
            self.harness = record.get("harness", self.harness)
        elif kind in ("testbed.period", "largescale.step"):
            self.time_s = float(record.get("time_s", self.time_s))
            power = record.get("power_w")
            if power is not None and math.isfinite(float(power)):
                self.power_w.append(float(power))
            active = record.get("active_servers")
            if active is not None:
                self.active_servers.append(int(active))
        elif kind == "control_period":
            worst = 0.0
            for app_id, data in (record.get("apps") or {}).items():
                app_id = str(app_id)
                setpoint = data.get("setpoint_ms")
                if setpoint is not None:
                    self.app_setpoint_ms[app_id] = float(setpoint)
                rt = data.get("rt_ms")
                if rt is not None and math.isfinite(float(rt)):
                    self.app_rt_ms[app_id] = float(rt)
                    ref = self.app_setpoint_ms.get(app_id)
                    if ref:
                        worst = max(worst, float(rt) / ref)
            if worst > 0.0:
                self.rt_ratio.append(worst)
        elif kind == "fault_injected":
            self.active_faults += 1
            self.n_faults_injected += 1
        elif kind == "fault_recovered":
            self.active_faults = max(0, self.active_faults - 1)
        elif kind == "request_trace":
            self.n_traces += 1
        elif kind == "metrics":
            self.run_ended = True

    def render(self, width: int = 64, height: int = 8) -> str:
        """The ASCII dashboard for the current window."""
        slo = "OK" if not self.rt_ratio or self.rt_ratio[-1] <= 1.0 else "VIOLATING"
        status = "ended" if self.run_ended else "running"
        parts = [
            f"run[{self.harness or '?'}] t={self.time_s:.0f}s "
            f"({status}, {self.n_records} records)  "
            f"power={self.power_w[-1] if self.power_w else float('nan'):.1f}W  "
            f"active={self.active_servers[-1] if self.active_servers else 0}  "
            f"faults={self.active_faults}  traces={self.n_traces}  SLO {slo}"
        ]
        if self.power_w:
            parts.append(ascii_series(
                list(self.power_w), width=width, height=height,
                label="datacenter power (W)",
            ))
        if self.rt_ratio:
            parts.append(ascii_series(
                list(self.rt_ratio), width=width, height=height,
                label="worst p90 RT / set point (1.0 = at reference)",
            ))
        if self.active_servers:
            parts.append(ascii_series(
                list(self.active_servers), width=width, height=max(4, height // 2),
                label="active servers",
            ))
        if self.app_rt_ms:
            rows = []
            for app_id in sorted(self.app_rt_ms):
                rt = self.app_rt_ms[app_id]
                ref = self.app_setpoint_ms.get(app_id)
                mark = ""
                if ref:
                    mark = " <-- over" if rt > ref else ""
                rows.append(
                    f"  {app_id}: {rt:7.1f} ms"
                    + (f" / {ref:.0f} ms{mark}" if ref else "")
                )
            parts.append("latest per-app p90 RT vs set point\n" + "\n".join(rows))
        return "\n\n".join(parts)

    def prometheus_text(self) -> str:
        """Scrape-ready text-exposition snapshot of the live state."""
        lines = [
            "# TYPE repro_watch_records_total counter",
            prom_line("repro_watch_records_total", {}, float(self.n_records)),
            "# TYPE repro_watch_power_watts gauge",
            prom_line(
                "repro_watch_power_watts", {},
                float(self.power_w[-1]) if self.power_w else float("nan"),
            ),
            "# TYPE repro_watch_active_servers gauge",
            prom_line(
                "repro_watch_active_servers", {},
                float(self.active_servers[-1]) if self.active_servers else 0.0,
            ),
            "# TYPE repro_watch_active_faults gauge",
            prom_line("repro_watch_active_faults", {}, float(self.active_faults)),
            "# TYPE repro_watch_request_traces_total counter",
            prom_line("repro_watch_request_traces_total", {}, float(self.n_traces)),
        ]
        if self.app_rt_ms:
            lines.append("# TYPE repro_watch_rt_ms gauge")
            for app_id in sorted(self.app_rt_ms):
                lines.append(prom_line(
                    "repro_watch_rt_ms", {"app": app_id}, self.app_rt_ms[app_id]
                ))
        if self.app_setpoint_ms:
            lines.append("# TYPE repro_watch_setpoint_ms gauge")
            for app_id in sorted(self.app_setpoint_ms):
                lines.append(prom_line(
                    "repro_watch_setpoint_ms", {"app": app_id},
                    self.app_setpoint_ms[app_id],
                ))
        return "\n".join(lines) + "\n"


def watch(
    path: Union[str, Path],
    interval_s: float = 2.0,
    once: bool = False,
    max_updates: Optional[int] = None,
    prom_path: Optional[Union[str, Path]] = None,
    window: int = 240,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> LiveDashboard:
    """Follow *path* and re-render the dashboard every ``interval_s``.

    Returns the final dashboard state (tests inspect it).  Stops when
    the run ends (final metrics record), after ``max_updates``
    refreshes, or after one refresh with ``once=True``.
    """
    follower = JsonlFollower(path)
    dash = LiveDashboard(window=window)
    updates = 0
    while True:
        for record in follower.poll():
            dash.feed(record)
        out(dash.render())
        if prom_path is not None:
            Path(prom_path).write_text(dash.prometheus_text(), encoding="utf-8")
        updates += 1
        if once or dash.run_ended:
            break
        if max_updates is not None and updates >= max_updates:
            break
        sleep(interval_s)
    return dash
