"""One reader and one fold over a run's telemetry event log.

:class:`JsonlFollower` is the only JSONL parser in :mod:`repro.obs`: it
reads what a file gained since the last poll, skips and counts lines
that are not a JSON object, and leaves an unterminated final line for
the next poll unless the read is ``final`` (a finished file).

:class:`RunLog` is fed one record at a time and keeps everything the
``summarize`` / ``profile`` / ``audit`` / ``watch`` reports read, so
each report is a plain function of a ``RunLog``.  Datacenter power and
active-server rows (``testbed.period`` / ``largescale.step``) are keyed
by ``time_s`` and rows at one time are summed in record order: a
sharded run's pods each emit a row per step, and their sum is the
datacenter sample (exactly as the sharded backend sums its pod series).
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = ["JsonlFollower", "RunLog", "Series", "SpanTally", "read_jsonl_lenient"]

#: ``(time_s, rt_ms, setpoint_ms)``; ``rt_ms`` is NaN when unmeasured.
Sample = Tuple[float, float, Optional[float]]


class JsonlFollower:
    """Incremental, lenient reader over a (possibly growing) JSONL file.

    ``poll()`` returns the records appended since the last call.  Lines
    that are not a JSON object are counted (``n_malformed``) and
    skipped.  A line without its newline stays in the file for the next
    poll — the writer may be mid-line — unless ``final=True``, which
    reads a finished file to its end.  A file that does not exist yet
    polls empty; a ``final`` read of one raises ``FileNotFoundError``.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._offset = 0
        self.n_malformed = 0

    def poll(self, final: bool = False) -> List[dict]:
        if not final and not self.path.exists():
            return []
        records: List[dict] = []
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            for line in fh:
                if not (final or line.endswith(b"\n")):
                    break
                self._offset += len(line)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if isinstance(record, dict):
                    records.append(record)
                else:
                    self.n_malformed += 1
        return records


def read_jsonl_lenient(path: Union[str, Path]) -> Tuple[List[dict], int]:
    """Every record of a finished JSONL file: ``(records, n_malformed)``.

    A run killed mid-write leaves a truncated last line (and a crashed
    writer can interleave garbage); such lines, and non-object lines
    such as a bare JSON number, are skipped and counted.
    """
    follower = JsonlFollower(path)
    return follower.poll(final=True), follower.n_malformed


class Series(dict):
    """Datacenter samples keyed by ``time_s``, summed per time.

    With ``window`` set only the newest ``window`` times are kept, and a
    row for a time at or before the newest evicted one is dropped (its
    sample has left the window).
    """

    def __init__(self, window: Optional[int] = None):
        super().__init__()
        self.window = window
        self._horizon = -math.inf

    def add(self, time_s: float, value: Any) -> None:
        if time_s in self:
            self[time_s] += value
        elif time_s > self._horizon:
            self[time_s] = value
            if self.window is not None and len(self) > self.window:
                oldest = next(iter(self))
                del self[oldest]
                self._horizon = max(self._horizon, oldest)


class SpanTally:
    """Count, wall/CPU totals, max and depth of a group of span records."""

    __slots__ = ("count", "total_s", "max_s", "max_depth", "cpu_s", "alloc_blocks")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.max_depth = 0
        self.cpu_s = 0.0
        self.alloc_blocks = 0

    def add(self, record: dict, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        self.max_s = max(self.max_s, duration_s)
        self.max_depth = max(self.max_depth, int(record.get("depth", 0)))
        self.cpu_s += float(record.get("cpu_s", 0.0))
        self.alloc_blocks += int(record.get("alloc_blocks", 0))


class SizeTally:
    """Count, sum and max of a stream of group sizes."""

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0

    def add(self, size: int) -> None:
        self.count += 1
        self.total += size
        self.max = max(self.max, size)


_PHASE = "phase."
_FLEET = "manager.fleet_control"


class RunLog:
    """A run's event log folded record by record (see the module doc).

    ``window`` bounds the power, active-server and per-app series to
    their newest entries (the live dashboard); ``None`` keeps them all.
    """

    def __init__(self, window: Optional[int] = None):
        if window is not None and window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        #: every ``run_config`` field, later records winning
        self.header: Dict[str, Any] = {}
        self.n_periods = 0
        self.apps: Dict[str, Deque[Sample]] = {}
        self.power_w = Series(window)
        self.active_servers = Series(window)
        #: every span record by name (pods included)
        self.spans: Dict[str, SpanTally] = {}
        #: top-level ``phase.*`` spans by phase; pods' spans go to ``pods``
        self.phases: Dict[str, SpanTally] = {}
        self.pods: Dict[int, SpanTally] = {}
        #: MPC group sizes of every ``manager.fleet_control`` span
        self.fleet_group_sizes = SizeTally()
        self.optimizer: Dict[str, Any] = {
            "invocations": 0, "migrations": 0, "wake": 0, "sleep": 0,
            "unplaced": 0, "info_totals": {},
        }
        self.migrations = 0
        self.transitions = {"on": 0, "off": 0}
        self.faults = {"injected": 0, "recovered": 0}
        self.active_faults = 0
        self.request_traces: Dict[str, int] = {}
        self.attribution: Optional[dict] = None
        self.metrics: Optional[dict] = None
        self.ended = False
        self.n_records = 0
        self.n_malformed = 0

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunLog":
        """Fold a finished JSONL file (lenient: malformed lines counted)."""
        log = cls()
        log.pull(JsonlFollower(path), final=True)
        return log

    def pull(self, follower: JsonlFollower, final: bool = False) -> None:
        """Fold the records *follower* gained since its last poll."""
        for record in follower.poll(final):
            self.feed(record)
        self.n_malformed = follower.n_malformed

    def feed(self, rec: dict) -> None:
        """Fold one record (unknown kinds only count)."""
        self.n_records += 1
        kind = rec.get("kind")
        if kind == "span":
            name = str(rec.get("name", "?"))
            dur = float(rec.get("duration_s", 0.0))
            self.spans.setdefault(name, SpanTally()).add(rec, dur)
            if name.startswith(_PHASE):
                if "pod" in rec:
                    self.pods.setdefault(int(rec["pod"]), SpanTally()).add(rec, dur)
                else:
                    self.phases.setdefault(name[len(_PHASE):], SpanTally()).add(rec, dur)
            elif name == _FLEET:
                for size in rec.get("batch_group_sizes") or ():
                    self.fleet_group_sizes.add(int(size))
        elif kind == "control_period":
            self.n_periods += 1
            time_s = float(rec.get("time_s", 0.0))
            for app_id, data in (rec.get("apps") or {}).items():
                rt, setpoint = data.get("rt_ms"), data.get("setpoint_ms")
                samples = self.apps.setdefault(str(app_id), deque(maxlen=self.window))
                samples.append((
                    time_s,
                    float("nan") if rt is None else float(rt),
                    None if setpoint is None else float(setpoint),
                ))
        elif kind in ("testbed.period", "largescale.step"):
            time_s = float(rec.get("time_s", 0.0))
            power, active = rec.get("power_w"), rec.get("active_servers")
            if power is not None and math.isfinite(float(power)):
                self.power_w.add(time_s, float(power))
            if active is not None:
                self.active_servers.add(time_s, int(active))
        elif kind == "run_config":
            self.header.update(rec)
        elif kind == "optimizer_invocation":
            opt = self.optimizer
            opt["invocations"] += 1
            opt["migrations"] += int(rec.get("moves", 0))
            for key in ("wake", "sleep", "unplaced"):
                opt[key] += int(rec.get(key, 0))
            totals = opt["info_totals"]
            for key, value in (rec.get("info") or {}).items():
                totals[key] = totals.get(key, 0.0) + float(value)
        elif kind == "migration":
            self.migrations += 1
        elif kind == "server_power":
            state = str(rec.get("state", ""))
            if state in self.transitions:
                self.transitions[state] += 1
        elif kind == "fault_injected":
            self.faults["injected"] += 1
            self.active_faults += 1
        elif kind == "fault_recovered":
            self.faults["recovered"] += 1
            self.active_faults = max(0, self.active_faults - 1)
        elif kind == "request_trace":
            app = str(rec.get("app", "?"))
            self.request_traces[app] = self.request_traces.get(app, 0) + 1
        elif kind == "attribution_summary":
            self.attribution = rec.get("attribution")
        elif kind == "metrics":
            self.metrics = rec.get("metrics")
            self.ended = True

    @property
    def harness(self) -> Optional[str]:
        return self.header.get("harness")

    @property
    def period_s(self) -> Optional[float]:
        """The run's control period (testbed) or step (large-scale)."""
        dt = self.header.get("control_period_s", self.header.get("step_s"))
        return None if dt is None else float(dt)


def malformed_note(report: dict) -> str:
    """`` [N malformed lines skipped]`` for a report header, or ``""``."""
    n = report.get("n_malformed", 0)
    return f" [{n} malformed lines skipped]" if n else ""
