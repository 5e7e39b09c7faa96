"""SLO/power audit pipeline over a telemetry event log (``repro obs audit``).

Streams the records of an instrumented run (testbed or large-scale)
through a single-pass evaluator and produces a machine-readable audit
report answering the two questions the paper's evaluation asks of every
policy:

* **Did the SLO hold?**  Per application, contiguous runs of control
  periods whose measured response time exceeded the set point are
  grouped into *violation episodes* — entry time, exit time, duration,
  period count, and the worst excess over the set point.  Periods with
  no measurement (NaN response time — e.g. zero completed requests)
  neither open nor close an episode.
* **What did the power optimization buy?**  Per-period datacenter power
  is integrated into energy and compared against a no-consolidation
  baseline — either a caller-supplied constant or one derived from the
  trace itself (``peak``: the maximum power observed; ``first``: the
  power of the first period, i.e. before the optimizer acted).  A
  rolling-window power series tracks savings over time.

The report is a plain dict (JSON-safe) so CI jobs can archive it and
assert on it; :func:`render_audit` renders the human view.  Reading
from disk goes through the lenient JSONL reader — a truncated run file
still audits, with ``n_malformed`` counted in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.summarize import read_jsonl_lenient
from repro.util.fold import left_sum
from repro.util.tables import format_table

__all__ = [
    "AuditConfig",
    "AuditPipeline",
    "audit_events",
    "audit_jsonl",
    "render_audit",
]

_BASELINE_RULES = ("peak", "first")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for the audit evaluator.

    ``baseline_power_w`` fixes the comparison baseline; when ``None``
    it is derived from the trace per ``baseline_rule``.  An app passes
    the SLO check when its fraction of violating measured periods stays
    within ``violation_budget``.
    """

    baseline_power_w: Optional[float] = None
    baseline_rule: str = "peak"
    violation_budget: float = 0.1
    rolling_window: int = 20
    max_rolling_points: int = 120

    def __post_init__(self):
        if self.baseline_rule not in _BASELINE_RULES:
            raise ValueError(
                f"baseline_rule must be one of {_BASELINE_RULES}, "
                f"got {self.baseline_rule!r}"
            )
        if not 0.0 <= self.violation_budget <= 1.0:
            raise ValueError(
                f"violation_budget must be in [0, 1], got {self.violation_budget}"
            )
        if self.rolling_window < 1:
            raise ValueError(
                f"rolling_window must be >= 1, got {self.rolling_window}"
            )
        if self.max_rolling_points < 2:
            raise ValueError(
                f"max_rolling_points must be >= 2, got {self.max_rolling_points}"
            )


class _AppAudit:
    """Per-application episode tracker (one instance per app id)."""

    __slots__ = ("setpoint_ms", "periods", "measured", "violations",
                 "episodes", "_open")

    def __init__(self) -> None:
        self.setpoint_ms: Optional[float] = None
        self.periods = 0
        self.measured = 0
        self.violations = 0
        self.episodes: List[dict] = []
        self._open: Optional[dict] = None

    def feed(self, time_s: float, rt_ms: float, setpoint_ms: Optional[float]) -> None:
        self.periods += 1
        if setpoint_ms is not None:
            self.setpoint_ms = float(setpoint_ms)
        if not math.isfinite(rt_ms):
            return  # no measurement: episode state unchanged
        self.measured += 1
        setpoint = self.setpoint_ms
        if setpoint is None:
            return
        excess = rt_ms - setpoint
        if excess > 0.0:
            self.violations += 1
            if self._open is None:
                self._open = {
                    "start_s": time_s,
                    "end_s": time_s,
                    "periods": 0,
                    "worst_rt_ms": rt_ms,
                    "worst_excess_ms": excess,
                }
            ep = self._open
            ep["end_s"] = time_s
            ep["periods"] += 1
            if excess > ep["worst_excess_ms"]:
                ep["worst_excess_ms"] = excess
                ep["worst_rt_ms"] = rt_ms
        elif self._open is not None:
            self._close(open_at_end=False)

    def _close(self, open_at_end: bool) -> None:
        ep = self._open
        assert ep is not None
        ep["duration_s"] = ep["end_s"] - ep["start_s"]
        ep["open_at_end"] = open_at_end
        self.episodes.append(ep)
        self._open = None

    def finish(self) -> None:
        if self._open is not None:
            self._close(open_at_end=True)

    def summary(self, budget: float) -> dict:
        fraction = self.violations / self.measured if self.measured else 0.0
        worst = max(
            (ep["worst_excess_ms"] for ep in self.episodes), default=0.0
        )
        return {
            "setpoint_ms": self.setpoint_ms,
            "periods": self.periods,
            "measured": self.measured,
            "violations": self.violations,
            "violation_fraction": fraction,
            "n_episodes": len(self.episodes),
            "worst_excess_ms": worst,
            "within_budget": fraction <= budget,
            "episodes": list(self.episodes),
        }


class AuditPipeline:
    """Single-pass streaming evaluator; ``feed`` records, then ``report``."""

    def __init__(self, config: Optional[AuditConfig] = None):
        self.config = config or AuditConfig()
        self._apps: Dict[str, _AppAudit] = {}
        self._power_t: List[float] = []
        self._power_w: List[float] = []
        self._harness: Optional[str] = None
        self._dt_s: Optional[float] = None
        self._n_records = 0
        self._faults = {"injected": 0, "recovered": 0}

    def feed(self, record: dict) -> None:
        """Consume one telemetry record (unknown kinds are ignored)."""
        self._n_records += 1
        kind = record.get("kind")
        if kind == "run_config":
            self._harness = record.get("harness", self._harness)
            dt = record.get("control_period_s", record.get("step_s"))
            if dt is not None:
                self._dt_s = float(dt)
        elif kind == "control_period":
            time_s = float(record.get("time_s", len(self._power_t)))
            for app_id, data in (record.get("apps") or {}).items():
                audit = self._apps.setdefault(str(app_id), _AppAudit())
                rt = data.get("rt_ms")
                rt_ms = float(rt) if rt is not None else float("nan")
                audit.feed(time_s, rt_ms, data.get("setpoint_ms"))
        elif kind in ("testbed.period", "largescale.step"):
            power = record.get("power_w")
            if power is not None and math.isfinite(float(power)):
                self._power_t.append(float(record.get("time_s", 0.0)))
                self._power_w.append(float(power))
        elif kind == "fault_injected":
            self._faults["injected"] += 1
        elif kind == "fault_recovered":
            self._faults["recovered"] += 1

    def feed_all(self, records) -> "AuditPipeline":
        for record in records:
            self.feed(record)
        return self

    # -- report --------------------------------------------------------

    def _period_s(self) -> float:
        if self._dt_s is not None:
            return self._dt_s
        ts = self._power_t
        if len(ts) >= 2:
            return (ts[-1] - ts[0]) / (len(ts) - 1)
        return 1.0

    def _baseline_w(self) -> Optional[float]:
        if self.config.baseline_power_w is not None:
            return float(self.config.baseline_power_w)
        if not self._power_w:
            return None
        if self.config.baseline_rule == "first":
            return self._power_w[0]
        return max(self._power_w)

    def _rolling(self, baseline: Optional[float]) -> List[dict]:
        """Rolling mean power (and savings vs. baseline) over time."""
        cfg = self.config
        window, points = cfg.rolling_window, []
        running = 0.0
        for i, power in enumerate(self._power_w):
            running += power
            if i >= window:
                running -= self._power_w[i - window]
            n = min(i + 1, window)
            mean_w = running / n
            point = {"time_s": self._power_t[i], "mean_w": mean_w}
            if baseline:
                point["savings_fraction"] = 1.0 - mean_w / baseline
            points.append(point)
        if len(points) > cfg.max_rolling_points:  # decimate for the report
            stride = math.ceil(len(points) / cfg.max_rolling_points)
            points = points[::stride] + (
                [points[-1]] if (len(points) - 1) % stride else []
            )
        return points

    def report(self) -> dict:
        """Close open episodes and assemble the JSON-safe audit report."""
        cfg = self.config
        for audit in self._apps.values():
            audit.finish()
        per_app = {
            app: audit.summary(cfg.violation_budget)
            for app, audit in sorted(self._apps.items())
        }
        period_s = self._period_s()
        hours = period_s / 3600.0
        energy_wh = left_sum(self._power_w) * hours
        baseline = self._baseline_w()
        power: Dict[str, object] = {
            "samples": len(self._power_w),
            "mean_w": (left_sum(self._power_w) / len(self._power_w)
                       if self._power_w else float("nan")),
            "min_w": min(self._power_w) if self._power_w else float("nan"),
            "max_w": max(self._power_w) if self._power_w else float("nan"),
            "energy_wh": energy_wh,
            "baseline_rule": (
                "fixed" if cfg.baseline_power_w is not None else cfg.baseline_rule
            ),
            "baseline_w": baseline,
        }
        if baseline:
            baseline_wh = baseline * hours * len(self._power_w)
            power["baseline_energy_wh"] = baseline_wh
            power["savings_wh"] = baseline_wh - energy_wh
            power["savings_fraction"] = (
                1.0 - energy_wh / baseline_wh if baseline_wh else 0.0
            )
        slo_pass = all(entry["within_budget"] for entry in per_app.values())
        return {
            "harness": self._harness,
            "n_records": self._n_records,
            "period_s": period_s,
            "apps": per_app,
            "power": power,
            "rolling_power": self._rolling(baseline),
            "faults": dict(self._faults),
            "slo": {
                "violation_budget": cfg.violation_budget,
                "n_apps": len(per_app),
                "n_failing": sum(
                    1 for e in per_app.values() if not e["within_budget"]
                ),
                "passed": slo_pass,
            },
        }


def audit_events(records, config: Optional[AuditConfig] = None) -> dict:
    """Audit an in-memory record list; returns the report dict."""
    return AuditPipeline(config).feed_all(records).report()


def audit_jsonl(path: Union[str, Path], config: Optional[AuditConfig] = None) -> dict:
    """Audit a JSONL run file (lenient read; malformed lines counted)."""
    records, n_malformed = read_jsonl_lenient(path)
    report = audit_events(records, config)
    report["n_malformed"] = n_malformed
    return report


def _fmt(value, digits: int = 1) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}"


def render_audit(report: dict, title: str = "SLO/power audit") -> str:
    """Render an audit report dict as plain-text tables."""
    slo = report["slo"]
    verdict = "PASS" if slo["passed"] else "FAIL"
    header = (
        f"{title}: harness={report['harness'] or '?'}, "
        f"{report['n_records']} records, SLO {verdict} "
        f"({slo['n_failing']}/{slo['n_apps']} apps over budget "
        f"{slo['violation_budget']:.0%})"
    )
    malformed = report.get("n_malformed", 0)
    if malformed:
        header += f" [{malformed} malformed lines skipped]"
    parts = [header]

    if report["apps"]:
        rows = [
            [
                app,
                _fmt(entry["setpoint_ms"], 0),
                entry["measured"],
                entry["violations"],
                f"{entry['violation_fraction']:.1%}",
                entry["n_episodes"],
                _fmt(entry["worst_excess_ms"]),
                "yes" if entry["within_budget"] else "NO",
            ]
            for app, entry in report["apps"].items()
        ]
        parts.append(
            format_table(
                ["app", "set ms", "meas", "viol", "viol %", "episodes",
                 "worst exc ms", "in budget"],
                rows,
                title="Per-app SLO compliance",
            )
        )
        ep_rows = []
        for app, entry in report["apps"].items():
            for ep in entry["episodes"]:
                ep_rows.append([
                    app,
                    _fmt(ep["start_s"], 0),
                    _fmt(ep["end_s"], 0),
                    _fmt(ep["duration_s"], 0),
                    ep["periods"],
                    _fmt(ep["worst_rt_ms"]),
                    _fmt(ep["worst_excess_ms"]),
                    "open" if ep["open_at_end"] else "closed",
                ])
        if ep_rows:
            parts.append(
                format_table(
                    ["app", "start s", "end s", "dur s", "periods",
                     "worst ms", "excess ms", "state"],
                    ep_rows,
                    title="Violation episodes",
                )
            )

    power = report["power"]
    rows = [
        ["power samples", power["samples"]],
        ["mean power W", _fmt(power["mean_w"])],
        ["min/max power W", f"{_fmt(power['min_w'])} / {_fmt(power['max_w'])}"],
        ["energy Wh", _fmt(power["energy_wh"], 2)],
        [f"baseline W ({power['baseline_rule']})", _fmt(power["baseline_w"])],
    ]
    if "savings_wh" in power:
        rows.append(["baseline energy Wh", _fmt(power["baseline_energy_wh"], 2)])
        rows.append([
            "savings vs baseline",
            f"{_fmt(power['savings_wh'], 2)} Wh ({power['savings_fraction']:.1%})",
        ])
    faults = report["faults"]
    if faults["injected"] or faults["recovered"]:
        rows.append([
            "faults injected/recovered",
            f"{faults['injected']} / {faults['recovered']}",
        ])
    parts.append(format_table(["quantity", "value"], rows, title="Power audit"))
    return "\n\n".join(parts)
