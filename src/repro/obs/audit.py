"""SLO/power audit pipeline over a telemetry event log (``repro obs audit``).

Reduces the :class:`~repro.obs.runlog.RunLog` of an instrumented run
(testbed, large-scale or sharded) to a machine-readable audit report
answering the two questions the paper's evaluation asks of every
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
from typing import Dict, List, Optional

from repro.obs.runlog import RunLog, malformed_note
from repro.util.fold import left_sum
from repro.util.tables import format_table

__all__ = ["AuditConfig", "audit_run", "render_audit"]

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
        if self.baseline_power_w is not None and not (
            math.isfinite(self.baseline_power_w) and self.baseline_power_w > 0.0
        ):
            raise ValueError(
                f"baseline_power_w must be finite and > 0, got {self.baseline_power_w}"
            )
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


def _app_report(samples, budget: float) -> dict:
    """One app's SLO record: violating periods grouped into episodes."""
    setpoint: Optional[float] = None
    measured = violations = 0
    episodes: List[dict] = []
    episode: Optional[dict] = None
    for time_s, rt_ms, setpoint_ms in samples:
        if setpoint_ms is not None:
            setpoint = setpoint_ms
        if not math.isfinite(rt_ms):
            continue  # no measurement: episode state unchanged
        measured += 1
        if setpoint is None:
            continue
        excess = rt_ms - setpoint
        if excess > 0.0:
            violations += 1
            if episode is None:
                episode = {
                    "start_s": time_s,
                    "end_s": time_s,
                    "periods": 0,
                    "worst_rt_ms": rt_ms,
                    "worst_excess_ms": excess,
                }
                episodes.append(episode)
            episode["end_s"] = time_s
            episode["periods"] += 1
            if excess > episode["worst_excess_ms"]:
                episode["worst_excess_ms"] = excess
                episode["worst_rt_ms"] = rt_ms
        elif episode is not None:
            _close(episode, open_at_end=False)
            episode = None
    if episode is not None:
        _close(episode, open_at_end=True)
    fraction = violations / measured if measured else 0.0
    return {
        "setpoint_ms": setpoint,
        "periods": len(samples),
        "measured": measured,
        "violations": violations,
        "violation_fraction": fraction,
        "n_episodes": len(episodes),
        "worst_excess_ms": max(
            (ep["worst_excess_ms"] for ep in episodes), default=0.0
        ),
        "within_budget": fraction <= budget,
        "episodes": episodes,
    }


def _close(episode: dict, open_at_end: bool) -> None:
    episode["duration_s"] = episode["end_s"] - episode["start_s"]
    episode["open_at_end"] = open_at_end


def _rolling(config: AuditConfig, times: List[float], watts: List[float],
             baseline: Optional[float]) -> List[dict]:
    """Rolling mean power (and savings vs. baseline) over time."""
    window, points = config.rolling_window, []
    running = 0.0
    for i, power in enumerate(watts):
        running += power
        if i >= window:
            running -= watts[i - window]
        n = min(i + 1, window)
        mean_w = running / n
        point = {"time_s": times[i], "mean_w": mean_w}
        if baseline:
            point["savings_fraction"] = 1.0 - mean_w / baseline
        points.append(point)
    if len(points) > config.max_rolling_points:  # decimate for the report
        stride = math.ceil(len(points) / config.max_rolling_points)
        points = points[::stride] + (
            [points[-1]] if (len(points) - 1) % stride else []
        )
    return points


def audit_run(log: RunLog, config: Optional[AuditConfig] = None) -> dict:
    """The JSON-safe audit report of a folded run log."""
    cfg = config or AuditConfig()
    per_app = {
        app: _app_report(samples, cfg.violation_budget)
        for app, samples in sorted(log.apps.items())
    }
    times, watts = list(log.power_w), list(log.power_w.values())
    period_s = log.period_s
    if period_s is None:
        period_s = (times[-1] - times[0]) / (len(times) - 1) if len(times) >= 2 else 1.0
    hours = period_s / 3600.0
    energy_wh = left_sum(watts) * hours
    if cfg.baseline_power_w is not None:
        baseline: Optional[float] = float(cfg.baseline_power_w)
    elif not watts:
        baseline = None
    else:
        baseline = watts[0] if cfg.baseline_rule == "first" else max(watts)
    power: Dict[str, object] = {
        "samples": len(watts),
        "mean_w": left_sum(watts) / len(watts) if watts else float("nan"),
        "min_w": min(watts) if watts else float("nan"),
        "max_w": max(watts) if watts else float("nan"),
        "energy_wh": energy_wh,
        "baseline_rule": (
            "fixed" if cfg.baseline_power_w is not None else cfg.baseline_rule
        ),
        "baseline_w": baseline,
    }
    if baseline:
        baseline_wh = baseline * hours * len(watts)
        power["baseline_energy_wh"] = baseline_wh
        power["savings_wh"] = baseline_wh - energy_wh
        power["savings_fraction"] = (
            1.0 - energy_wh / baseline_wh if baseline_wh else 0.0
        )
    return {
        "harness": log.harness,
        "n_records": log.n_records,
        "period_s": period_s,
        "apps": per_app,
        "power": power,
        "rolling_power": _rolling(cfg, times, watts, baseline),
        "faults": dict(log.faults),
        "slo": {
            "violation_budget": cfg.violation_budget,
            "n_apps": len(per_app),
            "n_failing": sum(
                1 for e in per_app.values() if not e["within_budget"]
            ),
            "passed": all(entry["within_budget"] for entry in per_app.values()),
        },
        "n_malformed": log.n_malformed,
    }


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
        + malformed_note(report)
    )
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
