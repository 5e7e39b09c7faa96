"""Kernel phase profiling aggregation (``repro obs profile``).

The :class:`~repro.engine.kernel.ControlPlane` wraps every phase of
every control period in a ``phase.<name>`` telemetry span annotated
with CPU time (``cpu_s``) and the net change in allocated memory
blocks (``alloc_blocks``).  This module reduces those spans to a
per-phase profile: invocation count, wall/CPU totals, mean/max wall
time, allocation churn, and each phase's share of total kernel time.

Exact despite sampling: when the run's tracer sampled span *records*
(``span_sample_every > 1``) the per-record aggregates undercount, but
the final ``{"kind": "metrics"}`` snapshot carries the ``span.phase.*``
histograms which observed **every** span — where present, their exact
count/sum/max override the sampled record tally (CPU and allocation
columns remain sampled estimates, marked as such in the report).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.summarize import read_jsonl_lenient
from repro.util.tables import format_table

__all__ = ["profile_events", "profile_jsonl", "render_profile"]

_PREFIX = "phase."


def profile_events(records: List[dict]) -> dict:
    """Reduce telemetry records to a per-phase kernel profile dict."""
    phases: Dict[str, dict] = {}
    per_pod: Dict[int, dict] = {}
    fleet_spans = 0
    metrics = None
    for rec in records:
        kind = rec.get("kind")
        if kind == "span":
            name = str(rec.get("name", ""))
            if name == "manager.fleet_control":
                fleet_spans += 1
            if not name.startswith(_PREFIX):
                continue
            phase = name[len(_PREFIX):]
            entry = phases.setdefault(phase, {
                "sampled_records": 0,
                "count": 0,
                "wall_s": 0.0,
                "max_ms": 0.0,
                "cpu_s": 0.0,
                "alloc_blocks": 0,
                "exact": False,
            })
            dur = float(rec.get("duration_s", 0.0))
            entry["sampled_records"] += 1
            entry["count"] += 1
            entry["wall_s"] += dur
            entry["max_ms"] = max(entry["max_ms"], dur * 1000.0)
            entry["cpu_s"] += float(rec.get("cpu_s", 0.0))
            entry["alloc_blocks"] += int(rec.get("alloc_blocks", 0))
            # Spans re-emitted by the sharded backend carry the pod that
            # produced them; aggregate a per-pod view alongside.
            if "pod" in rec:
                pod = per_pod.setdefault(int(rec["pod"]), {
                    "spans": 0, "wall_s": 0.0, "cpu_s": 0.0,
                })
                pod["spans"] += 1
                pod["wall_s"] += dur
                pod["cpu_s"] += float(rec.get("cpu_s", 0.0))
        elif kind == "metrics":
            metrics = rec.get("metrics")

    # Histograms saw every span; prefer their exact wall-time figures.
    for hname, hsum in ((metrics or {}).get("histograms") or {}).items():
        if not hname.startswith("span." + _PREFIX):
            continue
        phase = hname[len("span." + _PREFIX):]
        entry = phases.setdefault(phase, {
            "sampled_records": 0, "count": 0, "wall_s": 0.0, "max_ms": 0.0,
            "cpu_s": 0.0, "alloc_blocks": 0, "exact": False,
        })
        entry["count"] = int(hsum.get("count", entry["count"]))
        entry["wall_s"] = float(hsum.get("sum", entry["wall_s"]))
        hmax = hsum.get("max")
        if hmax is not None and math.isfinite(float(hmax)):
            entry["max_ms"] = float(hmax) * 1000.0
        entry["exact"] = True

    total_wall = sum(e["wall_s"] for e in phases.values())
    for entry in phases.values():
        entry["mean_ms"] = (
            1000.0 * entry["wall_s"] / entry["count"] if entry["count"] else 0.0
        )
        entry["wall_fraction"] = (
            entry["wall_s"] / total_wall if total_wall > 0.0 else 0.0
        )
    # Fleet-control grouping efficiency: the batch metrics saw every
    # period (counters/histograms are never sampled), so the mean group
    # size tells how well the fleet's solves coalesced — a mean near
    # the fleet size is one stacked solve per period; a mean near 1 is
    # scalar work with extra bookkeeping.
    fleet = None
    msnap = metrics or {}
    groups = float((msnap.get("counters") or {}).get(
        "controller.batch_groups", 0.0
    ))
    size_hist = (msnap.get("histograms") or {}).get("controller.batch_size")
    if groups or size_hist:
        fleet = {
            "batch_groups": groups,
            "spans": fleet_spans,
            "group_size": size_hist or {},
        }
    return {
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1]["wall_s"])),
        "total_wall_s": total_wall,
        "per_pod": dict(sorted(per_pod.items())),
        "fleet": fleet,
        "sampled": any(
            e["exact"] and e["sampled_records"] < e["count"]
            for e in phases.values()
        ),
    }


def profile_jsonl(path: Union[str, Path]) -> dict:
    """Lenient read + :func:`profile_events`; adds ``n_malformed``."""
    records, n_malformed = read_jsonl_lenient(path)
    profile = profile_events(records)
    profile["n_malformed"] = n_malformed
    return profile


def render_profile(profile: dict, title: str = "kernel phase profile") -> str:
    """Render a profile dict as a plain-text table."""
    phases = profile["phases"]
    header = f"{title}: {len(phases)} phases, {profile['total_wall_s']:.3f}s total wall"
    malformed = profile.get("n_malformed", 0)
    if malformed:
        header += f" [{malformed} malformed lines skipped]"
    if not phases:
        return header + "\n(no phase.* spans in this run — was telemetry enabled?)"
    rows = [
        [
            phase,
            entry["count"],
            f"{entry['wall_fraction']:.1%}",
            f"{entry['wall_s']:.3f}",
            f"{entry['mean_ms']:.3f}",
            f"{entry['max_ms']:.3f}",
            f"{entry['cpu_s']:.3f}",
            entry["alloc_blocks"],
        ]
        for phase, entry in phases.items()
    ]
    note = ""
    if profile.get("sampled"):
        note = (
            "\n\nwall columns are exact (histogram-backed); cpu/alloc are "
            "estimates from sampled span records."
        )
    out = header + "\n\n" + format_table(
        ["phase", "count", "share", "wall s", "mean ms", "max ms",
         "cpu s", "alloc blocks"],
        rows,
        title="Per-phase cost",
    )
    per_pod = profile.get("per_pod") or {}
    if per_pod:
        pod_wall = sum(p["wall_s"] for p in per_pod.values())
        pod_rows = [
            [
                f"pod {pod_id}",
                entry["spans"],
                f"{entry['wall_s'] / pod_wall:.1%}" if pod_wall > 0 else "-",
                f"{entry['wall_s']:.3f}",
                f"{entry['cpu_s']:.3f}",
            ]
            for pod_id, entry in per_pod.items()
        ]
        out += "\n\n" + format_table(
            ["pod", "spans", "share", "wall s", "cpu s"],
            pod_rows,
            title="Per-pod span cost (sharded run)",
        )
    fleet = profile.get("fleet")
    if fleet:
        size = fleet.get("group_size") or {}
        count = float(size.get("count", 0.0))

        def _f(key):
            v = size.get(key)
            return "-" if v is None or not math.isfinite(float(v)) else f"{float(v):.1f}"

        fleet_rows = [[
            int(fleet["batch_groups"]),
            f"{_f('mean')}" if count else "-",
            _f("max") if count else "-",
            f"{size.get('sum', 0.0):.0f}" if count else "-",
        ]]
        out += "\n\n" + format_table(
            ["solve groups", "mean size", "max size", "solves batched"],
            fleet_rows,
            title="Fleet control grouping (controller.batch_* metrics)",
        )
    return out + note
