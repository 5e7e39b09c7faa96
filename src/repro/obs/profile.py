"""Kernel phase profiling aggregation (``repro obs profile``).

The :class:`~repro.engine.kernel.ControlPlane` wraps every phase of
every control period in a ``phase.<name>`` telemetry span annotated
with CPU time (``cpu_s``) and the net change in allocated memory
blocks (``alloc_blocks``).  This module reduces those spans to a
per-phase profile: invocation count, wall/CPU totals, mean/max wall
time, allocation churn, and each phase's share of total kernel time.
Every span is recorded, so the figures are exact: a phase's ``count``
is its number of periods and its ``wall_s`` the left sum of its record
durations.
"""

from __future__ import annotations

from repro.obs.runlog import RunLog, SpanTally, malformed_note
from repro.util.tables import format_table

__all__ = ["profile_run", "render_profile"]


def _row(tally: SpanTally) -> dict:
    return {
        "count": tally.count,
        "wall_s": tally.total_s,
        "max_ms": tally.max_s * 1000.0,
        "cpu_s": tally.cpu_s,
        "alloc_blocks": tally.alloc_blocks,
    }


def profile_run(log: RunLog) -> dict:
    """Reduce a folded run log to a per-phase kernel profile dict."""
    phases = {phase: _row(tally) for phase, tally in log.phases.items()}
    total_wall = sum(e["wall_s"] for e in phases.values())
    for entry in phases.values():
        entry["mean_ms"] = (
            1000.0 * entry["wall_s"] / entry["count"] if entry["count"] else 0.0
        )
        entry["wall_fraction"] = (
            entry["wall_s"] / total_wall if total_wall > 0.0 else 0.0
        )
    # Fleet-control grouping efficiency, from the manager.fleet_control
    # spans' group sizes: a mean near the fleet size is one stacked
    # solve per period; a mean near 1 is scalar work with extra
    # bookkeeping.
    fleet = None
    fleet_spans = log.spans.get("manager.fleet_control")
    if fleet_spans:
        sizes = log.fleet_group_sizes
        fleet = {
            "spans": fleet_spans.count,
            "group_size": {
                "count": sizes.count,
                "sum": sizes.total,
                "mean": sizes.total / sizes.count if sizes.count else 0.0,
                "max": sizes.max,
            },
        }
    return {
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1]["wall_s"])),
        "total_wall_s": total_wall,
        # Spans re-emitted by the sharded backend carry the pod that
        # produced them: a per-pod view, kept out of the phase rows (the
        # parent's phase.optimize span already contains the pods' work).
        "per_pod": {
            pod: {"spans": t.count, "wall_s": t.total_s, "cpu_s": t.cpu_s}
            for pod, t in sorted(log.pods.items())
        },
        "fleet": fleet,
        "n_malformed": log.n_malformed,
    }


def render_profile(profile: dict, title: str = "kernel phase profile") -> str:
    """Render a profile dict as a plain-text table."""
    phases = profile["phases"]
    header = (
        f"{title}: {len(phases)} phases, {profile['total_wall_s']:.3f}s total wall"
        + malformed_note(profile)
    )
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
        size = fleet["group_size"]
        fleet_rows = [[
            size["count"],
            f"{size['mean']:.1f}" if size["count"] else "-",
            size["max"],
            size["sum"],
        ]]
        out += "\n\n" + format_table(
            ["solve groups", "mean size", "max size", "solves batched"],
            fleet_rows,
            title="Fleet control grouping (manager.fleet_control spans)",
        )
    return out
