"""Plain-text reports for experiment results.

Turns the result objects of both harnesses into the aligned tables and
ASCII sketches the CLI and benchmark suite print — one rendering path so
every surface shows the same numbers the same way.
"""

from __future__ import annotations

from repro.sim.largescale import LargeScaleResult
from repro.sim.testbed import TestbedResult
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table

__all__ = ["testbed_report", "largescale_report"]


def testbed_report(result: TestbedResult, n_apps: int, setpoint_ms: float) -> str:
    """Render one testbed run: per-app tracking plus power summary."""
    rows = []
    for i in range(n_apps):
        s = result.rt_summary(i)
        rows.append([
            f"app{i}", s["mean"], s["std"],
            f"{100.0 * abs(s['mean'] - setpoint_ms) / setpoint_ms:.1f}%",
        ])
    parts = [
        format_table(
            ["app", "rt mean (ms)", "std (ms)", "set-point error"],
            rows,
            title=f"Response-time tracking (set point {setpoint_ms:.0f} ms, "
            f"sysid R^2 = {result.sysid_r2:.2f})",
        )
    ]
    p = result.power_summary()
    parts.append(
        f"\nCluster power: mean {p['mean']:.1f} W, std {p['std']:.1f}, "
        f"range [{p['min']:.1f}, {p['max']:.1f}] W over {p['n']} periods"
    )
    power = result.recorder.values("power/total")
    if power.size > 4:
        parts.append(ascii_series(power, label="\ncluster power (W)"))
    return "\n".join(parts)


def largescale_report(result: LargeScaleResult) -> str:
    """Render one large-scale run: energy, placement and SLA pressure."""
    duration_days = result.n_steps * result.step_s / 86400.0
    rows = [
        ["scheme", result.scheme],
        ["VMs", result.n_vms],
        ["trace length", f"{duration_days:.1f} days ({result.n_steps} steps)"],
        ["total energy (kWh)", result.total_energy_wh / 1000.0],
        ["energy per VM (Wh)", result.energy_per_vm_wh],
        ["migrations", result.migrations],
        ["mean / max active servers",
         f"{result.mean_active_servers:.1f} / {result.max_active_servers}"],
        ["overloaded server-steps", result.overload_server_steps],
        ["unplaced VM-steps", result.unplaced_vm_steps],
        ["DVFS", "on" if result.info.get("dvfs") else "off"],
    ]
    parts = [format_table(["metric", "value"], rows, title="Large-scale run")]
    if result.power_series_w.size > 4:
        parts.append(ascii_series(result.power_series_w, label="\ntotal power (W)"))
    return "\n".join(parts)
