"""Large-scale trace-driven consolidation: IPAC vs pMapper (paper Fig. 6).

Generates a synthetic utilization trace (the stand-in for the paper's
5,415-server trace), replays two days of it over a 600-server data
center at several sizes, and compares the energy per VM of IPAC against
the pMapper baseline — the paper's headline experiment at laptop scale.

Run:  python examples/datacenter_consolidation.py
"""

from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.traces import TraceConfig, generate_trace
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table


def main() -> None:
    print("generating synthetic utilization trace (800 series, 2 days)...")
    trace = generate_trace(TraceConfig(n_servers=800, n_days=2), rng=2008)

    sizes = (30, 100, 300, 800)
    rows = []
    for n_vms in sizes:
        results = {}
        for scheme in ("ipac", "pmapper"):
            results[scheme] = run_largescale(
                trace,
                LargeScaleConfig(
                    n_vms=n_vms, n_servers=600, scheme=scheme, seed=7
                ),
            )
        ipac_res, pm_res = results["ipac"], results["pmapper"]
        rows.append([
            n_vms,
            ipac_res.energy_per_vm_wh,
            pm_res.energy_per_vm_wh,
            100.0 * (1.0 - ipac_res.energy_per_vm_wh / pm_res.energy_per_vm_wh),
            ipac_res.migrations,
            ipac_res.mean_active_servers,
        ])

    print(format_table(
        ["#VMs", "IPAC Wh/VM", "pMapper Wh/VM", "saving %", "IPAC moves",
         "mean active"],
        rows,
        title="Energy per VM over 2 days (IPAC = Minimum-Slack consolidation "
        "+ DVFS; pMapper = FFD, no DVFS)",
    ))

    # Power profile of the largest run: diurnal load should be visible.
    biggest = run_largescale(
        trace, LargeScaleConfig(n_vms=800, n_servers=600, scheme="ipac", seed=7)
    )
    print()
    print(ascii_series(
        biggest.power_series_w,
        label="IPAC total power (W) across the 2-day trace (15-min steps)",
    ))


if __name__ == "__main__":
    main()
