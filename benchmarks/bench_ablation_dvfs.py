"""Ablation — DVFS's contribution to IPAC's savings.

The paper credits IPAC's Fig. 6 margin to two mechanisms: better packing
(Minimum Slack) and "IPAC is integrated with DVFS for power savings on a
short time scale between two consecutive invocations of the optimization
algorithm".  This bench separates them by running IPAC with DVFS forced
off, and pMapper with DVFS forced on.
"""

from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.util.tables import format_table


def test_ablation_dvfs_contribution(benchmark, fig6_trace, report):
    n_vms = 530 if fig6_trace.n_series >= 530 else fig6_trace.n_series
    variants = [
        ("ipac + dvfs (paper)", "ipac", True),
        ("ipac, no dvfs", "ipac", False),
        ("pmapper (paper)", "pmapper", False),
        ("pmapper + dvfs", "pmapper", True),
    ]

    def run():
        out = []
        for label, scheme, dvfs in variants:
            res = run_largescale(
                fig6_trace,
                LargeScaleConfig(
                    n_vms=n_vms, n_servers=1500, scheme=scheme, dvfs=dvfs, seed=7
                ),
            )
            out.append((label, res.energy_per_vm_wh, res.mean_active_servers))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "Wh/VM", "mean active servers"],
            rows,
            title=f"Ablation: DVFS contribution at {n_vms} VMs",
        )
    )
    values = {label: wh for label, wh, _ in rows}
    # DVFS saves energy for both schemes.
    assert values["ipac + dvfs (paper)"] < values["ipac, no dvfs"]
    assert values["pmapper + dvfs"] < values["pmapper (paper)"]
    # Packing alone (no DVFS anywhere) still favors IPAC.
    assert values["ipac, no dvfs"] < values["pmapper (paper)"]
