"""Figure 6 — energy per VM over the trace, IPAC vs pMapper.

Paper: "Figure 6 plots the average energy consumption per VM of IPAC and
pMapper in 7 days under different number of VMs.  In comparison to
pMapper, IPAC shows lower energy consumption in all these simulations.
On average, IPAC has a 40.7% more energy saving than pMapper. ... With
more VMs, the average energy consumption per VM becomes higher for both
schemes ... because both algorithms try to use power-efficient servers
first."

Default mode runs a reduced grid on a 3-day / 2,100-VM trace; set
``REPRO_BENCH_FULL=1`` for the paper's 7-day trace with sizes up to
5,415 VMs.
"""

import numpy as np

from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table

SIZES_QUICK = (30, 130, 530, 1030, 2030)
SIZES_FULL = (30, 130, 530, 1030, 2030, 3030, 4030, 5415)


def test_fig6_energy_per_vm(benchmark, fig6_trace, report, full_mode):
    sizes = [n for n in (SIZES_FULL if full_mode else SIZES_QUICK)
             if n <= fig6_trace.n_series]
    n_servers = 3000

    def run():
        rows = []
        for n in sizes:
            per_scheme = {}
            for scheme in ("ipac", "pmapper"):
                res = run_largescale(
                    fig6_trace,
                    LargeScaleConfig(
                        n_vms=n, n_servers=n_servers, scheme=scheme, seed=7
                    ),
                )
                per_scheme[scheme] = res
            rows.append((n, per_scheme["ipac"], per_scheme["pmapper"]))
        return rows

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = []
    savings = []
    for n, ipac_res, pm_res in results:
        saving = 1.0 - ipac_res.energy_per_vm_wh / pm_res.energy_per_vm_wh
        savings.append(saving)
        table.append([
            n,
            ipac_res.energy_per_vm_wh,
            pm_res.energy_per_vm_wh,
            100.0 * saving,
            ipac_res.migrations,
            pm_res.migrations,
            ipac_res.mean_active_servers,
        ])
    report(
        format_table(
            ["#VMs", "IPAC Wh/VM", "pMapper Wh/VM", "saving %",
             "IPAC moves", "pM moves", "IPAC active srv"],
            table,
            title=f"Figure 6: energy per VM over {fig6_trace.duration_s / 86400:.0f} days "
            f"(paper reports 40.7% average IPAC saving)",
        )
    )
    report(ascii_series([row[1] for row in table],
                        label="IPAC Wh/VM vs data-center size (should rise at scale)"))

    # Reproduction criteria:
    # 1. IPAC wins at every size.
    for n, ipac_res, pm_res in results:
        assert ipac_res.energy_per_vm_wh < pm_res.energy_per_vm_wh, f"IPAC lost at n={n}"
    # 2. Substantial average saving (tens of percent; paper: 40.7%).
    assert float(np.mean(savings)) > 0.10
    # 3. Per-VM energy grows once the efficient pool saturates: the largest
    #    size costs more per VM than the cheapest mid-range size.
    per_vm = [row[1] for row in table]
    assert per_vm[-1] > min(per_vm)
    # 4. Nothing was left unplaced.
    for n, ipac_res, pm_res in results:
        assert ipac_res.unplaced_vm_steps == 0
        assert pm_res.unplaced_vm_steps == 0
