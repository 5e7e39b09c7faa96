"""Ablation — does IPAC's win survive a different power-model family?

Fig. 6 uses the linear-in-utilization model; real servers have concave
SPECpower-style curves (most dynamic power spent by 50% load).  This
bench re-runs the comparison on a pool whose power comes from
measured-curve interpolation, charged per server by each curve itself.
The concave curve *widens* the margin (at 530 VMs: 28.5 % vs 23.7 %
linear): a partly loaded server draws more than the linear line says,
so pMapper's many partly filled hosts pay extra while IPAC's densely
packed ones sit near the curve's end point.  The claim being protected
is "IPAC < pMapper", not the exact margin.
"""

from repro.cluster import MeasuredPowerCurve, Server, ServerSpec
from repro.cluster.catalog import CPU_1P5GHZ_DUAL, CPU_2GHZ_DUAL, CPU_3GHZ_QUAD
from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.util.rng import ensure_rng
from repro.util.tables import format_table

MEASURED_TYPES = (
    ServerSpec("mA-3.0x4", CPU_3GHZ_QUAD, 16384, MeasuredPowerCurve.spec2008_like(300.0, sleep_w=10.0)),
    ServerSpec("mB-2.0x2", CPU_2GHZ_DUAL, 8192, MeasuredPowerCurve.spec2008_like(150.0, sleep_w=8.0)),
    ServerSpec("mC-1.5x2", CPU_1P5GHZ_DUAL, 4096, MeasuredPowerCurve.spec2008_like(135.0, sleep_w=7.0)),
)


def _measured_pool(n_servers: int, seed: int):
    rng = ensure_rng(seed)
    weights = (0.03, 0.27, 0.70)
    pool = []
    for i in range(n_servers):
        idx = int(rng.choice(3, p=weights))
        pool.append(Server(f"M{i:04d}", MEASURED_TYPES[idx], active=False))
    return pool


def test_ablation_measured_power_curves(benchmark, fig6_trace, report):
    n_vms = min(530, fig6_trace.n_series)
    n_servers = 1500

    def run():
        rows = []
        for family in ("linear", "measured"):
            servers = _measured_pool(n_servers, seed=8) if family == "measured" else None
            per = {}
            for scheme in ("ipac", "pmapper"):
                per[scheme] = run_largescale(
                    fig6_trace,
                    LargeScaleConfig(
                        n_vms=n_vms, n_servers=n_servers, scheme=scheme, seed=7
                    ),
                    servers=servers,
                )
            rows.append((
                family,
                per["ipac"].energy_per_vm_wh,
                per["pmapper"].energy_per_vm_wh,
                100.0 * (1 - per["ipac"].energy_per_vm_wh / per["pmapper"].energy_per_vm_wh),
            ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(
        ["power-model family", "IPAC Wh/VM", "pMapper Wh/VM", "saving %"],
        rows,
        title=f"Ablation: linear vs SPECpower-style measured curves at {n_vms} VMs",
    ))
    for family, ipac_wh, pm_wh, _saving in rows:
        assert ipac_wh < pm_wh, f"IPAC lost under the {family} power family"
