"""Regenerate every figure of the paper in one run (no pytest needed).

Prints the series behind Figs. 2-6 of Wang & Wang (ICPP 2010) at reduced
scale — the benchmark suite (`pytest benchmarks/ --benchmark-only`) runs
the same experiments with shape assertions and a full-scale mode.

Run:  python examples/reproduce_paper.py        (~2 minutes)
"""

import numpy as np

from repro.apps.workload import StepWorkload
from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import identify_testbed_model, run_testbed
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces import TraceConfig, generate_trace
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table


def fig2(model):
    print("\n================ Figure 2: eight applications at 1000 ms ================")
    result = run_testbed(TestbedConfig(n_apps=8, duration_s=600.0), model=model)
    rows = []
    for i in range(8):
        rts = result.recorder.values(f"rt/app{i}")[10:]
        rows.append([f"App{i+1}", float(np.nanmean(rts)), float(np.nanstd(rts))])
    print(format_table(["application", "rt mean (ms)", "std (ms)"], rows))


def fig3(model):
    print("\n===== Figure 3: workload step 40->80 on App5 (t in [600, 1200) s) =====")
    config = TestbedConfig(
        n_apps=8, duration_s=1500.0,
        workloads={5: StepWorkload(40, 80, 600.0, 1200.0)},
    )
    result = run_testbed(config, model=model)
    rts = result.recorder.values("rt/app5")
    power = result.recorder.values("power/total")
    print(ascii_series(rts, label="(a) App5 90-percentile response time (ms)"))
    print(ascii_series(power, label="(b) cluster power (W)"))


def fig4(model):
    print("\n========= Figure 4: App5 response time vs concurrency level =========")
    from repro.apps.workload import ConstantWorkload
    rows = []
    for level in (30, 40, 50, 60, 70, 80):
        config = TestbedConfig(
            n_apps=8, duration_s=450.0, seed=2010 + level,
            workloads={5: ConstantWorkload(level)},
        )
        result = run_testbed(config, model=model)
        rts = result.recorder.values("rt/app5")[12:]
        rows.append([level, float(np.nanmean(rts)), float(np.nanstd(rts))])
    print(format_table(["concurrency", "rt mean (ms)", "std (ms)"], rows))


def fig5(model):
    print("\n============ Figure 5: App5 response time vs set point ============")
    rows = []
    for sp in (600, 700, 800, 900, 1000, 1100, 1200, 1300):
        config = TestbedConfig(
            n_apps=8, duration_s=450.0, seed=2010 + sp, setpoints_ms={5: float(sp)},
        )
        result = run_testbed(config, model=model)
        rts = result.recorder.values("rt/app5")[12:]
        rows.append([sp, float(np.nanmean(rts)), float(np.nanstd(rts))])
    print(format_table(["set point (ms)", "achieved (ms)", "std (ms)"], rows))


def fig6():
    print("\n====== Figure 6: energy per VM, IPAC vs pMapper (3-day trace) ======")
    trace = generate_trace(TraceConfig(n_servers=2100, n_days=3), rng=2008)
    rows = []
    for n in (30, 130, 530, 1030, 2030):
        per = {}
        for scheme in ("ipac", "pmapper"):
            per[scheme] = run_largescale(
                trace, LargeScaleConfig(n_vms=n, n_servers=3000, scheme=scheme, seed=7)
            )
        saving = 1 - per["ipac"].energy_per_vm_wh / per["pmapper"].energy_per_vm_wh
        rows.append([
            n, per["ipac"].energy_per_vm_wh, per["pmapper"].energy_per_vm_wh,
            f"{100 * saving:.1f}%",
        ])
    print(format_table(["#VMs", "IPAC Wh/VM", "pMapper Wh/VM", "saving"], rows))


def main() -> None:
    print("system identification (shared by all testbed figures)...")
    model = identify_testbed_model(TestbedConfig()).model
    print(f"  identified: t(k) = {model.a[0]:.3f} t(k-1) "
          f"+ {np.round(model.b[0], 0)}.c(k) + {model.g:.0f}")
    fig2(model)
    fig3(model)
    fig4(model)
    fig5(model)
    fig6()
    print("\nDone.  See EXPERIMENTS.md for the paper-vs-measured record.")


if __name__ == "__main__":
    main()
