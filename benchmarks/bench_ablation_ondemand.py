"""Ablation — on-demand overload relief between optimizer invocations.

Paper §III: between two optimizer invocations "an unexpected increase of
the workload can cause a severe overload on a server", to be handled by
an on-demand migration algorithm.  This bench compares a spiky trace run
with and without the relief pass: overloaded server-steps (SLA pressure)
must drop, at a modest cost in extra migrations and energy.
"""

from dataclasses import replace

from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.traces import TraceConfig, generate_trace
from repro.util.tables import format_table


def test_ablation_ondemand_relief(benchmark, report):
    trace = generate_trace(
        TraceConfig(n_servers=400, n_days=2, spike_probability=0.008,
                    spike_magnitude=0.5),
        rng=99,
    )
    base = LargeScaleConfig(
        n_vms=400, n_servers=600, scheme="ipac", seed=3,
        optimize_every_steps=48,  # 12 h between consolidations: spikes bite
    )

    def run():
        without = run_largescale(trace, base)
        with_relief = run_largescale(trace, replace(base, ondemand_relief=True))
        return without, with_relief

    without, with_relief = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["ipac only", without.overload_server_steps, without.migrations,
         0, without.energy_per_vm_wh],
        ["ipac + on-demand relief", with_relief.overload_server_steps,
         with_relief.migrations, int(with_relief.info["relief_moves"]),
         with_relief.energy_per_vm_wh],
    ]
    report(format_table(
        ["variant", "overloaded server-steps", "optimizer moves",
         "relief moves", "Wh/VM"],
        rows,
        title="Ablation: on-demand overload relief (spiky trace, "
        "12 h optimizer period)",
    ))

    assert with_relief.overload_server_steps < without.overload_server_steps
    assert with_relief.info["relief_moves"] > 0
    # Relief is a safety valve, not a power feature: energy stays close.
    assert with_relief.energy_per_vm_wh < without.energy_per_vm_wh * 1.15
