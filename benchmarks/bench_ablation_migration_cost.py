"""Ablation — the cost-aware migration interface (paper §V).

"When the IPAC algorithm requests a migration, benefits and costs should
be compared to decide if the migration should be allowed or rejected ...
we provide an interface for data center administrators to define their
own cost functions."  This bench runs the same trace under three stock
policies and reports the migrations executed vs the energy achieved —
the trade a policy encodes.
"""

from repro.core.optimizer.ipac import IPACConfig, ipac
from repro.core.optimizer.migration import (
    AllowAllPolicy,
    BandwidthBudgetPolicy,
    BenefitThresholdPolicy,
)
from repro.core.optimizer.minslack import MinSlackConfig
from repro.core.optimizer.pac import PACConfig
from repro.engine.largescale_backend import run_largescale
from repro.sim.largescale import LargeScaleConfig
from repro.util.tables import format_table


def test_ablation_migration_cost_policies(benchmark, fig6_trace, report):
    n_vms = min(330, fig6_trace.n_series)
    policies = [
        ("allow all (paper sim)", AllowAllPolicy()),
        ("benefit threshold", BenefitThresholdPolicy(
            amortization_horizon_s=4 * 3600.0, overhead_w=60.0, safety_factor=4.0)),
        ("bandwidth budget 4 GB", BandwidthBudgetPolicy(budget_mb_per_invocation=4096.0)),
    ]
    pac_cfg = PACConfig(
        minslack=MinSlackConfig(epsilon_ghz=0.1, max_steps=3000),
        target_utilization=0.9,
    )
    config = LargeScaleConfig(n_vms=n_vms, n_servers=1000, scheme="ipac", seed=7)

    def run():
        rows = []
        for label, policy in policies:
            ipac_cfg = IPACConfig(pac=pac_cfg, cost_policy=policy)
            res = run_largescale(
                fig6_trace, config, optimizer=lambda p, c=ipac_cfg: ipac(p, c)
            )
            rows.append((label, res.energy_per_vm_wh, res.migrations))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["policy", "Wh/VM", "migrations executed"],
            rows,
            title=f"Ablation: cost-aware migration policies at {n_vms} VMs",
        )
    )
    by_label = {label: (wh, moves) for label, wh, moves in rows}
    allow_wh, allow_moves = by_label["allow all (paper sim)"]
    for label, (wh, moves) in by_label.items():
        if label == "allow all (paper sim)":
            continue
        # Restrictive policies execute no more migrations...
        assert moves <= allow_moves
        # ...at a bounded energy premium.
        assert wh <= allow_wh * 1.5
