"""Ablation — Minimum Slack vs first-fit-decreasing packing quality.

The paper attributes part of IPAC's win to its packing core: "pMapper is
adapted from FFD while IPAC is adapted from Minimum Slack.  Typically,
Minimum Slack provides a better solution in terms of power consumption,
especially when facing constraints such as memory constraint".  This
bench isolates that claim: one static snapshot, both placers, compare
hosting-server counts and idle-power proxy — no DVFS, no drain loop.
"""

import numpy as np

from repro.core.optimizer import PACConfig, PlacementProblem, ServerInfo, VMInfo, pac, pmapper
from repro.core.optimizer.pmapper import PMapperConfig
from repro.util.tables import format_table
from tests.oracles.packing_bounds import capacity_bound_servers


def _snapshot(n_vms: int, seed: int) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    servers = []
    for i in range(max(4, n_vms // 2)):
        cap, mem, eff, busy = [
            (12.0, 16384.0, 0.040, 300.0),
            (4.0, 8192.0, 0.027, 150.0),
            (3.0, 4096.0, 0.022, 135.0),
        ][i % 3]
        servers.append(ServerInfo(
            f"s{i:03d}", cap, mem, eff, active=False,
            idle_w=busy * 0.6, busy_w=busy, sleep_w=8.0,
        ))
    vms = tuple(
        VMInfo(f"v{j:03d}", float(rng.uniform(0.2, 1.8)),
               float(rng.choice([512.0, 1024.0, 2048.0])))
        for j in range(n_vms)
    )
    return PlacementProblem(tuple(servers), vms, {})


def _idle_power_proxy(problem: PlacementProblem, mapping) -> float:
    """Sum of hosting servers' idle power — the fixed cost consolidation
    is trying to minimize."""
    hosting = set(mapping.values())
    return sum(s.idle_w for s in problem.servers if s.server_id in hosting)


def test_ablation_minslack_vs_ffd(benchmark, report):
    sizes = (40, 120, 400)
    seeds = (1, 2, 3)

    def run():
        rows = []
        for n in sizes:
            for seed in seeds:
                problem = _snapshot(n, seed)
                pac_plan = pac(problem, config=PACConfig(target_utilization=0.95))
                pm_plan = pmapper(problem, PMapperConfig(target_utilization=0.95))
                lower = capacity_bound_servers(
                    [v.demand_ghz for v in problem.vms],
                    [s.max_capacity_ghz for s in problem.servers],
                    target_utilization=0.95,
                )
                rows.append((
                    n, seed, lower,
                    len(set(pac_plan.final_mapping.values())),
                    len(set(pm_plan.final_mapping.values())),
                    _idle_power_proxy(problem, pac_plan.final_mapping),
                    _idle_power_proxy(problem, pm_plan.final_mapping),
                ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["#VMs", "seed", "lower bound", "PAC hosts", "FFD hosts",
             "PAC idle W", "FFD idle W"],
            rows,
            title="Ablation: Minimum-Slack (PAC) vs FFD (pMapper phase 1) packing "
            "(lower bound = capacity-only minimum server count)",
        )
    )
    # Every packing respects the capacity lower bound.
    for n, seed, lower, pac_hosts_n, ffd_hosts_n, *_ in rows:
        assert pac_hosts_n >= lower
        assert ffd_hosts_n >= lower
    pac_hosts = sum(r[3] for r in rows)
    ffd_hosts = sum(r[4] for r in rows)
    pac_idle = sum(r[5] for r in rows)
    ffd_idle = sum(r[6] for r in rows)
    report(
        f"totals: PAC {pac_hosts} hosts / {pac_idle:.0f} W idle vs "
        f"FFD {ffd_hosts} hosts / {ffd_idle:.0f} W idle"
    )
    # Minimum Slack never needs more idle power than FFD in aggregate.
    assert pac_idle <= ffd_idle
