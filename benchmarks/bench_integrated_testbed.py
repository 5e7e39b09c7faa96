"""Integrated two-level run on the testbed (paper Fig. 1 architecture).

§VII-A: "We first evaluate the response time controller and examine the
power optimizer on the hardware testbed."  This bench runs both levels
together: the MPC controllers track the SLA every 15 s while a mid-run
IPAC invocation consolidates the 12 VMs onto fewer hosts and sleeps the
rest — response times must stay on the set point through the
consolidation, and cluster power must drop.
"""

import numpy as np

from repro.engine.testbed_backend import run_testbed
from repro.sim.testbed import TestbedConfig
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table


def test_integrated_controller_plus_optimizer(benchmark, shared_model, report):
    config = TestbedConfig(
        n_apps=6,                  # 12 VMs: consolidable from 4 to 2 hosts
        duration_s=1200.0,
        optimize_at_s=(600.0,),
    )

    def run():
        return run_testbed(config, model=shared_model)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rec = result.recorder
    power = rec.values("power/total")
    times = rec.times("power/total")
    before = float(power[(times >= 300.0) & (times < 600.0)].mean())
    after = float(power[(times >= 750.0)].mean())
    moves = rec.values("optimizer/moves")
    active_after = rec.values("optimizer/active_servers")

    rows = [
        ["cluster power before optimize (W)", before],
        ["cluster power after optimize (W)", after],
        ["power saving (%)", 100.0 * (1.0 - after / before)],
        ["migrations executed", float(moves.sum())],
        ["active servers after", float(active_after[-1])],
    ]
    rt_rows = []
    for i in range(config.n_apps):
        rts = rec.values(f"rt/app{i}")
        pre = rts[(times >= 300.0) & (times < 600.0)]
        post = rts[times >= 750.0]
        rt_rows.append([f"app{i}", float(np.nanmean(pre)), float(np.nanmean(post))])

    report(format_table(["metric", "value"], rows,
                        title="Integrated run: IPAC invoked at t=600 s"))
    report(format_table(["app", "rt before (ms)", "rt after (ms)"], rt_rows,
                        title="SLA tracking through the consolidation"))
    report(ascii_series(power, label="cluster power (W); optimizer fires at 600 s"))

    # Reproduction criteria: consolidation actually happened, power fell,
    # and every application still tracks its set point afterwards.
    assert moves.sum() >= 1
    assert active_after[-1] < config.n_servers
    assert after < before
    for label, _pre, post in rt_rows:
        assert abs(post - 1000.0) / 1000.0 < 0.3, f"{label} lost tracking: {post:.0f} ms"
