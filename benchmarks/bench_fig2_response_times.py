"""Figure 2 — response time of all 8 applications at a 1000 ms set point.

Paper: "We first set the response time target for all applications to be
1000 ms.  Figure 2 plots the means and the standard deviations of the
response times of the applications in the data center ... the response
time controller works effectively to achieve the desired response time
for all the applications."  (Power optimizer disabled.)
"""

import numpy as np

from repro.engine.testbed_backend import run_testbed
from repro.sim.testbed import TestbedConfig
from repro.util.ascii_chart import ascii_bars
from repro.util.tables import format_table


def test_fig2_all_apps_track_setpoint(benchmark, shared_model, report, full_mode):
    duration = 1200.0 if full_mode else 600.0
    config = TestbedConfig(n_apps=8, setpoint_ms=1000.0, duration_s=duration)

    def run():
        return run_testbed(config, model=shared_model)

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    means = []
    settle = 10  # discard the settling transient, as the paper's run does
    for i in range(8):
        rts = result.recorder.values(f"rt/app{i}")[settle:]
        rows.append([f"App{i + 1}", float(np.nanmean(rts)), float(np.nanstd(rts))])
        means.append(float(np.nanmean(rts)))
    report(
        format_table(
            ["application", "rt mean (ms)", "std (ms)"],
            rows,
            title="Figure 2: response time of all 8 applications (set point 1000 ms)",
        )
    )
    report(ascii_bars([r[0] for r in rows], means, title="mean 90p response time (ms)"))

    # Reproduction criterion: every app within 20% of the set point.
    for label, mean, _std in rows:
        assert abs(mean - 1000.0) / 1000.0 < 0.2, f"{label} off set point: {mean:.0f} ms"
