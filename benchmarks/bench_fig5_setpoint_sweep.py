"""Figure 5 — response time of App5 as the set point sweeps 600..1300 ms.

Paper: "Figure 5 shows the average response times (with standard
deviations) achieved by the controller when the response time set point
increases from 600 ms to 1300 ms.  The controller achieves the desired
response time for all the ... set points."
"""

import numpy as np

from repro.engine.testbed_backend import run_testbed
from repro.sim.testbed import TestbedConfig
from repro.util.ascii_chart import ascii_bars
from repro.util.tables import format_table

SETPOINTS_MS = (600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0)


def test_fig5_setpoint_sweep(benchmark, shared_model, report, full_mode):
    duration = 900.0 if full_mode else 450.0
    settle = 12

    def run():
        out = []
        for setpoint in SETPOINTS_MS:
            config = TestbedConfig(
                n_apps=8,
                duration_s=duration,
                seed=2010 + int(setpoint),
                setpoints_ms={5: setpoint},
            )
            result = run_testbed(config, model=shared_model)
            rts = result.recorder.values("rt/app5")[settle:]
            out.append((setpoint, float(np.nanmean(rts)), float(np.nanstd(rts))))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["set point (ms)", "achieved mean (ms)", "std (ms)"],
            rows,
            title="Figure 5: App5 achieved response time vs set point "
            "(concurrency 40, model identified at 1000 ms region)",
        )
    )
    report(ascii_bars([f"{int(r[0])}" for r in rows], [r[1] for r in rows],
                      title="achieved mean (ms) by set point"))
    for setpoint, mean, _std in rows:
        assert abs(mean - setpoint) / setpoint < 0.25, (
            f"set point {setpoint:.0f}: achieved {mean:.0f} ms"
        )
    # Achieved response time must increase with the set point overall.
    means = [r[1] for r in rows]
    assert means[-1] > means[0]
