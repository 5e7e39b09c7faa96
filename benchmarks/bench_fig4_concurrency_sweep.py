"""Figure 4 — response time of App5 under concurrency levels 30..80.

Paper: "To test the robustness of the response time controller when it
is applied to a system that is different from the one used to do system
identification, we conduct a set of experiments with wide ranges of
concurrency levels ... The controller achieves the desired response time
for all the concurrency levels."  (Set point 1000 ms throughout; the
model was identified at concurrency 40 only.)
"""

import numpy as np

from repro.engine.testbed_backend import run_testbed
from repro.sim.testbed import TestbedConfig
from repro.util.ascii_chart import ascii_bars
from repro.util.tables import format_table

CONCURRENCY_LEVELS = (30, 40, 50, 60, 70, 80)


def test_fig4_concurrency_sweep(benchmark, shared_model, report, full_mode):
    duration = 900.0 if full_mode else 450.0
    settle = 12

    from repro.apps.workload import ConstantWorkload

    def run():
        out = []
        for level in CONCURRENCY_LEVELS:
            config = TestbedConfig(
                n_apps=8, duration_s=duration, seed=2010 + level,
                workloads={5: ConstantWorkload(level)},
            )
            result = run_testbed(config, model=shared_model)
            rts = result.recorder.values("rt/app5")[settle:]
            out.append((level, float(np.nanmean(rts)), float(np.nanstd(rts))))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["concurrency", "rt mean (ms)", "std (ms)"],
            rows,
            title="Figure 4: App5 response time vs concurrency (set point 1000 ms, "
            "model identified at concurrency 40)",
        )
    )
    report(ascii_bars([str(r[0]) for r in rows], [r[1] for r in rows],
                      title="mean 90p response time (ms) by concurrency"))
    for level, mean, _std in rows:
        assert abs(mean - 1000.0) / 1000.0 < 0.25, (
            f"concurrency {level}: {mean:.0f} ms off the 1000 ms set point"
        )
