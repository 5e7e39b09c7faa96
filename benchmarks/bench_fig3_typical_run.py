"""Figure 3 — typical run under a workload increase (concurrency 40->80).

Paper: App5's concurrency doubles on t in [600 s, 1200 s).  Fig. 3(a)
shows the response time violating the 1000 ms limit at the step and the
controller reconverging; Fig. 3(b) shows cluster power rising slightly
during the overload (more CPU allocated -> higher DVFS levels) and
returning afterwards.  The caption also references the uncontrolled
baseline, reproduced here as a static-allocation run.
"""

import numpy as np

from repro.apps.workload import StepWorkload
from repro.engine.testbed_backend import run_testbed
from repro.sim.testbed import TestbedConfig
from repro.util.ascii_chart import ascii_series
from repro.util.tables import format_table


def _segments(values, times, spans):
    return {
        name: values[(times >= a) & (times < b)]
        for name, (a, b) in spans.items()
    }


def test_fig3_step_workload_controlled(benchmark, shared_model, report, full_mode):
    duration = 1500.0
    config = TestbedConfig(
        n_apps=8,
        duration_s=duration,
        workloads={5: StepWorkload(40, 80, 600.0, 1200.0)},
    )

    def run():
        return run_testbed(config, model=shared_model)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rec = result.recorder
    rts = rec.values("rt/app5")
    power = rec.values("power/total")
    times = rec.times("rt/app5")

    spans = {
        "before step (300-600 s)": (300.0, 600.0),
        "spike window (600-720 s)": (600.0, 720.0),
        "controlled overload (720-1200 s)": (720.0, 1200.0),
        "after step (1260-1500 s)": (1260.0, 1500.0),
    }
    rt_seg = _segments(rts, times, spans)
    pw_seg = _segments(power, times, spans)
    rows = [
        [name, float(np.nanmean(rt_seg[name])), float(np.nanmax(rt_seg[name])),
         float(np.nanmean(pw_seg[name]))]
        for name in spans
    ]
    report(
        format_table(
            ["phase", "rt mean (ms)", "rt max (ms)", "power mean (W)"],
            rows,
            title="Figure 3: App5 under a 40->80 concurrency step on [600, 1200) s",
        )
    )
    report(ascii_series(rts, label="Fig 3(a): App5 90p response time (ms) over 1500 s"))
    report(ascii_series(power, label="Fig 3(b): cluster power (W) over 1500 s"))

    before_rt = float(np.nanmean(rt_seg["before step (300-600 s)"]))
    spike_max = float(np.nanmax(rt_seg["spike window (600-720 s)"]))
    during_rt = float(np.nanmean(rt_seg["controlled overload (720-1200 s)"]))
    after_rt = float(np.nanmean(rt_seg["after step (1260-1500 s)"]))
    before_pw = float(np.nanmean(pw_seg["before step (300-600 s)"]))
    during_pw = float(np.nanmean(pw_seg["controlled overload (720-1200 s)"]))

    # Reproduction criteria: tracking before; violation at the step;
    # reconvergence during and after; power slightly up during overload.
    assert abs(before_rt - 1000.0) < 250.0
    assert spike_max > 1500.0
    assert abs(during_rt - 1000.0) / 1000.0 < 0.3
    assert abs(after_rt - 1000.0) / 1000.0 < 0.3
    assert during_pw > before_pw


def test_fig3_uncontrolled_baseline(benchmark, shared_model, report):
    """Without the controller, static allocations sized for the base load
    stay in violation for the entire overload window."""
    config = TestbedConfig(
        n_apps=8,
        duration_s=1500.0,
        controlled=False,
        initial_alloc_ghz=0.55,
        workloads={5: StepWorkload(40, 80, 600.0, 1200.0)},
    )

    def run():
        return run_testbed(config, model=shared_model)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rec = result.recorder
    rts = rec.values("rt/app5")
    times = rec.times("rt/app5")
    during = rts[(times >= 720.0) & (times < 1200.0)]
    report(
        format_table(
            ["metric", "value"],
            [
                ["uncontrolled rt mean during overload (ms)", float(np.nanmean(during))],
                ["violation factor vs 1000 ms set point", float(np.nanmean(during)) / 1000.0],
            ],
            title="Figure 3 baseline: static allocation, no controller",
        )
    )
    assert np.nanmean(during) > 2000.0
