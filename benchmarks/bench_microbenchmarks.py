"""Microbenchmarks of the hot primitives.

Not figure reproductions: these time the inner loops everything else is
built on, so performance regressions show up directly in CI history.
(The guides' rule — measure before optimizing — needs a baseline.)
"""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp
from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController
from repro.packing.mbs import MemoryConstraint, minimum_bin_slack
from repro.sim.des import PSResource, Simulator


def test_perf_des_request_throughput(benchmark):
    """Simulated seconds of a loaded 2-tier app per wall-clock call."""
    app = MultiTierApp(AppSpec.rubbos(), [0.8, 0.8], concurrency=40, rng=1)
    app.warmup(30.0)

    def run():
        return app.run_period(30.0).completed

    completed = benchmark(run)
    assert completed > 0


@pytest.mark.parametrize("standing", [4, 16, 64, 256])
def test_perf_ps_resource_churn(benchmark, standing):
    """Raw PS queue: 1000 jobs through one resource that already holds
    ``standing`` long jobs, so every advance touches at least that many.

    4 and 16 are the rigs' queue lengths (Python-list representation),
    256 is the slot array, 64 starts on the switch and keeps crossing
    it; together they record the list-vs-array crossover ``PSResource``
    is fitted to.
    """

    def run():
        sim = Simulator()
        ps = PSResource(sim, 4.0)
        rng = np.random.default_rng(0)
        for _ in range(standing):
            ps.submit(1e6)
        for t in np.sort(rng.uniform(0, 100.0, size=1000)):
            sim.schedule_at(float(t), lambda: ps.submit(float(rng.uniform(0.05, 0.3))))
        sim.run()
        return ps.completed_jobs

    done = benchmark(run)
    assert done == 1000 + standing


def test_perf_minimum_bin_slack(benchmark):
    """Algorithm 1 on a 60-item list with a memory constraint."""
    rng = np.random.default_rng(3)
    sizes = rng.uniform(0.1, 1.5, size=60)
    mems = rng.choice([512.0, 1024.0, 2048.0], size=60)

    def run():
        return minimum_bin_slack(
            list(sizes), 11.4,
            constraint=MemoryConstraint(list(mems), 16384.0),
            epsilon=0.05, max_steps=5000,
        )

    result = benchmark(run)
    assert result.slack <= 11.4


def test_perf_mpc_solve(benchmark):
    """One full constrained MPC solve (the per-period controller cost)."""
    model = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
    ctrl = MPCController(model, MPCConfig(r_weight=1e5, delta_max=0.3))
    t_hist = [1600.0]
    c_hist = np.array([[0.7, 0.6], [0.7, 0.6]])
    ref = np.linspace(1500.0, 1000.0, 8)

    def run():
        return ctrl.solve(t_hist, c_hist, ref, 1000.0, [0.1, 0.1], [3.0, 3.0])

    sol = benchmark(run)
    assert sol.qp.ok

