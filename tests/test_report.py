"""Report rendering and multi-tier (3-tier) MIMO control."""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp, TierSpec
from repro.core.controller import ControllerConfig, ResponseTimeController
from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import run_testbed
from repro.sim.largescale import LargeScaleConfig
from repro.sim.report import largescale_report, testbed_report
from repro.sim.testbed import TestbedConfig
from repro.sysid import fit_arx, run_identification_experiment
from repro.traces import TraceConfig, generate_trace


class TestReports:
    @pytest.fixture(scope="class")
    def small_results(self):
        trace = generate_trace(TraceConfig(n_servers=60, n_days=1), rng=3)
        out = []
        for scheme in ("ipac", "pmapper"):
            out.append(run_largescale(
                trace, LargeScaleConfig(n_vms=60, n_servers=80, scheme=scheme, seed=4)
            ))
        return out

    def test_largescale_report_contains_key_metrics(self, small_results):
        text = largescale_report(small_results[0])
        assert "energy per VM" in text
        assert "migrations" in text
        assert "ipac" in text

    def test_testbed_report(self):
        config = TestbedConfig(n_apps=2, duration_s=120.0)
        result = run_testbed(config)
        text = testbed_report(result, n_apps=2, setpoint_ms=1000.0)
        assert "Response-time tracking" in text
        assert "Cluster power" in text
        assert "app0" in text and "app1" in text


class TestThreeTierControl:
    """The paper's architecture is n-tier generic; exercise m = 3."""

    @staticmethod
    def _three_tier_spec() -> AppSpec:
        return AppSpec(
            name="threetier",
            tiers=(
                TierSpec("web", 0.012, 0.1, 3.0),
                TierSpec("app", 0.016, 0.1, 3.0),
                TierSpec("db", 0.010, 0.1, 3.0),
            ),
            think_time_s=1.0,
        )

    def test_three_tier_identification_and_control(self):
        spec = self._three_tier_spec()
        ident = MultiTierApp(spec, [1.0, 1.0, 1.0], concurrency=40, rng=61)
        data = run_identification_experiment(
            ident, n_periods=180, period_s=15.0,
            alloc_lower=[0.4] * 3, alloc_upper=[0.9] * 3, rng=62,
        )
        fit = fit_arx(data.t, data.c, na=1, nb=2)
        model = fit.model
        assert model.n_inputs == 3
        assert np.all(model.b <= 0)

        plant = MultiTierApp(spec, [1.0, 1.0, 1.0], concurrency=40, rng=63)
        plant.warmup(90.0)
        ctrl = ResponseTimeController(
            model, ControllerConfig(setpoint_ms=1000.0),
            c_min=[0.2] * 3, c_max=[3.0] * 3, initial_alloc_ghz=[1.0] * 3,
        )
        rts = []
        for _ in range(50):
            stats = plant.run_period(15.0)
            alloc = ctrl.update(stats.rt_p90_ms, used_ghz=plant.used_ghz(15.0))
            plant.set_allocations(alloc)
            rts.append(stats.rt_p90_ms)
        tail = np.asarray(rts[25:])
        assert np.nanmean(tail) == pytest.approx(1000.0, rel=0.2)
