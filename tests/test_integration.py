"""Integration tests: the full testbed and large-scale experiment paths.

These reproduce miniature versions of the paper's experiments end to end
and assert the *shapes* the evaluation section reports.
"""

import numpy as np
import pytest

from repro.apps.workload import StepWorkload
from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import identify_testbed_model, run_testbed
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces import TraceConfig, generate_trace


@pytest.fixture(scope="module")
def shared_model():
    """One system-identification pass shared across testbed tests."""
    return identify_testbed_model(TestbedConfig()).model


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(TraceConfig(n_servers=120, n_days=2), rng=31)


class TestTestbedIntegration:
    def test_sysid_model_quality(self, shared_model):
        assert np.all(shared_model.b <= 0)
        assert 0.0 <= shared_model.a[0] < 1.0

    def test_all_apps_track_setpoint(self, shared_model):
        """Miniature Fig. 2: every application converges to 1000 ms."""
        config = TestbedConfig(n_apps=4, duration_s=450.0)
        result = run_testbed(config, model=shared_model)
        for i in range(4):
            summary = result.rt_summary(i)
            # Discard the settling transient by looking at the back half.
            tail = result.recorder.values(f"rt/app{i}")[15:]
            assert np.nanmean(tail) == pytest.approx(1000.0, rel=0.2)

    def test_step_workload_recovers(self, shared_model):
        """Miniature Fig. 3: overload spike, then reconvergence."""
        config = TestbedConfig(
            n_apps=4,
            duration_s=900.0,
            workloads={1: StepWorkload(40, 80, 300.0, 600.0)},
        )
        result = run_testbed(config, model=shared_model)
        rts = result.recorder.values("rt/app1")
        times = result.recorder.times("rt/app1")
        spike = rts[(times >= 300.0) & (times < 420.0)].max()
        settled = rts[(times >= 480.0) & (times < 600.0)]
        assert spike > 1400.0
        assert np.nanmean(settled) == pytest.approx(1000.0, rel=0.25)

    def test_power_rises_under_overload(self, shared_model):
        config = TestbedConfig(
            n_apps=4,
            duration_s=900.0,
            workloads={1: StepWorkload(40, 80, 300.0, 600.0)},
        )
        result = run_testbed(config, model=shared_model)
        power = result.recorder.values("power/total")
        times = result.recorder.times("power/total")
        before = power[(times >= 150.0) & (times < 300.0)].mean()
        during = power[(times >= 360.0) & (times < 600.0)].mean()
        assert during > before

    def test_uncontrolled_baseline_violates_sla(self, shared_model):
        """Without the controller, static 0.5 GHz allocations cannot absorb
        a doubled workload — response time stays violated."""
        config = TestbedConfig(
            n_apps=2,
            duration_s=600.0,
            controlled=False,
            initial_alloc_ghz=0.55,
            workloads={0: StepWorkload(40, 80, 150.0, 600.0)},
        )
        result = run_testbed(config, model=shared_model)
        rts = result.recorder.values("rt/app0")
        times = result.recorder.times("rt/app0")
        overloaded = rts[times >= 300.0]
        assert np.nanmean(overloaded) > 2000.0

    def test_setpoint_overrides_per_app(self, shared_model):
        config = TestbedConfig(
            n_apps=2, duration_s=450.0, setpoints_ms={1: 600.0}
        )
        result = run_testbed(config, model=shared_model)
        tail0 = result.recorder.values("rt/app0")[15:]
        tail1 = result.recorder.values("rt/app1")[15:]
        assert np.nanmean(tail0) == pytest.approx(1000.0, rel=0.2)
        assert np.nanmean(tail1) == pytest.approx(600.0, rel=0.25)

    def test_recorder_has_expected_series(self, shared_model):
        config = TestbedConfig(n_apps=2, duration_s=60.0)
        result = run_testbed(config, model=shared_model)
        names = set(result.recorder.names())
        assert {"rt/app0", "rt/app1", "power/total"} <= names
        assert any(n.startswith("freq/") for n in names)
        assert any(n.startswith("alloc/") for n in names)


class TestLargeScaleIntegration:
    def test_ipac_beats_pmapper(self, small_trace):
        """The headline Fig. 6 shape on a small instance."""
        kwargs = dict(n_vms=60, n_servers=100, seed=5)
        ipac_res = run_largescale(small_trace, LargeScaleConfig(scheme="ipac", **kwargs))
        pm_res = run_largescale(small_trace, LargeScaleConfig(scheme="pmapper", **kwargs))
        assert ipac_res.energy_per_vm_wh < pm_res.energy_per_vm_wh

    def test_dvfs_saves_energy(self, small_trace):
        kwargs = dict(n_vms=60, n_servers=100, scheme="ipac", seed=5)
        on = run_largescale(small_trace, LargeScaleConfig(dvfs=True, **kwargs))
        off = run_largescale(small_trace, LargeScaleConfig(dvfs=False, **kwargs))
        assert on.total_energy_wh < off.total_energy_wh

    def test_all_vms_placed(self, small_trace):
        res = run_largescale(
            small_trace, LargeScaleConfig(n_vms=80, n_servers=100, seed=5)
        )
        assert res.unplaced_vm_steps == 0

    def test_deterministic_given_seed(self, small_trace):
        cfg = LargeScaleConfig(n_vms=40, n_servers=60, seed=9)
        a = run_largescale(small_trace, cfg)
        b = run_largescale(small_trace, cfg)
        assert a.total_energy_wh == b.total_energy_wh
        assert a.migrations == b.migrations

    def test_active_servers_tracks_demand(self, small_trace):
        res = run_largescale(
            small_trace, LargeScaleConfig(n_vms=80, n_servers=100, seed=5)
        )
        assert res.max_active_servers >= res.mean_active_servers > 0
        assert res.power_series_w.shape == (small_trace.n_samples,)

    def test_consolidation_reduces_power_vs_no_reoptimization(self, small_trace):
        """Re-optimizing every 4 h must not do worse than placing once and
        never adapting (optimize_every larger than the trace)."""
        base = LargeScaleConfig(n_vms=60, n_servers=100, scheme="ipac", seed=5)
        adaptive = run_largescale(small_trace, base)
        from dataclasses import replace
        frozen = run_largescale(
            small_trace, replace(base, optimize_every_steps=10_000)
        )
        assert adaptive.total_energy_wh <= frozen.total_energy_wh * 1.05

    def test_trace_too_small_rejected(self, small_trace):
        with pytest.raises(ValueError):
            run_largescale(small_trace, LargeScaleConfig(n_vms=10_000))

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            LargeScaleConfig(scheme="magic")


class TestHeterogeneousApps:
    def test_diverse_demands_all_track(self, shared_model):
        """Apps whose per-request demands differ up to 60% all track the
        shared-model controller's set point — heterogeneity robustness
        beyond the paper's identical app instances."""
        config = TestbedConfig(
            n_apps=4, duration_s=450.0, demand_scale_range=(0.8, 1.3)
        )
        result = run_testbed(config, model=shared_model)
        for i in range(4):
            tail = result.recorder.values(f"rt/app{i}")[15:]
            assert abs(np.nanmean(tail) - 1000.0) / 1000.0 < 0.25, f"app{i}"

    def test_invalid_scale_range_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            TestbedConfig(demand_scale_range=(1.5, 1.0))
        with _pytest.raises(ValueError):
            TestbedConfig(demand_scale_range=(0.0, 1.0))


class TestDeterminism:
    def test_testbed_bitwise_reproducible(self, shared_model):
        """Identical configs and seeds give identical series."""
        config = TestbedConfig(n_apps=2, duration_s=150.0, seed=77)
        a = run_testbed(config, model=shared_model)
        b = run_testbed(config, model=shared_model)
        for name in ("rt/app0", "rt/app1", "power/total"):
            np.testing.assert_array_equal(
                a.recorder.values(name), b.recorder.values(name)
            )

    def test_testbed_seed_changes_series(self, shared_model):
        a = run_testbed(
            TestbedConfig(n_apps=2, duration_s=150.0, seed=1), model=shared_model
        )
        b = run_testbed(
            TestbedConfig(n_apps=2, duration_s=150.0, seed=2), model=shared_model
        )
        assert not np.array_equal(
            a.recorder.values("rt/app0"), b.recorder.values("rt/app0")
        )
