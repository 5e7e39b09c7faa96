"""Response-time controller: tracking on the real plant, guards, bias."""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp
from repro.core.controller import ControllerConfig, ResponseTimeController
from repro.sysid import fit_arx, run_identification_experiment


@pytest.fixture(scope="module")
def identified_model():
    """One identification run shared by all controller tests."""
    app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=55)
    data = run_identification_experiment(
        app, n_periods=160, period_s=15.0,
        alloc_lower=[0.45, 0.45], alloc_upper=[0.9, 0.9], rng=56,
    )
    return fit_arx(data.t, data.c, na=1, nb=2).model


def _make_controller(model, setpoint=1000.0, **cfg_kwargs):
    return ResponseTimeController(
        model,
        ControllerConfig(setpoint_ms=setpoint, period_s=15.0, **cfg_kwargs),
        c_min=[0.2, 0.2],
        c_max=[3.0, 3.0],
        initial_alloc_ghz=[1.0, 1.0],
    )


def _run_loop(model, setpoint=1000.0, concurrency=40, periods=60, seed=77, **cfg):
    plant = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=concurrency, rng=seed)
    plant.warmup(90)
    ctrl = _make_controller(model, setpoint, **cfg)
    rts = []
    for _ in range(periods):
        stats = plant.run_period(15.0)
        c = ctrl.update(stats.rt_p90_ms, used_ghz=plant.used_ghz(15.0))
        plant.set_allocations(c)
        rts.append(stats.rt_p90_ms)
    return np.asarray(rts), ctrl


class TestConfigValidation:
    def test_bias_gain_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(bias_gain=1.5)

    def test_util_band_ordering(self):
        with pytest.raises(ValueError):
            ControllerConfig(util_band=(0.9, 0.8))
        with pytest.raises(ValueError):
            ControllerConfig(util_band=(0.0, 0.9))

    def test_bounds_validation(self, identified_model):
        with pytest.raises(ValueError):
            ResponseTimeController(
                identified_model, ControllerConfig(),
                c_min=[1.0, 1.0], c_max=[0.5, 0.5], initial_alloc_ghz=[1.0, 1.0],
            )
        with pytest.raises(ValueError):
            ResponseTimeController(
                identified_model, ControllerConfig(),
                c_min=[0.1], c_max=[3.0], initial_alloc_ghz=[1.0],
            )


class TestTracking:
    def test_tracks_default_setpoint(self, identified_model):
        rts, _ = _run_loop(identified_model)
        tail = rts[len(rts) // 2 :]
        assert tail.mean() == pytest.approx(1000.0, rel=0.12)

    def test_tracks_low_setpoint(self, identified_model):
        rts, _ = _run_loop(identified_model, setpoint=600.0)
        tail = rts[len(rts) // 2 :]
        assert tail.mean() == pytest.approx(600.0, rel=0.15)

    def test_tracks_high_setpoint(self, identified_model):
        rts, _ = _run_loop(identified_model, setpoint=1300.0)
        tail = rts[len(rts) // 2 :]
        assert tail.mean() == pytest.approx(1300.0, rel=0.2)

    def test_tracks_off_design_concurrency(self, identified_model):
        """Identified at 40 clients; must still track at 80 (paper Fig. 4)."""
        rts, _ = _run_loop(identified_model, concurrency=80, periods=70)
        tail = rts[len(rts) // 2 :]
        assert tail.mean() == pytest.approx(1000.0, rel=0.2)

    def test_recovers_from_workload_step(self, identified_model):
        plant = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=88)
        plant.warmup(90)
        ctrl = _make_controller(identified_model)
        rts = []
        for k in range(80):
            if k == 30:
                plant.set_concurrency(80)
            stats = plant.run_period(15.0)
            c = ctrl.update(stats.rt_p90_ms, used_ghz=plant.used_ghz(15.0))
            plant.set_allocations(c)
            rts.append(stats.rt_p90_ms)
        rts = np.asarray(rts)
        spike = rts[30:40].max()
        settled = rts[60:].mean()
        assert spike > 1500.0             # the step visibly violates the SLA
        assert settled == pytest.approx(1000.0, rel=0.2)  # and is controlled away


class TestGuards:
    def test_sustained_nan_pushes_allocation_up(self, identified_model):
        """Repeated empty periods (total starvation) read as worst-case
        response times; the bias estimate accumulates and allocation
        rises even though the model initially blames excess capacity."""
        ctrl = _make_controller(identified_model)
        before = ctrl.current_demand_ghz
        after = before
        for _ in range(6):
            after = ctrl.update(float("nan"))
        assert after.sum() > before.sum()

    def test_measurement_clamped(self, identified_model):
        ctrl = _make_controller(identified_model, measurement_limit_ms=2000.0)
        ctrl.update(1e9)  # must not blow up the internal state
        assert np.isfinite(ctrl.current_demand_ghz).all()

    def test_util_band_floor_prevents_starvation(self, identified_model):
        ctrl = _make_controller(identified_model, util_band=(0.75, 0.985))
        # Low RT tempts the controller to cut; usage floor resists.
        demand = ctrl.update(100.0, used_ghz=np.array([0.95, 0.95]))
        assert np.all(demand >= 0.95 / 0.985 - 1e-6)

    def test_util_band_cap_prevents_hoarding(self, identified_model):
        ctrl = _make_controller(identified_model, util_band=(0.75, 0.985))
        # High RT but tiny usage: cap limits the grab.
        demand = ctrl.update(2500.0, used_ghz=np.array([0.1, 0.1]))
        cap = 0.1 / 0.75 + ControllerConfig().util_band_headroom_ghz
        assert np.all(demand <= max(cap, 1.0 - 0.3) + 0.31)  # within reach+rate

    def test_without_usage_static_bounds_apply(self, identified_model):
        ctrl = _make_controller(identified_model)
        demand = ctrl.update(2500.0)
        assert np.all(demand <= 3.0 + 1e-9)
        assert np.all(demand >= 0.2 - 1e-9)

    def test_notify_allocation_overrides_history(self, identified_model):
        ctrl = _make_controller(identified_model)
        ctrl.update(1200.0)
        granted = np.array([0.5, 0.5])
        ctrl.notify_allocation(granted)
        np.testing.assert_array_equal(ctrl.current_demand_ghz, granted)

    def test_notify_allocation_shape_checked(self, identified_model):
        ctrl = _make_controller(identified_model)
        with pytest.raises(ValueError):
            ctrl.notify_allocation(np.array([0.5]))

    def test_bias_estimate_moves_toward_innovation(self, identified_model):
        ctrl = _make_controller(identified_model, bias_gain=0.5)
        assert ctrl.output_bias_ms == 0.0
        ctrl.update(1000.0)
        ctrl.update(2500.0)  # surprise: plant much slower than modeled
        assert ctrl.output_bias_ms > 0.0

    def test_bias_disabled(self, identified_model):
        ctrl = _make_controller(identified_model, bias_gain=0.0)
        ctrl.update(1000.0)
        ctrl.update(2500.0)
        assert ctrl.output_bias_ms == 0.0
