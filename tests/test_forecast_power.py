"""Forecasting and measured power curves; provisioning integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MeasuredPowerCurve, Server, ServerSpec
from repro.cluster.server import CPUSpec
from repro.traces import EwmaPeakForecaster, HoltForecaster


class TestMeasuredPowerCurve:
    def _curve(self):
        return MeasuredPowerCurve(
            load_points=(0.0, 0.5, 1.0),
            watts=(100.0, 170.0, 200.0),
            sleep_w=8.0,
        )

    def test_endpoints(self):
        c = self._curve()
        assert c.idle_w == 100.0
        assert c.busy_w == 200.0
        assert c.active_power_w(1.0, 0.0) == pytest.approx(100.0)
        assert c.active_power_w(1.0, 1.0) == pytest.approx(200.0)

    def test_interpolation(self):
        c = self._curve()
        assert c.active_power_w(1.0, 0.25) == pytest.approx(135.0)
        assert c.active_power_w(1.0, 0.75) == pytest.approx(185.0)

    def test_concavity_beats_linear_midload(self):
        """The SPEC-like curve draws more at mid load than a linear model
        with the same endpoints — the realism it adds."""
        spec = MeasuredPowerCurve.spec2008_like(200.0)
        linear_mid = spec.idle_w + (spec.busy_w - spec.idle_w) * 0.5
        assert spec.active_power_w(1.0, 0.5) > linear_mid

    def test_dvfs_scaling(self):
        c = self._curve()
        assert c.active_power_w(0.5, 0.8) < c.active_power_w(1.0, 0.8)

    def test_usable_in_server_spec(self):
        """Duck-typing contract: a ServerSpec accepts the measured curve."""
        spec = ServerSpec(
            name="measured",
            cpu=CPUSpec("c", 2, (1.0, 2.0)),
            memory_mb=4096,
            power=MeasuredPowerCurve.spec2008_like(180.0),
        )
        server = Server("s", spec)
        assert spec.power_efficiency == pytest.approx(4.0 / 180.0)
        p_busy = server.power_w(4.0)
        p_idle = server.power_w(0.0)
        assert p_idle < p_busy <= 180.0 + 1e-9
        server.sleep()
        assert server.power_w(0.0) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasuredPowerCurve((0.0, 1.0), (100.0,), 5.0)
        with pytest.raises(ValueError):
            MeasuredPowerCurve((0.1, 1.0), (100.0, 200.0), 5.0)
        with pytest.raises(ValueError):
            MeasuredPowerCurve((0.0, 1.0), (200.0, 100.0), 5.0)
        with pytest.raises(ValueError):
            MeasuredPowerCurve((0.0, 1.0), (100.0, 200.0), 500.0)

    @settings(max_examples=20, deadline=None)
    @given(util=st.floats(0.0, 1.0), ratio=st.floats(0.3, 1.0))
    def test_within_envelope(self, util, ratio):
        c = MeasuredPowerCurve.spec2008_like(250.0)
        p = c.active_power_w(ratio, util)
        assert 0.0 < p <= 250.0 + 1e-9


class TestForecasters:
    def test_ewma_tracks_constant(self):
        f = EwmaPeakForecaster(3)
        for _ in range(50):
            f.update(np.array([1.0, 2.0, 0.5]))
        np.testing.assert_allclose(f.forecast_peak(4), [1.0, 2.0, 0.5], atol=1e-6)

    def test_ewma_peak_covers_bursts(self):
        """A bursty series' forecast sits above its baseline level."""
        f = EwmaPeakForecaster(1)
        base = 1.0
        for k in range(300):
            burst = 1.0 if k % 10 == 0 else 0.0
            f.update(np.array([base + burst]))
        flat = EwmaPeakForecaster(1)
        for _ in range(300):
            flat.update(np.array([base]))
        assert f.forecast_peak(4)[0] > flat.forecast_peak(4)[0] + 0.05

    def test_holt_extrapolates_trend(self):
        f = HoltForecaster(1)
        for k in range(60):
            f.update(np.array([1.0 + 0.01 * k]))
        current = 1.0 + 0.01 * 59
        assert f.forecast_peak(16)[0] > current

    def test_holt_falling_series_forecast_not_below_zero(self):
        f = HoltForecaster(1)
        for k in range(40):
            f.update(np.array([max(1.0 - 0.05 * k, 0.0)]))
        assert f.forecast_peak(8)[0] >= 0.0

    def test_shape_checked(self):
        f = EwmaPeakForecaster(2)
        with pytest.raises(ValueError):
            f.update(np.array([1.0]))
        with pytest.raises(ValueError):
            f.forecast_peak(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPeakForecaster(0)
        with pytest.raises(ValueError):
            HoltForecaster(0)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_forecast_non_negative(self, data):
        n = data.draw(st.integers(1, 5))
        cls = data.draw(st.sampled_from([EwmaPeakForecaster, HoltForecaster]))
        f = cls(n)
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        for _ in range(30):
            f.update(rng.uniform(0, 2.0, size=n))
        assert np.all(f.forecast_peak(8) >= 0.0)


class TestProvisioningIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.traces import TraceConfig, generate_trace
        return generate_trace(
            TraceConfig(n_servers=120, n_days=2, spike_probability=0.005), rng=21
        )

    def test_forecast_reduces_overloads(self, trace):
        from repro.engine.largescale_backend import run_largescale
        from repro.sim.largescale import LargeScaleConfig
        base = dict(n_vms=120, n_servers=200, scheme="ipac", seed=5)
        current = run_largescale(trace, LargeScaleConfig(provisioning="current", **base))
        forecast = run_largescale(trace, LargeScaleConfig(provisioning="ewma_peak", **base))
        assert forecast.overload_server_steps <= current.overload_server_steps
        assert forecast.energy_per_vm_wh <= current.energy_per_vm_wh * 1.15

    def test_static_peak_baseline(self, trace):
        from repro.engine.largescale_backend import run_largescale
        from repro.sim.largescale import LargeScaleConfig
        base = dict(n_vms=120, n_servers=200, seed=5)
        static = run_largescale(trace, LargeScaleConfig(scheme="static_peak", **base))
        ipac_res = run_largescale(trace, LargeScaleConfig(scheme="ipac", **base))
        # The no-reconfiguration baseline never migrates, never overloads,
        # and burns noticeably more energy than IPAC.
        assert static.migrations == 0
        assert static.overload_server_steps == 0
        assert static.energy_per_vm_wh > ipac_res.energy_per_vm_wh
