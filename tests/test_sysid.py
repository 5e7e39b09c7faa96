"""System identification: excitation, fitting, validation, experiment."""

import numpy as np
import pytest

from repro.apps import AppSpec, MultiTierApp
from repro.control.arx import ARXModel
from repro.sysid import (
    aprbs,
    excitation_trajectory,
    fit_arx,
    identify_app_model,
    run_identification_experiment,
)
from repro.sysid.excitation import _MAX_HOLD, _MIN_HOLD
from repro.sysid.validate import one_step_r2, residual_autocorrelation, simulation_rmse


class TestExcitation:
    def test_aprbs_range(self, rng):
        seq = aprbs(200, 0.4, 0.9, rng)
        assert seq.min() >= 0.4
        assert seq.max() <= 0.9

    def test_aprbs_holds_within_bounds(self, rng):
        seq = aprbs(500, 0.0, 1.0, rng)
        # Count run lengths; all interior runs must be in the hold range.
        changes = np.flatnonzero(np.diff(seq) != 0)
        runs = np.diff(changes)
        assert np.all(runs >= _MIN_HOLD)
        assert np.all(runs <= _MAX_HOLD)

    def test_trajectory_shape_and_channel_ranges(self, rng):
        traj = excitation_trajectory(50, [0.2, 0.5], [0.4, 1.5], rng)
        assert traj.shape == (50, 2)
        assert traj[:, 0].min() >= 0.2 and traj[:, 0].max() <= 0.4
        assert traj[:, 1].min() >= 0.5 and traj[:, 1].max() <= 1.5

    def test_trajectory_channels_independent(self, rng):
        traj = excitation_trajectory(400, [0.0, 0.0], [1.0, 1.0], rng)
        corr = np.corrcoef(traj[:, 0], traj[:, 1])[0, 1]
        assert abs(corr) < 0.3

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ValueError):
            aprbs(0, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            aprbs(10, 1.0, 0.5, rng)
        with pytest.raises(ValueError):
            excitation_trajectory(10, [0.5], [0.4], rng)


class TestFitARX:
    def _generate(self, model, K, rng, noise=0.0):
        c = excitation_trajectory(K, [0.3] * model.n_inputs, [1.2] * model.n_inputs, rng)
        t = np.empty(K)
        t_hist = [model.g / max(1 - model.a.sum(), 1e-6)] * model.na
        c_hist = [c[0]] * model.nb
        for k in range(K):
            c_hist.insert(0, c[k])
            c_hist = c_hist[: model.nb]
            t[k] = model.one_step(t_hist, np.asarray(c_hist)) + rng.normal(0, noise)
            t_hist.insert(0, t[k])
            t_hist = t_hist[: model.na]
        return t, c

    def test_recovers_known_model_exactly(self, rng):
        true = ARXModel(a=[0.5], b=[[-900.0, -250.0], [-150.0, -80.0]], g=1500.0)
        t, c = self._generate(true, 300, rng)
        fit = fit_arx(t, c, na=1, nb=2)
        np.testing.assert_allclose(fit.model.a, true.a, atol=1e-6)
        np.testing.assert_allclose(fit.model.b, true.b, atol=1e-4)
        assert fit.model.g == pytest.approx(true.g, abs=1e-2)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_noisy_recovery_close(self, rng):
        true = ARXModel(a=[0.5], b=[[-900.0, -250.0], [-150.0, -80.0]], g=1500.0)
        t, c = self._generate(true, 2000, rng, noise=20.0)
        fit = fit_arx(t, c, na=1, nb=2)
        np.testing.assert_allclose(fit.model.a, true.a, atol=0.05)
        np.testing.assert_allclose(fit.model.b, true.b, rtol=0.2, atol=30)

    def test_physical_constraints_enforced(self, rng):
        """Even on pure noise, the physical fit keeps gains <= 0 and a in [0, 0.98]."""
        t = rng.normal(1000, 300, size=200)
        c = excitation_trajectory(200, [0.3, 0.3], [1.0, 1.0], rng)
        fit = fit_arx(t, c, na=1, nb=2)
        assert np.all(fit.model.b <= 1e-12)
        assert np.all(fit.model.a >= -1e-12)
        assert np.all(fit.model.a <= 0.98)

    def test_nan_rows_dropped(self, rng):
        true = ARXModel(a=[0.5], b=[[-900.0]], g=1500.0)
        t, c = self._generate(true, 300, rng)
        t[50] = np.nan
        fit = fit_arx(t, c, na=1, nb=1)
        # NaN poisons a few regression rows but the fit survives.
        assert fit.n_samples < 299
        np.testing.assert_allclose(fit.model.b, true.b, rtol=0.05)

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            fit_arx(np.ones(4), np.ones((4, 2)), na=1, nb=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_arx(np.ones(10), np.ones((9, 1)))


class TestValidate:
    def _fit_pair(self, rng):
        true = ARXModel(a=[0.5], b=[[-900.0, -250.0], [-150.0, -80.0]], g=1500.0)
        c = excitation_trajectory(500, [0.3, 0.3], [1.2, 1.2], rng)
        t = np.empty(500)
        t_hist = [1000.0]
        c_hist = [c[0]] * 2
        for k in range(500):
            c_hist.insert(0, c[k])
            c_hist = c_hist[:2]
            t[k] = true.one_step(t_hist, np.asarray(c_hist)) + rng.normal(0, 10.0)
            t_hist = [t[k]]
        return true, t, c

    def test_r2_high_for_true_model(self, rng):
        true, t, c = self._fit_pair(rng)
        assert one_step_r2(true, t, c) > 0.9

    def test_r2_low_for_wrong_model(self, rng):
        true, t, c = self._fit_pair(rng)
        wrong = ARXModel(a=[0.0], b=[[0.0, 0.0], [0.0, 0.0]], g=float(np.mean(t)))
        assert one_step_r2(wrong, t, c) <= 0.05

    def test_simulation_rmse_small_for_true_model(self, rng):
        true, t, c = self._fit_pair(rng)
        assert simulation_rmse(true, t, c) < 50.0

    def test_residuals_white_for_true_model(self, rng):
        true, t, c = self._fit_pair(rng)
        rho = residual_autocorrelation(true, t, c, max_lag=5)
        assert np.all(np.abs(rho) < 2.5 / np.sqrt(len(t)) + 0.05)

    def test_residuals_correlated_for_wrong_model(self, rng):
        true, t, c = self._fit_pair(rng)
        wrong = ARXModel(a=[0.0], b=true.b, g=true.g)  # drops the AR term
        rho = residual_autocorrelation(wrong, t, c, max_lag=3)
        assert abs(rho[0]) > 0.2

    def test_max_lag_validation(self, rng):
        true, t, c = self._fit_pair(rng)
        with pytest.raises(ValueError):
            residual_autocorrelation(true, t, c, max_lag=0)


class TestIdentificationExperiment:
    def test_experiment_produces_aligned_data(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=20, rng=3)
        data = run_identification_experiment(
            app, n_periods=30, period_s=10.0,
            alloc_lower=[0.5, 0.5], alloc_upper=[1.0, 1.0], rng=4,
        )
        assert data.t.shape == (30,)
        assert data.c.shape == (30, 2)
        assert data.c.min() >= 0.5 and data.c.max() <= 1.0

    def test_identify_app_model_sensible(self):
        """On the real plant, the identified model has negative gains
        (more CPU -> lower response time) and a stable pole."""
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=5)
        fit = identify_app_model(app, n_periods=120, period_s=15.0, rng=6)
        assert np.all(fit.model.b <= 0)
        assert 0 <= fit.model.a[0] < 1
        assert fit.r_squared > 0.3

    def test_too_few_periods_rejected(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=5, rng=7)
        with pytest.raises(ValueError):
            run_identification_experiment(app, n_periods=5)
