"""Online adaptation: RLS estimator and the supervised adaptive controller."""

import numpy as np
import pytest

from repro.control.arx import ARXModel
from repro.core.controller import (
    AdaptiveResponseTimeController,
    ControllerConfig,
    ResponseTimeController,
)
from repro.sysid import RecursiveARXEstimator
from repro.sysid.excitation import excitation_trajectory


def _simulate_plant(model, c_seq, t0, noise_std, rng):
    """Generate (t, aligned histories) from an ARX plant."""
    t_hist = [t0] * model.na
    c_hist = [c_seq[0]] * model.nb
    ts = []
    for k in range(c_seq.shape[0]):
        c_hist.insert(0, c_seq[k])
        c_hist = c_hist[: model.nb]
        t = model.one_step(t_hist, np.asarray(c_hist)) + rng.normal(0, noise_std)
        ts.append(t)
        t_hist.insert(0, t)
        t_hist = t_hist[: model.na]
    return np.asarray(ts)


class TestRLS:
    def _true_model(self):
        return ARXModel(a=[0.4], b=[[-900.0, -300.0], [-120.0, -60.0]], g=1700.0)

    def test_converges_to_true_parameters(self, rng):
        true = self._true_model()
        start = ARXModel(a=true.a * 0.5, b=true.b * 0.5, g=true.g * 1.3)
        est = RecursiveARXEstimator(start, forgetting=0.99)
        c_seq = excitation_trajectory(600, [0.3, 0.3], [1.2, 1.2], rng)
        t = _simulate_plant(true, c_seq, 1000.0, 5.0, rng)
        for k in range(2, 600):
            t_hist = t[k - 1 :: -1][: true.na]
            c_hist = c_seq[k::-1][: true.nb]
            est.update(t[k], t_hist, c_hist)
        learned = est.model
        np.testing.assert_allclose(learned.a, true.a, atol=0.08)
        np.testing.assert_allclose(learned.b, true.b, rtol=0.25, atol=40.0)

    def test_tracks_parameter_drift(self, rng):
        # Drifted plant: gains x1.8 with the offset raised so the output
        # stays in a physical (positive) range.
        true = self._true_model()
        drifted = ARXModel(a=true.a, b=true.b * 1.8, g=3600.0)
        est = RecursiveARXEstimator(true, forgetting=0.99)
        c_seq = excitation_trajectory(1500, [0.3, 0.3], [1.2, 1.2], rng)
        t = _simulate_plant(drifted, c_seq, 1000.0, 5.0, rng)
        for k in range(2, 1500):
            est.update(t[k], t[k - 1 :: -1][:1], c_seq[k::-1][:2])
        np.testing.assert_allclose(est.model.b, drifted.b, rtol=0.35, atol=100.0)

    def test_projection_keeps_physical_signs(self, rng):
        start = self._true_model()
        est = RecursiveARXEstimator(start)
        # Feed pure noise; parameters must stay physical throughout.
        for _ in range(100):
            est.update(
                float(rng.uniform(100, 3000)),
                [float(rng.uniform(100, 3000))],
                rng.uniform(0.2, 2.0, size=(2, 2)),
            )
            assert np.all(est.model.b <= 1e-12)
            assert np.all(est.model.a >= -1e-12)
            assert np.all(est.model.a <= 0.98)

    def test_step_clipping_bounds_single_update(self):
        start = self._true_model()
        est = RecursiveARXEstimator(start, max_relative_step=0.1)
        before = est.theta.copy()
        # One wildly inconsistent sample.
        est.update(1e6, [1000.0], np.array([[1.0, 1.0], [1.0, 1.0]]))
        delta = np.abs(est.theta - before)
        assert np.all(delta <= 0.1 * est.scale + 1e-9)

    def test_nonfinite_measurement_ignored(self):
        est = RecursiveARXEstimator(self._true_model())
        before = est.theta.copy()
        est.update(float("nan"), [1000.0], np.ones((2, 2)))
        np.testing.assert_array_equal(est.theta, before)
        assert est.n_updates == 0

    def test_covariance_trace_capped(self, rng):
        est = RecursiveARXEstimator(self._true_model(), forgetting=0.9)
        cap = est._trace_cap
        for _ in range(300):
            # Identical regressors -> covariance inflates along unexcited
            # directions under forgetting; the cap must hold it.
            est.update(1000.0, [1000.0], np.ones((2, 2)))
        assert float(np.trace(est.P)) <= cap * 1.001

    def test_validation(self):
        with pytest.raises(ValueError):
            RecursiveARXEstimator(self._true_model(), forgetting=0.5)
        with pytest.raises(ValueError):
            RecursiveARXEstimator(self._true_model(), max_relative_step=0.0)


class TestAdaptiveController:
    def _base(self):
        return ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)

    def _closed_loop(self, ctrl, true_model, periods, rng, setpoint=1000.0):
        t_hist = [setpoint]
        c_hist = [ctrl.current_demand_ghz] * 2
        t_k = setpoint
        history = []
        for _ in range(periods):
            c_next = ctrl.update(t_k)
            c_hist.insert(0, c_next)
            c_hist = c_hist[:2]
            t_k = true_model.one_step(t_hist, np.asarray(c_hist)) + rng.normal(0, 20.0)
            t_hist = [t_k]
            history.append(t_k)
        return np.asarray(history)

    def test_matches_static_on_nominal_plant(self, rng):
        base = self._base()
        cfg = ControllerConfig(util_band=None)
        adaptive = AdaptiveResponseTimeController(
            base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0]
        )
        rts = self._closed_loop(adaptive, base, 60, rng)
        assert abs(np.mean(rts[30:]) - 1000.0) < 120.0

    def test_candidate_takes_over_when_base_is_wrong(self, rng):
        """Plant gains differ 2x from the base model: the shadow RLS
        improves the *combined* gain estimate and the supervisor engages
        the candidate for at least part of the run.  (Per-tier gains are
        not identifiable from closed-loop data — the controller moves the
        tiers together — so only the summed-gain direction is asserted;
        the plant's offset is raised to keep its operating range
        positive.)"""
        base = self._base()
        true = ARXModel(a=[0.4], b=base.b * 2.0, g=3600.0)
        cfg = ControllerConfig(util_band=None)
        adaptive = AdaptiveResponseTimeController(
            base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0],
            min_input_change_ghz=0.01,
        )
        rts = self._closed_loop(adaptive, true, 120, rng)
        assert adaptive.rls_samples > 10
        assert adaptive.candidate_periods > 0
        true_sum = true.b.sum()
        cand_err = abs(adaptive.estimator.model.b.sum() - true_sum)
        base_err = abs(base.b.sum() - true_sum)
        assert cand_err < base_err
        assert abs(np.mean(rts[80:]) - 1000.0) < 200.0

    def test_supervisor_rejects_bad_candidate(self, rng):
        """When clean samples are scarce the candidate cannot out-predict
        the base; the controller must keep using the base model."""
        base = self._base()
        cfg = ControllerConfig(util_band=None)
        adaptive = AdaptiveResponseTimeController(
            base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0],
            min_input_change_ghz=10.0,  # gate excludes everything
        )
        self._closed_loop(adaptive, base, 40, rng)
        assert adaptive.rls_samples == 0
        assert not adaptive.using_candidate
        assert adaptive.model is adaptive.base_model

    def test_worst_case_degrades_to_static(self, rng):
        """With supervision active, the adaptive controller's tracking on
        the nominal plant stays close to the static controller's."""
        base = self._base()
        cfg = ControllerConfig(util_band=None)
        static = ResponseTimeController(base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0])
        adaptive = AdaptiveResponseTimeController(
            base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0]
        )
        rng2 = np.random.default_rng(7)
        rng3 = np.random.default_rng(7)
        rts_static = self._closed_loop(static, base, 80, rng2)
        rts_adaptive = self._closed_loop(adaptive, base, 80, rng3)
        err_static = np.abs(rts_static[40:] - 1000.0).mean()
        err_adaptive = np.abs(rts_adaptive[40:] - 1000.0).mean()
        assert err_adaptive < err_static * 2.0 + 20.0

    def test_validation(self):
        base = self._base()
        cfg = ControllerConfig()
        with pytest.raises(ValueError):
            AdaptiveResponseTimeController(
                base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0], switch_margin=0.0
            )
        with pytest.raises(ValueError):
            AdaptiveResponseTimeController(
                base, cfg, [0.1, 0.1], [3.0, 3.0], [1.0, 1.0], error_forgetting=1.0
            )