"""Property tests of the full controller across random plants.

The strongest claim the controller design makes: for *any* stable
response-time-like plant (negative input gains, bounded AR term) within
the actuator range, the loop converges to the set point and respects all
constraints along the way.  Hypothesis samples that plant family.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig
from repro.core.controller import ControllerConfig, ResponseTimeController


def _random_plant(data, m):
    """A stable plant with negative gains and a reachable 1000 ms point."""
    a = data.draw(st.floats(0.0, 0.7))
    gains = np.asarray(
        [data.draw(st.floats(-3000.0, -300.0)) for _ in range(m)]
    )
    split = data.draw(st.floats(0.5, 1.0))
    b = np.vstack([gains * split, gains * (1.0 - split)])
    # Choose g so t = 1000 is achieved at some c* inside [0.3, 2.0]^m.
    c_star = np.asarray([data.draw(st.floats(0.4, 1.8)) for _ in range(m)])
    g = 1000.0 * (1.0 - a) - float(b.sum(axis=0) @ c_star)
    return ARXModel(a=[a], b=b, g=g), c_star


class TestRandomPlantConvergence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_loop_reaches_setpoint_and_respects_constraints(self, data):
        m = data.draw(st.integers(1, 3))
        plant, c_star = _random_plant(data, m)
        noise_rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        t0 = data.draw(st.floats(300.0, 2800.0))
        c0 = np.asarray([data.draw(st.floats(0.3, 2.0)) for _ in range(m)])

        ctrl = ResponseTimeController(
            plant,
            ControllerConfig(
                setpoint_ms=1000.0,
                util_band=None,
                mpc=MPCConfig(r_weight=1e5, delta_max=0.3, power_weight=0.0),
            ),
            c_min=[0.1] * m,
            c_max=[3.0] * m,
            initial_alloc_ghz=c0,
        )
        t_hist = [t0]
        c_hist = [c0.copy(), c0.copy()]
        t_k = t0
        trajectory = []
        for _ in range(60):
            c_next = ctrl.update(t_k)
            # Constraint check on every emitted allocation.
            assert np.all(c_next >= 0.1 - 1e-6)
            assert np.all(c_next <= 3.0 + 1e-6)
            assert np.all(np.abs(c_next - c_hist[0]) <= 0.3 + 1e-5)
            c_hist.insert(0, c_next)
            c_hist = c_hist[:2]
            t_k = plant.one_step(t_hist, np.asarray(c_hist)) + noise_rng.normal(0, 10.0)
            t_hist = [t_k]
            trajectory.append(t_k)
        tail = np.asarray(trajectory[-15:])
        assert np.abs(tail.mean() - 1000.0) < 120.0, (
            f"did not converge: tail mean {tail.mean():.0f}, plant a={plant.a}, "
            f"b={plant.b}, g={plant.g}"
        )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_setpoint_changes_are_followed(self, data):
        """Mid-run set-point changes (Fig. 5's sweep, online) are tracked."""
        plant, _ = _random_plant(data, 2)
        ctrl = ResponseTimeController(
            plant,
            ControllerConfig(setpoint_ms=1000.0, util_band=None),
            c_min=[0.1, 0.1], c_max=[3.0, 3.0], initial_alloc_ghz=[1.0, 1.0],
        )
        # Switch the set point by rebuilding the controller mid-run, as the
        # testbed harness does; state (histories) is deliberately fresh.
        for setpoint in (1000.0, data.draw(st.sampled_from([700.0, 1300.0]))):
            ctrl = ResponseTimeController(
                plant,
                ControllerConfig(setpoint_ms=setpoint, util_band=None),
                c_min=[0.1, 0.1], c_max=[3.0, 3.0],
                initial_alloc_ghz=ctrl.current_demand_ghz,
            )
            t_hist = [setpoint * 1.5]
            c_hist = [ctrl.current_demand_ghz] * 2
            t_k = t_hist[0]
            out = []
            for _ in range(50):
                c_next = ctrl.update(t_k)
                c_hist.insert(0, c_next)
                c_hist = c_hist[:2]
                t_k = plant.one_step(t_hist, np.asarray(c_hist))
                t_hist = [t_k]
                out.append(t_k)
            assert abs(np.mean(out[-10:]) - setpoint) < 0.15 * setpoint
