"""MPC core: tracking, constraints, terminal handling, closed loop."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.control.arx import ARXModel
from repro.control.mpc_core import (
    _REACH_EQ_MARGIN,
    MPCConfig,
    MPCController,
    solve_mpc_batch,
)
from repro.control.qp import solve_qp
from repro.core.controller.reference import exponential_reference
from tests.oracles.closed_loop import closed_loop_converges
from tests.oracles.terminal_reach_lp import terminal_range, terminal_reachable


def _ref_fn(setpoint, P=8, period=15.0, tref=15.0):
    def fn(t_k):
        return exponential_reference(t_k, setpoint, P, period, tref)
    return fn


class TestConfigValidation:
    def test_horizon_ordering(self):
        with pytest.raises(ValueError):
            MPCConfig(prediction_horizon=2, control_horizon=3)

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            MPCConfig(q_weight=0.0)
        with pytest.raises(ValueError):
            MPCConfig(r_weight=-1.0)

    def test_delta_max_positive(self):
        with pytest.raises(ValueError):
            MPCConfig(delta_max=0.0)

    def test_power_weight_non_negative(self):
        with pytest.raises(ValueError):
            MPCConfig(power_weight=-1.0)

    def test_r_weight_vector_wrong_length(self, simple_arx):
        with pytest.raises(ValueError):
            MPCController(simple_arx, MPCConfig(r_weight=[1.0, 2.0, 3.0]))


class TestSolve:
    def test_at_setpoint_does_nothing(self, simple_arx):
        """At steady state on the set point, the input change is ~0."""
        # Steady state: t = (g + sum(b) c) / (1 - a); choose c so t = Ts.
        c = np.array([0.6, 0.6])
        ts = float((simple_arx.g + simple_arx.b.sum(axis=0) @ c) / (1 - simple_arx.a.sum()))
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4))
        ref = np.full(8, ts)
        sol = ctrl.solve([ts], np.tile(c, (2, 1)), ref, ts, [0.1, 0.1], [3.0, 3.0])
        np.testing.assert_allclose(sol.delta_c, 0.0, atol=1e-6)

    def test_high_rt_increases_allocation(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4))
        c = np.array([0.6, 0.6])
        ref = exponential_reference(2500.0, 1000.0, 8, 15.0, 15.0)
        sol = ctrl.solve([2500.0], np.tile(c, (2, 1)), ref, 1000.0, [0.1, 0.1], [3.0, 3.0])
        assert sol.delta_c.sum() > 0  # negative gains: more CPU lowers RT

    def test_low_rt_decreases_allocation(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4))
        c = np.array([1.5, 1.5])
        ref = exponential_reference(300.0, 1000.0, 8, 15.0, 15.0)
        sol = ctrl.solve([300.0], np.tile(c, (2, 1)), ref, 1000.0, [0.1, 0.1], [3.0, 3.0])
        assert sol.delta_c.sum() < 0

    def test_bounds_respected(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1.0))
        c = np.array([0.15, 0.15])
        ref = exponential_reference(3000.0, 100.0, 8, 15.0, 15.0)
        sol = ctrl.solve([3000.0], np.tile(c, (2, 1)), ref, 100.0, [0.1, 0.1], [0.3, 0.3])
        new_c = c + sol.input_trajectory.cumsum(axis=0)
        assert np.all(new_c <= 0.3 + 1e-5)
        assert np.all(new_c >= 0.1 - 1e-5)

    def test_rate_limit_respected(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1.0, delta_max=0.05))
        c = np.array([0.5, 0.5])
        ref = exponential_reference(3000.0, 500.0, 8, 15.0, 15.0)
        sol = ctrl.solve([3000.0], np.tile(c, (2, 1)), ref, 500.0, [0.1, 0.1], [3.0, 3.0])
        assert np.all(np.abs(sol.input_trajectory) <= 0.05 + 1e-5)

    def test_terminal_constraint_hit_when_feasible(self, simple_arx):
        cfg = MPCConfig(r_weight=1.0, terminal_constraint=True)
        ctrl = MPCController(simple_arx, cfg)
        c = np.array([0.8, 0.8])
        ref = exponential_reference(1500.0, 1000.0, 8, 15.0, 15.0)
        sol = ctrl.solve([1500.0], np.tile(c, (2, 1)), ref, 1000.0, [0.1, 0.1], [3.0, 3.0])
        assert not sol.terminal_softened
        # Predicted output at the control horizon equals the set point.
        assert sol.predicted_outputs[cfg.control_horizon - 1] == pytest.approx(1000.0, abs=1e-5)

    def test_terminal_softens_when_unreachable(self, simple_arx):
        """A tiny rate limit makes the hard terminal equality infeasible."""
        cfg = MPCConfig(r_weight=1.0, terminal_constraint=True, delta_max=0.01)
        ctrl = MPCController(simple_arx, cfg)
        c = np.array([0.5, 0.5])
        ref = exponential_reference(3000.0, 500.0, 8, 15.0, 15.0)
        sol = ctrl.solve([3000.0], np.tile(c, (2, 1)), ref, 500.0, [0.1, 0.1], [3.0, 3.0])
        assert sol.terminal_softened
        assert np.all(np.abs(sol.input_trajectory) <= 0.01 + 1e-5)

    def test_total_cap_enforced(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1.0))
        c = np.array([0.5, 0.5])
        ref = exponential_reference(3000.0, 200.0, 8, 15.0, 15.0)
        sol = ctrl.solve(
            [3000.0], np.tile(c, (2, 1)), ref, 200.0,
            [0.1, 0.1], [3.0, 3.0], total_cap_ghz=1.4,
        )
        new_c = c + sol.input_trajectory.cumsum(axis=0)
        assert np.all(new_c.sum(axis=1) <= 1.4 + 1e-7)

    def test_output_bias_shifts_predictions(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4, terminal_constraint=False))
        c = np.tile([0.6, 0.6], (2, 1))
        ref = np.full(8, 1000.0)
        s0 = ctrl.solve([1000.0], c, ref, 1000.0, [0.1, 0.1], [3.0, 3.0], output_bias=0.0)
        s1 = ctrl.solve([1000.0], c, ref, 1000.0, [0.1, 0.1], [3.0, 3.0], output_bias=500.0)
        # Positive bias means "plant is slower than modeled" -> allocate more.
        assert s1.delta_c.sum() > s0.delta_c.sum()

    def test_power_weight_drains_excess(self, simple_arx):
        """With tracking satisfied and no terminal pin, a positive power
        weight pushes allocations down."""
        cfg = MPCConfig(r_weight=1e4, terminal_constraint=False, power_weight=500.0)
        ctrl = MPCController(simple_arx, cfg)
        c = np.array([0.6, 0.6])
        ts = float((simple_arx.g + simple_arx.b.sum(axis=0) @ c) / (1 - simple_arx.a.sum()))
        ref = np.full(8, ts)
        sol = ctrl.solve([ts], np.tile(c, (2, 1)), ref, ts, [0.1, 0.1], [3.0, 3.0])
        assert sol.delta_c.sum() < 0

    def test_reference_length_checked(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig())
        with pytest.raises(ValueError):
            ctrl.solve([1000.0], np.ones((2, 2)), np.ones(3), 1000.0, [0.1, 0.1], [3.0, 3.0])


class TestClosedLoop:
    def test_converges_from_above(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4))
        assert closed_loop_converges(
            simple_arx, ctrl, setpoint=1000.0, t_initial=2200.0,
            c_initial=[0.4, 0.4], c_min=[0.1, 0.1], c_max=[3.0, 3.0],
            reference_fn=_ref_fn(1000.0),
        )

    def test_converges_from_below(self, simple_arx):
        ctrl = MPCController(simple_arx, MPCConfig(r_weight=1e4))
        assert closed_loop_converges(
            simple_arx, ctrl, setpoint=1000.0, t_initial=300.0,
            c_initial=[1.5, 1.5], c_min=[0.1, 0.1], c_max=[3.0, 3.0],
            reference_fn=_ref_fn(1000.0),
        )

    def test_raw_mpc_has_offset_under_model_mismatch(self, simple_arx):
        """Without the disturbance estimate, coefficient mismatch leaves a
        steady-state offset — the motivation for the bias correction."""
        perturbed = ARXModel(a=simple_arx.a * 0.7, b=simple_arx.b * 1.6, g=simple_arx.g)
        ctrl = MPCController(perturbed, MPCConfig(r_weight=1e4))
        assert not closed_loop_converges(
            simple_arx, ctrl, setpoint=1000.0, t_initial=2000.0,
            c_initial=[0.4, 0.4], c_min=[0.1, 0.1], c_max=[3.0, 3.0],
            reference_fn=_ref_fn(1000.0), n_steps=80, tol=0.05,
        )

    def test_bias_correction_removes_mismatch_offset(self, simple_arx):
        """The full response-time controller (offset-free MPC) shrinks the
        mismatch offset to a few percent — the raw MPC above sits ~80%
        away.  (A constant output-disturbance estimate cannot null the
        offset exactly when the autoregressive coefficient is wrong.)"""
        from repro.core.controller import ControllerConfig, ResponseTimeController

        perturbed = ARXModel(a=simple_arx.a * 0.7, b=simple_arx.b * 1.6, g=simple_arx.g)
        ctrl = ResponseTimeController(
            perturbed,
            ControllerConfig(
                setpoint_ms=1000.0,
                util_band=None,
                mpc=MPCConfig(r_weight=1e5, delta_max=0.3, power_weight=0.0),
            ),
            c_min=[0.1, 0.1], c_max=[3.0, 3.0], initial_alloc_ghz=[0.4, 0.4],
        )
        t_hist = [2000.0]
        c_hist = [np.array([0.4, 0.4])] * 2
        t_k = 2000.0
        for _ in range(80):
            c_next = ctrl.update(t_k)
            c_hist.insert(0, c_next)
            c_hist = c_hist[:2]
            t_k = simple_arx.one_step(t_hist, np.asarray(c_hist))
            t_hist = [t_k]
        assert t_k == pytest.approx(1000.0, rel=0.08)


class TestReferenceTrajectory:
    def test_starts_near_measurement_and_ends_at_setpoint(self):
        ref = exponential_reference(2000.0, 1000.0, 50, 15.0, 30.0)
        assert 1000.0 < ref[0] < 2000.0
        assert ref[-1] == pytest.approx(1000.0, abs=1.0)

    def test_monotone_approach(self):
        ref = exponential_reference(2000.0, 1000.0, 20, 15.0, 30.0)
        assert np.all(np.diff(ref) < 0)
        ref_up = exponential_reference(500.0, 1000.0, 20, 15.0, 30.0)
        assert np.all(np.diff(ref_up) > 0)

    def test_time_constant_controls_speed(self):
        fast = exponential_reference(2000.0, 1000.0, 5, 15.0, 10.0)
        slow = exponential_reference(2000.0, 1000.0, 5, 15.0, 100.0)
        assert fast[0] < slow[0]

    def test_at_setpoint_flat(self):
        ref = exponential_reference(1000.0, 1000.0, 5, 15.0, 30.0)
        np.testing.assert_allclose(ref, 1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exponential_reference(1.0, 1.0, 0, 15.0, 30.0)
        with pytest.raises(ValueError):
            exponential_reference(1.0, 1.0, 5, -1.0, 30.0)


# -- terminal-reachability certificate ---------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def reach_instances(draw):
    """A random controller plus one period's request (set point left to
    the test): ARX m 1-3 / nb 1-2, M 1-3, P >= M, optional rate limit
    and aggregate cap, ``c_now`` inside or up to 0.3 GHz outside the
    bounds, output bias."""
    m = draw(st.integers(1, 3))
    nb = draw(st.integers(1, 2))
    M = draw(st.integers(1, 3))
    P = M + draw(st.integers(0, 3))
    # ms per GHz; zero or of identifiable size.  A denormal gain leaves
    # the exact LP undecided (HiGHS: model status Unknown), so the
    # oracle could not judge the certificate; solve_qp's side of such
    # draws is pinned in tests/test_qp.py.
    gain = st.one_of(st.just(0.0), _floats(-1000.0, -1.0), _floats(1.0, 1000.0))
    model = ARXModel(
        a=[draw(_floats(-0.9, 0.9))],
        b=[[draw(gain) for _ in range(m)] for _ in range(nb)],
        g=draw(_floats(0.0, 2000.0)),
    )
    config = MPCConfig(
        prediction_horizon=P,
        control_horizon=M,
        r_weight=draw(st.sampled_from([1.0, 1e3, 1e5])),
        delta_max=draw(st.one_of(st.none(), _floats(0.05, 1.0))),
        power_weight=draw(st.sampled_from([0.0, 200.0])),
    )
    c_min = np.array([draw(_floats(0.1, 1.0)) for _ in range(m)])
    c_max = c_min + np.array([draw(_floats(0.0, 2.5)) for _ in range(m)])
    frac = np.array([draw(_floats(0.0, 1.0)) for _ in range(m)])
    c_now = c_min + frac * (c_max - c_min)
    if draw(st.booleans()):
        c_now = c_now + np.array([draw(_floats(-0.3, 0.3)) for _ in range(m)])
        c_now = np.clip(c_now, c_min - 0.3, c_max + 0.3)
    cap = None
    if draw(st.booleans()):
        cap = float(c_now.sum()) + draw(_floats(-0.2, 1.0))
    request = dict(
        t_hist=[draw(_floats(0.0, 3000.0))],
        c_hist=np.tile(c_now, (2, 1)),
        reference=np.full(P, 1000.0),
        c_min=c_min,
        c_max=c_max,
        total_cap_ghz=cap,
        output_bias=draw(_floats(-200.0, 200.0)),
    )
    return MPCController(model, config), request


def _with_terminal_rhs(ctrl, request, rhs):
    """Assemble *request* with the set point that makes ``terminal_rhs``
    equal *rhs* (up to one rounding of ``setpoint - phi``)."""
    phi = ctrl._assemble(setpoint=0.0, **request)["phi"]
    M = ctrl.config.control_horizon
    return ctrl._assemble(setpoint=float(rhs) + phi[M - 1], **request)


def _hard_qp(asm):
    return solve_qp(
        asm["cache"]["H"], asm["g"],
        A_eq=asm["terminal_row"], b_eq=asm["terminal_rhs"],
        A_ub=asm["A_ub"], b_ub=asm["b_ub"],
    )


_reach_settings = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _assert_certified_is_infeasible(ctrl, request, setpoint):
    asm = ctrl._assemble(setpoint=setpoint, **request)
    if not ctrl._terminal_unreachable(asm):
        return
    assert not terminal_reachable(
        asm["A_ub"], asm["b_ub"], asm["terminal_row"], asm["terminal_rhs"][0]
    )
    assert not _hard_qp(asm).ok


def _recorded_draw(a, b, g, horizons, c_now, c_min, c_max, *, delta_max=None,
                   power_weight=0.0, cap=None, output_bias=0.0):
    """One ``reach_instances`` draw written out (``t_hist`` 0, ``r`` 1)."""
    P, M = horizons
    ctrl = MPCController(
        ARXModel(a=a, b=b, g=g),
        MPCConfig(prediction_horizon=P, control_horizon=M, r_weight=1.0,
                  delta_max=delta_max, power_weight=power_weight),
    )
    request = dict(
        t_hist=[0.0],
        c_hist=np.tile(np.array(c_now), (2, 1)),
        reference=np.full(P, 1000.0),
        c_min=np.array(c_min),
        c_max=np.array(c_max),
        total_cap_ghz=cap,
        output_bias=output_bias,
    )
    return ctrl, request


class TestTerminalReachCertificate:
    """``MPCController._terminal_unreachable`` against the exact LP."""

    @settings(_reach_settings, derandomize=True)
    @given(reach_instances(), _floats(-3000.0, 3000.0))
    def test_certified_is_infeasible_for_lp_and_solver(self, instance, setpoint):
        """Certified => the LP finds no point and ``solve_qp`` fails too.

        The bound ignores the aggregate cap and how the rate limit
        couples consecutive steps, so it is sound but not complete: in
        one run of 3,000 draws of this strategy the LP called 2,721
        instances infeasible and the certificate decided 2,661 of them
        (98 %), none of the 279 feasible ones; the rest fall through to
        the solver as before.

        Derandomized: about one random run in 30 used to meet a draw of
        one of the two kinds pinned in ``test_known_falsifying_draw``.
        """
        ctrl, request = instance
        _assert_certified_is_infeasible(ctrl, request, setpoint)

    @pytest.mark.parametrize("setpoint, draw", [
        pytest.param(
            # ROADMAP.md item 3's first draw (its model was not recorded;
            # this one reproduces it): two reference steps, one move, the
            # terminal row spans [-500, 250] on the feasible set but must
            # equal 577, and solve_qp returns 'optimal' for that QP.
            -923.0,
            dict(a=[0.0], b=[[-1000.0, 1000.0], [-1000.0, 0.0]], g=0.0,
                 horizons=(2, 1), c_now=[1.0, 0.5], c_min=[1.0, 0.5],
                 c_max=[1.5, 0.75], delta_max=1.0, power_weight=200.0),
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="ROADMAP.md item 3: solve_qp reports an infeasible "
                       "terminal row optimal (a soundness gap or a solver "
                       "tolerance)",
            ),
            id="certified-but-solver-optimal",
        ),
        pytest.param(
            # Three steps under a 4 GHz cap: HiGHS answers "model status
            # Unknown", so the LP oracle cannot judge the draw.
            0.0,
            dict(a=[-6.103515625e-05], b=[[0.0, -4.0, -1.0]], g=11.0,
                 horizons=(3, 3), c_now=[1.0, 1.0, 2.0], c_min=[1.0, 1.0, 1.0],
                 c_max=[1.0, 2.0, 2.0], cap=4.0),
            marks=pytest.mark.xfail(
                strict=True, raises=RuntimeError,
                reason="ROADMAP.md item 3: the HiGHS LP oracle is undecided",
            ),
            id="lp-oracle-undecided",
        ),
    ])
    def test_known_falsifying_draw(self, setpoint, draw):
        ctrl, request = _recorded_draw(**draw)
        _assert_certified_is_infeasible(ctrl, request, setpoint)

    @_reach_settings
    @given(reach_instances(), st.data())
    def test_instance_built_from_a_feasible_point_is_never_certified(
        self, instance, data
    ):
        ctrl, request = instance
        asm = ctrl._assemble(setpoint=0.0, **request)
        M, m = ctrl.config.control_horizon, ctrl.model.n_inputs
        # A trajectory of absolute inputs inside every constraint, then
        # its input changes; skip draws whose constraints admit none.
        assume(np.all(asm["upper"] >= 0.0) and np.all(asm["lower"] >= 0.0))
        delta = ctrl.config.delta_max
        step = np.minimum(asm["upper"], delta) if delta is not None else asm["upper"]
        down = np.minimum(asm["lower"], delta) if delta is not None else asm["lower"]
        dc = []
        level = np.zeros(m)
        for _ in range(M):
            frac = np.array([data.draw(_floats(-1.0, 1.0)) for _ in range(m)])
            move = np.where(frac >= 0.0, frac * step, frac * down)
            move = np.clip(level + move, -asm["lower"], asm["upper"]) - level
            dc.append(move)
            level = level + move
        u = np.concatenate(dc)
        assume(np.all(asm["A_ub"] @ u <= asm["b_ub"]))
        asm = _with_terminal_rhs(ctrl, request, float(asm["terminal_row"][0] @ u))
        assert not ctrl._terminal_unreachable(asm)

    @_reach_settings
    @given(reach_instances(), st.booleans(), _floats(0.0, 0.9))
    def test_rhs_inside_the_margin_band_is_never_certified(
        self, instance, above, depth
    ):
        """Up to 90 % of the margin outside the exact range, the hard QP
        may still be accepted by the solver's tolerances: not decided."""
        ctrl, request = instance
        asm = ctrl._assemble(setpoint=0.0, **request)
        span = terminal_range(asm["A_ub"], asm["b_ub"], asm["terminal_row"])
        assume(span is not None)
        edge = span[1] if above else span[0]
        margin = _REACH_EQ_MARGIN * (1.0 + abs(edge))
        rhs = edge + (depth if above else -depth) * margin
        assert not ctrl._terminal_unreachable(_with_terminal_rhs(ctrl, request, rhs))

    @_reach_settings
    @given(reach_instances(), _floats(-3000.0, 3000.0), _floats(1e-3, 0.3))
    def test_empty_box_is_never_certified(self, instance, setpoint, excess):
        """Bounds the rate limit cannot reach back into: the inequalities
        alone are infeasible, which is the solver's finding to make
        (``infeasible-hold``), not the certificate's."""
        ctrl, request = instance
        delta = ctrl.config.delta_max
        assume(delta is not None)
        M = ctrl.config.control_horizon
        c_now = request["c_max"] + M * delta + excess
        request = {**request, "c_hist": np.tile(c_now, (2, 1)), "total_cap_ghz": None}
        asm = ctrl._assemble(setpoint=setpoint, **request)
        assert terminal_range(asm["A_ub"], asm["b_ub"], asm["terminal_row"]) is None
        assert not ctrl._terminal_unreachable(asm)


# -- the certificate changes no bits ------------------------------------

_SHARED = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
_SHARED_CFG = MPCConfig(r_weight=1e4, delta_max=0.3, power_weight=200.0)


def _fleet_periods(n_members=12, n_periods=6, seed=5):
    """Requests for a shared-model fleet over a few periods.  A member
    either sits mid-range near its set point (terminal reachable) or
    rides a bound far from it (unreachable): every other member in even
    periods, all but member 0 in odd ones — a lone reachable member is
    the case where LAPACK's single-RHS path would differ from the
    stacked one if its certified neighbours' columns were dropped."""
    rng = np.random.default_rng(seed)
    periods = []
    for k in range(n_periods):
        requests = []
        for i in range(n_members):
            if i % 2 or (k % 2 and i):
                c_now = np.array([0.2, 0.2]) + rng.uniform(0.0, 0.05, size=2)
                t_now, setpoint = 400.0 + rng.normal(0.0, 20.0), 3000.0
            else:
                c_now = np.array([0.9, 0.9]) + rng.uniform(-0.1, 0.1, size=2)
                t_now = float(rng.uniform(900.0, 1100.0))
                setpoint = 1000.0
            requests.append(dict(
                t_hist=[t_now],
                c_hist=np.tile(c_now, (2, 1)),
                reference=exponential_reference(t_now, setpoint, 8, 15.0, 15.0),
                setpoint=setpoint,
                c_min=[0.2, 0.2],
                c_max=[3.0, 3.0],
            ))
        periods.append(requests)
    return periods


def _solution_bits(sol):
    return (
        sol.delta_c.tobytes(), sol.input_trajectory.tobytes(),
        sol.predicted_outputs.tobytes(), sol.qp.status, sol.terminal_softened,
    )


def _controller_bits(ctrl):
    return (ctrl.solves, ctrl.warm_hits, dict(ctrl._warm_active))


class TestCertificateBitIdentity:
    """With the certificate answering "reachable" for everything, the
    old chain (hard QP fails, then soften) must produce the same bits."""

    @pytest.fixture
    def with_and_without_certificate(self, monkeypatch):
        def compare(run):
            with_certificate = run()
            monkeypatch.setattr(
                MPCController, "_terminal_unreachable", lambda self, asm: False
            )
            assert with_certificate == run()

        return compare

    def test_batch_lane(self, with_and_without_certificate):
        periods = _fleet_periods()
        decided = []

        def run():
            ctrls = [MPCController(_SHARED, _SHARED_CFG) for _ in periods[0]]
            out = []
            for requests in periods:
                stats = {}
                sols = solve_mpc_batch(ctrls, requests, stats=stats)
                assert stats["groups"] == [len(ctrls)]
                decided.append((stats["unreachable"], stats["softened"]))
                out.append([_solution_bits(s) for s in sols])
            return out, [_controller_bits(c) for c in ctrls]

        with_and_without_certificate(run)
        n = len(periods)
        # The batch mixed both kinds, the certificate decided every
        # softened member, and the reference run decided none.
        assert all(0 < u == s < len(periods[0]) for u, s in decided[:n])
        assert all(u == 0 and s > 0 for u, s in decided[n:])

    def test_scalar_lane(self, with_and_without_certificate):
        periods = _fleet_periods(n_members=4)
        unreachable = []

        def run():
            ctrls = [MPCController(_SHARED, _SHARED_CFG) for _ in periods[0]]
            out = []
            for requests in periods:
                sols = [c.solve(**r) for c, r in zip(ctrls, requests)]
                unreachable.append(sum(s.terminal_unreachable for s in sols))
                out.append([_solution_bits(s) for s in sols])
            return out, [_controller_bits(c) for c in ctrls]

        with_and_without_certificate(run)
        n = len(periods)
        assert unreachable[:n] == [2, 3] * (n // 2)
        assert unreachable[n:] == [0] * n
