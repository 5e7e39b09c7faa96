"""Hot-path regression tests.

Pins the hot-path optimizations to their correctness contracts:

* **Golden bit-identity** — the simulators reproduce event logs and
  aggregates captured before the optimizations landed, bit for bit
  (the Minimum Slack dominance bound preserves results when no step
  budget binds; the testbed golden pins the cold-start scalar path).
* **QP warm starting** — a warm-started solve agrees with the cold
  solve on the same problem (objective within 1e-9), survives garbage
  and inconsistent seeds, and degrades to the SciPy fallback exactly
  like a cold solve.
* **MPC matrix caching** — cached prediction/Hessian matrices are
  bitwise equal to freshly derived ones, and solutions are unchanged.
* **Minimum Slack search** — exact step accounting, and optimality
  against a brute-force subset oracle.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController
from repro.control.qp import solve_qp
from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import run_testbed
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.packing.mbs import _FIT_TOL, minimum_bin_slack
from repro.service.runner import eventlog_hash_records as _eventlog_hash
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces.generator import TraceConfig, generate_trace
from tests.goldens import TB_SMALL_SHA


# Captured before the hot-path optimizations landed; they must not move
# any of these.
_LS_GOLDEN = {
    "energy_wh": 13631.487937070524,
    "migrations": 3,
    "mean_active": 4.0,
    "power_sha": "6abedb859fbca99c36dbbba6c6970ecf1806b8cede2ba02d6a0b5f7e2f1d3762",
    "eventlog_sha": "f9a97723c15599b1553e2ad385bea2bc42e26deff5279f9e611949f555d46e83",
    "n_events": 107,
}
_TB_GOLDEN = {
    "eventlog_sha": TB_SMALL_SHA,
    "n_events": 25,
    "power_mean": 169.79611818874358,
}


class TestGoldenBitIdentity:
    def test_largescale_default_config_matches_golden(self):
        # On this instance no Minimum Slack step budget binds, so the
        # dominance bound must leave the run bitwise identical to the
        # exhaustive-search run the golden was captured on.
        backend = InMemoryBackend()
        trace = generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)
        with use_telemetry(Telemetry(backend)):
            res = run_largescale(
                trace, LargeScaleConfig(n_vms=30, n_servers=50, seed=5)
            )
        assert res.total_energy_wh == _LS_GOLDEN["energy_wh"]
        assert res.migrations == _LS_GOLDEN["migrations"]
        assert float(np.mean(res.active_series)) == _LS_GOLDEN["mean_active"]
        power_sha = hashlib.sha256(
            np.asarray(res.power_series_w).tobytes()
        ).hexdigest()
        assert power_sha == _LS_GOLDEN["power_sha"]
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _LS_GOLDEN["eventlog_sha"],
            _LS_GOLDEN["n_events"],
        )

    def test_testbed_warm_start_off_matches_golden(self):
        backend = InMemoryBackend()
        model = ARXModel(
            a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0
        )
        cfg = TestbedConfig(
            n_servers=2,
            n_apps=2,
            duration_s=180.0,
            warmup_s=20.0,
            concurrency=10,
            initial_alloc_ghz=0.6,
            mpc_warm_start=False,
            # The golden was captured on the per-app loop; the fleet
            # path is allclose, not bit-identical (tests/test_fleet.py).
            control_mode="scalar",
            seed=77,
        )
        with use_telemetry(Telemetry(backend)):
            result = run_testbed(cfg, model)
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _TB_GOLDEN["eventlog_sha"],
            _TB_GOLDEN["n_events"],
        )
        summary = result.power_summary()
        assert summary["mean"] == _TB_GOLDEN["power_mean"]


def _box_qp(data, n):
    """A strictly convex QP with box constraints, always feasible."""
    A = np.asarray(
        [[data.draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(n)]
    )
    H = A @ A.T + n * np.eye(n)
    g = np.asarray([data.draw(st.floats(-5.0, 5.0)) for _ in range(n)])
    lo = np.asarray([data.draw(st.floats(-1.0, 0.0)) for _ in range(n)])
    hi = np.asarray([data.draw(st.floats(0.1, 1.0)) for _ in range(n)])
    A_ub = np.vstack([np.eye(n), -np.eye(n)])
    b_ub = np.concatenate([hi, -lo])
    return H, g, A_ub, b_ub


def _objective(H, g, x):
    return 0.5 * x @ H @ x + g @ x


class TestQPWarmStart:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_agrees_with_cold(self, data):
        n = data.draw(st.integers(2, 6))
        H, g, A_ub, b_ub = _box_qp(data, n)
        cold = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert cold.ok
        assert not cold.warm_started
        # Seed from the cold active set on a slightly perturbed problem:
        # the receding-horizon usage pattern.
        g2 = g + np.asarray(
            [data.draw(st.floats(-0.05, 0.05)) for _ in range(n)]
        )
        cold2 = solve_qp(H, g2, A_ub=A_ub, b_ub=b_ub)
        warm2 = solve_qp(
            H, g2, A_ub=A_ub, b_ub=b_ub, warm_start=cold.active_set
        )
        assert cold2.ok and warm2.ok
        assert _objective(H, g2, warm2.x) == pytest.approx(
            _objective(H, g2, cold2.x), abs=1e-9
        )
        assert np.all(A_ub @ warm2.x <= b_ub + 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inconsistent_seed_falls_back_to_cold_result(self, data):
        n = data.draw(st.integers(2, 5))
        H, g, A_ub, b_ub = _box_qp(data, n)
        cold = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        # Seeding EVERY box row pins x to lower and upper bounds at
        # once — an inconsistent working set the verification step must
        # throw away, leaving exactly the cold result.
        warm = solve_qp(
            H, g, A_ub=A_ub, b_ub=b_ub, warm_start=range(2 * n)
        )
        assert warm.ok
        assert np.array_equal(warm.x, cold.x)
        assert warm.active_set == cold.active_set

    def test_out_of_range_seed_indices_ignored(self):
        H = np.eye(2)
        g = np.array([-1.0, -1.0])
        A_ub = np.vstack([np.eye(2), -np.eye(2)])
        b_ub = np.array([0.5, 0.5, 0.0, 0.0])
        res = solve_qp(
            H, g, A_ub=A_ub, b_ub=b_ub, warm_start=[99, -3, 0, 0]
        )
        assert res.ok
        assert res.x == pytest.approx([0.5, 0.5])

    def test_empty_seed_is_a_cold_solve(self):
        H = np.eye(2)
        g = np.array([-1.0, 0.0])
        res = solve_qp(H, g, warm_start=[])
        assert not res.warm_started
        assert res.x == pytest.approx([1.0, 0.0])

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_scipy_fallback_path_with_warm_seed(self, data):
        n = data.draw(st.integers(2, 4))
        H, g, A_ub, b_ub = _box_qp(data, n)
        exact = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        # max_iter=1 cannot settle an active set; warm or cold, the
        # solve must still produce the optimum via the SciPy fallback.
        starved = solve_qp(
            H, g, A_ub=A_ub, b_ub=b_ub, max_iter=1, warm_start=[0]
        )
        assert starved.ok
        assert _objective(H, g, starved.x) == pytest.approx(
            _objective(H, g, exact.x), abs=1e-6
        )


class TestMPCFastLane:
    def _controller(self, warm=True):
        model = ARXModel(
            a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0
        )
        return MPCController(
            model,
            MPCConfig(
                prediction_horizon=10,
                control_horizon=4,
                q_weight=1.0,
                r_weight=1e3,
                delta_max=0.03,
                power_weight=200.0,
                warm_start=warm,
            ),
        )

    def _drive(self, ctrl, n=20):
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        out = []
        for k in range(n):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            sol = ctrl.solve(
                t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0]
            )
            out.append(sol)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + sol.delta_c, 0.2, 3.0), c_hist[0]]
            )
        return out

    def test_cached_matrices_match_fresh_derivation(self):
        ctrl = self._controller(warm=False)
        sols_cached = self._drive(ctrl)
        busted = self._controller(warm=False)
        # Busting the cache before every period forces a fresh derivation
        # of psi / Hessian / constraint stack each time.
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        for k, cached_sol in enumerate(sols_cached):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            busted._cache = {}
            sol = busted.solve(
                t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0]
            )
            assert np.array_equal(sol.delta_c, cached_sol.delta_c)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + sol.delta_c, 0.2, 3.0), c_hist[0]]
            )

    def test_warm_start_hits_and_solution_parity(self):
        warm = self._controller(warm=True)
        cold = self._controller(warm=False)
        # Feed both controllers the SAME closed-loop trajectory (driven
        # by the cold solutions) so every period is a like-for-like
        # solve: identical solutions, not just similar cost, is the
        # acceptance bar for enabling warm starts by default.
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        warm_started_any = False
        for k in range(20):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            cs = cold.solve(t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0])
            ws = warm.solve(t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0])
            assert not cs.qp.warm_started
            warm_started_any = warm_started_any or ws.qp.warm_started
            assert ws.delta_c == pytest.approx(cs.delta_c, abs=1e-9)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + cs.delta_c, 0.2, 3.0), c_hist[0]]
            )
        assert warm_started_any
        assert warm.warm_hits > 0
        assert cold.warm_hits == 0

    def test_adopted_warm_state_survives_first_solve(self):
        donor = self._controller(warm=True)
        self._drive(donor, n=10)
        assert donor._warm_active  # non-empty working sets to hand over
        # The resume path: a fresh controller restored from a checkpoint
        # builds its matrix cache on its first solve, and that must not
        # discard the restored working sets.
        heir = self._controller(warm=True)
        heir.load_state_dict(donor.state_dict())
        assert not heir._cache
        sols = self._drive(heir, n=1)
        assert sols[0].qp.warm_started
        assert heir.warm_hits > donor.warm_hits


class TestPackingFastLane:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_slack_is_bruteforce_minimum_under_memory_constraint(self, data):
        # Sizes and capacities on a 1/64 grid: every subset sum is exact
        # in float64, so oracle and search agree on which subsets are
        # feasible whatever order either adds the items in.
        n = data.draw(st.integers(1, 12))
        sizes = [data.draw(st.integers(4, 128)) / 64 for _ in range(n)]
        mems = [128.0 * data.draw(st.integers(1, 16)) for _ in range(n)]
        capacity = data.draw(st.integers(16, 384)) / 64
        mem_cap = 128.0 * data.draw(st.integers(2, 64))
        res = minimum_bin_slack(
            sizes,
            capacity,
            memory_sizes=mems,
            memory_capacity=mem_cap,
            epsilon=0.0,
            max_steps=10**6,
        )
        assert res.steps < 10**6  # the step budget never bound
        best = capacity
        for mask in range(1 << n):
            picked = [i for i in range(n) if mask >> i & 1]
            if sum(mems[i] for i in picked) > mem_cap:
                continue
            total = sum(sizes[i] for i in picked)
            if total <= capacity:
                best = min(best, capacity - total)
        assert abs(res.slack - best) <= _FIT_TOL
        assert sum(mems[i] for i in res.selected) <= mem_cap
        assert capacity - sum(sizes[i] for i in res.selected) == res.slack

    def test_step_budget_escalation_boundary(self):
        # Escalation must fire after *exactly* max_steps evaluations:
        # epsilon_used == epsilon + epsilon_step * (steps // max_steps).
        sizes = list(np.linspace(0.31, 0.97, 12))
        res = minimum_bin_slack(
            sizes, 2.0001, epsilon=0.0, max_steps=7, epsilon_step=0.01
        )
        assert res.steps >= 7
        assert res.epsilon_used == pytest.approx(
            0.0 + 0.01 * (res.steps // 7)
        )

    def test_hard_step_cap_is_exact(self):
        sizes = [0.5] * 30
        res = minimum_bin_slack(
            sizes,
            7.77,  # unreachable exactly: search would run long
            epsilon=0.0,
            max_steps=10,
            epsilon_step=1e-12,  # escalations never unlock an early exit
            hard_step_cap=23,
        )
        assert res.steps == 23
