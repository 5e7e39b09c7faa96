"""Batched control kernel: stacked QP and fleet MPC.

Lock-step groups of two or more are documented as *allclose*-equivalent
to separate solves (multi-RHS LAPACK reorders floating-point sums) and
a group of one as bitwise, so every test here compares against
``solve_qp`` / ``MPCController.solve`` on the same inputs rather than
against golden numbers.
"""

import numpy as np
import pytest

from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController, solve_mpc_batch
from repro.control.qp import solve_qp, solve_qp_batch


def _spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestSolveQpBatch:
    def test_matches_scalar_across_constraint_patterns(self):
        rng = np.random.default_rng(0)
        n, B = 6, 25
        for trial in range(8):
            H = _spd(rng, n)
            A_eq = rng.normal(size=(1, n))
            A_ub = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(3, n))])
            g = 3.0 * rng.normal(size=(B, n))
            b_eq = 0.2 * rng.normal(size=(B, 1))
            b_ub = np.abs(rng.normal(size=(B, A_ub.shape[0]))) + 0.1
            batch = solve_qp_batch(H, g, A_eq, b_eq, A_ub, b_ub)
            for i in range(B):
                ref = solve_qp(H, g[i], A_eq, b_eq[i], A_ub, b_ub[i])
                assert batch[i].ok == ref.ok
                if ref.ok:
                    np.testing.assert_allclose(batch[i].x, ref.x, atol=1e-7)

    def test_inequality_only_and_unconstrained(self):
        rng = np.random.default_rng(1)
        n, B = 4, 10
        H = _spd(rng, n)
        g = rng.normal(size=(B, n))
        # Unconstrained: x = -H^-1 g.
        for i, res in enumerate(solve_qp_batch(H, g)):
            np.testing.assert_allclose(res.x, np.linalg.solve(H, -g[i]), atol=1e-9)
        A_ub = np.vstack([np.eye(n), -np.eye(n)])
        b_ub = np.abs(rng.normal(size=(B, 2 * n))) + 0.05
        for i, res in enumerate(solve_qp_batch(H, g, A_ub=A_ub, b_ub_batch=b_ub)):
            ref = solve_qp(H, g[i], A_ub=A_ub, b_ub=b_ub[i])
            np.testing.assert_allclose(res.x, ref.x, atol=1e-7)

    def test_warm_starts_reach_same_optimum(self):
        rng = np.random.default_rng(2)
        n, B = 5, 20
        H = _spd(rng, n)
        A_ub = np.vstack([np.eye(n), -np.eye(n)])
        g = 3.0 * rng.normal(size=(B, n))
        b_ub = np.abs(rng.normal(size=(B, 2 * n))) + 0.05
        cold = solve_qp_batch(H, g, A_ub=A_ub, b_ub_batch=b_ub)
        warm = solve_qp_batch(
            H, g, A_ub=A_ub, b_ub_batch=b_ub,
            warm_starts=[r.active_set for r in cold],
        )
        for c, w in zip(cold, warm):
            np.testing.assert_allclose(w.x, c.x, atol=1e-7)
            assert w.warm_started or not c.active_set

    def test_shape_validation(self):
        H = np.eye(3)
        g = np.zeros((4, 3))
        with pytest.raises(ValueError):
            solve_qp_batch(np.eye(2), g)
        with pytest.raises(ValueError):
            solve_qp_batch(H, g, A_eq=np.ones((1, 3)), b_eq_batch=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            solve_qp_batch(H, g, A_ub=np.ones((2, 3)), b_ub_batch=np.zeros((4, 3)))
        with pytest.raises(ValueError):
            solve_qp_batch(H, g, warm_starts=[None])
        with pytest.raises(ValueError):
            solve_qp_batch(H, g, known_infeasible=[True])

    @staticmethod
    def _half_infeasible(B=10):
        """Box-bounded QPs with one equality row; odd members ask for a
        row sum no point of the box attains (they cycle for every round
        and then fail SLSQP), even members for one well inside it."""
        rng = np.random.default_rng(4)
        n = 4
        H = _spd(rng, n)
        A_eq = np.ones((1, n))
        A_ub = np.vstack([np.eye(n), -np.eye(n)])
        g = rng.normal(size=(B, n))
        b_ub = np.ones((B, 2 * n))
        b_eq = np.where(np.arange(B)[:, None] % 2, 50.0, rng.uniform(-1, 1, (B, 1)))
        mask = [bool(i % 2) for i in range(B)]
        return dict(H=H, g_batch=g, A_eq=A_eq, b_eq_batch=b_eq,
                    A_ub=A_ub, b_ub_batch=b_ub), mask

    def test_known_infeasible_members_cost_no_solve(self, monkeypatch):
        problem, mask = self._half_infeasible()
        calls = {"n": 0}
        lapack_solve = np.linalg.solve

        def counting(a, b):
            calls["n"] += 1
            return lapack_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        plain = solve_qp_batch(**problem)
        plain_calls, calls["n"] = calls["n"], 0
        masked = solve_qp_batch(**problem, known_infeasible=mask)
        masked_calls = calls["n"]

        for known, p, r in zip(mask, plain, masked):
            if known:
                assert not p.ok  # the mask told the truth
                assert r.x is None and r.status == "infeasible"
                assert not r.warm_started and r.active_set == ()
            else:
                assert r.status == p.status == "optimal"
                assert np.array_equal(r.x, p.x)
                assert (r.iterations, r.active_set) == (p.iterations, p.active_set)
        # Unmasked, every infeasible member cycles through all 200
        # rounds twice; masked, the rounds end with the last feasible one.
        assert plain_calls > 400
        assert masked_calls <= max(p.iterations for p in plain if p.ok) * len(mask)

    def test_all_members_known_infeasible_runs_no_round(self, monkeypatch):
        problem, mask = self._half_infeasible()
        monkeypatch.setattr(
            np.linalg, "solve",
            lambda a, b: pytest.fail("a round ran with nothing left to decide"),
        )
        for r in solve_qp_batch(**problem, known_infeasible=[True] * len(mask)):
            assert r.x is None and r.status == "infeasible"


def _mpc_requests(rng, n, m=3):
    reqs = []
    for _ in range(n):
        t_now = 600.0 + 40.0 * rng.normal()
        reqs.append(
            dict(
                t_hist=[t_now, 600.0],
                c_hist=np.vstack([np.full(m, 0.7)] * 2),
                reference=np.full(8, 600.0),
                setpoint=600.0,
                c_min=[0.2] * m,
                c_max=[3.0] * m,
            )
        )
    return reqs


class TestSolveMpcBatch:
    MODEL = ARXModel(
        a=[0.4], b=[[-800.0, -300.0, -500.0], [-100.0, -50.0, -80.0]], g=1800.0
    )
    CFG = MPCConfig(
        prediction_horizon=8, control_horizon=2, r_weight=1e3, delta_max=0.5
    )

    def test_matches_sequential_solves_and_counters(self):
        rng = np.random.default_rng(7)
        B = 20
        seq = [MPCController(self.MODEL, self.CFG) for _ in range(B)]
        bat = [MPCController(self.MODEL, self.CFG) for _ in range(B)]
        for _ in range(3):  # cold period then warm periods
            reqs = _mpc_requests(rng, B)
            want = [c.solve(**r) for c, r in zip(seq, reqs)]
            got = solve_mpc_batch(bat, reqs)
            for w, g in zip(want, got):
                np.testing.assert_allclose(g.delta_c, w.delta_c, atol=1e-6)
                assert g.terminal_softened == w.terminal_softened
        assert [c.solves for c in seq] == [c.solves for c in bat]
        assert [c.warm_hits for c in seq] == [c.warm_hits for c in bat]

    def test_mixed_models_group_independently(self):
        rng = np.random.default_rng(8)
        other = ARXModel(
            a=[0.3], b=[[-600.0, -250.0, -400.0], [-80.0, -40.0, -60.0]], g=1500.0
        )
        ctrls = [
            MPCController(self.MODEL if i % 2 else other, self.CFG)
            for i in range(10)
        ]
        refs = [
            MPCController(self.MODEL if i % 2 else other, self.CFG)
            for i in range(10)
        ]
        reqs = _mpc_requests(rng, 10)
        got = solve_mpc_batch(ctrls, reqs)
        for ref, req, g in zip(refs, reqs, got):
            np.testing.assert_allclose(
                g.delta_c, ref.solve(**req).delta_c, atol=1e-6
            )

    def test_softened_member_matches_scalar(self):
        # A tiny rate limit makes the terminal equality unreachable, so
        # every member takes the softening branch.
        cfg = MPCConfig(
            prediction_horizon=8, control_horizon=2, r_weight=1e3, delta_max=1e-4
        )
        rng = np.random.default_rng(9)
        B = 4
        seq = [MPCController(self.MODEL, cfg) for _ in range(B)]
        bat = [MPCController(self.MODEL, cfg) for _ in range(B)]
        reqs = _mpc_requests(rng, B)
        for r in reqs:
            r["t_hist"] = [1500.0, 1500.0]  # far from the set point
        want = [c.solve(**r) for c, r in zip(seq, reqs)]
        got = solve_mpc_batch(bat, reqs)
        assert all(w.terminal_softened for w in want)
        for w, g in zip(want, got):
            assert g.terminal_softened
            np.testing.assert_allclose(g.delta_c, w.delta_c, atol=1e-6)

    def test_singletons_and_non_terminal_members_are_bitwise_solve(self):
        """Every group takes the path ``MPCController.solve`` takes for
        one controller, so a member alone in its group — tracking or
        softened by the certificate — and a member without a terminal
        constraint (its one QP is solved alone) get bitwise the solution
        and counters of ``solve`` on a twin controller, cold and warm;
        the shared-model group around them stays allclose."""
        other = ARXModel(
            a=[0.3], b=[[-600.0, -250.0, -400.0], [-80.0, -40.0, -60.0]], g=1500.0
        )
        third = ARXModel(
            a=[0.5], b=[[-900.0, -200.0, -450.0], [-90.0, -30.0, -70.0]], g=2000.0
        )
        tight = MPCConfig(
            prediction_horizon=8, control_horizon=2, r_weight=1e3, delta_max=1e-4
        )
        free = MPCConfig(
            prediction_horizon=8, control_horizon=2, r_weight=1e3, delta_max=0.5,
            terminal_constraint=False,
        )
        specs = (
            [(self.MODEL, self.CFG)] * 3  # one shared-model group
            + [(other, self.CFG), (third, tight)]  # two singletons
            + [(self.MODEL, free)] * 2  # no terminal constraint
        )
        alone = [False] * 3 + [True] * 4
        bat = [MPCController(m, c) for m, c in specs]
        twins = [MPCController(m, c) for m, c in specs]

        def bits(sol):
            qp = sol.qp
            return (
                sol.delta_c.tobytes(), sol.input_trajectory.tobytes(),
                sol.predicted_outputs.tobytes(), qp.x.tobytes(), qp.status,
                qp.iterations, qp.active_set, qp.warm_started,
                sol.terminal_softened, sol.terminal_unreachable,
            )

        rng = np.random.default_rng(10)
        unreachable = 0
        for period in range(4):  # a cold period, then warm ones
            reqs = _mpc_requests(rng, len(specs))
            reqs[4]["t_hist"] = [1500.0, 1500.0]  # out of reach under `tight`
            stats = {}
            got = solve_mpc_batch(bat, reqs, stats=stats)
            assert stats["groups"] == [3, 2, 1, 1]
            unreachable += stats["unreachable"]
            for i, (twin, req, g) in enumerate(zip(twins, reqs, got)):
                want = twin.solve(**req)
                if alone[i]:
                    assert bits(g) == bits(want)
                else:
                    np.testing.assert_allclose(g.delta_c, want.delta_c, atol=1e-6)
        assert unreachable == 4  # the tight singleton, every period
        assert sum(c.warm_hits for c in bat) > 0
        for b, t in zip(bat, twins):
            assert (b.solves, b.warm_hits) == (t.solves, t.warm_hits)
            assert b._warm_active == t._warm_active

    def test_length_mismatch_rejected(self):
        ctrl = MPCController(self.MODEL, self.CFG)
        with pytest.raises(ValueError):
            solve_mpc_batch([ctrl], [])

