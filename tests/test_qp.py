"""Active-set QP solver, validated against SciPy on random problems and
field for field against the two-loop solvers it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.control import qp
from repro.control.qp import solve_qp, solve_qp_batch
from tests.oracles import qp_reference


def _scipy_reference(H, g, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    n = g.shape[0]
    cons = []
    if A_eq is not None:
        cons.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
    if A_ub is not None:
        cons.append(optimize.LinearConstraint(A_ub, -np.inf, b_ub))
    res = optimize.minimize(
        lambda x: 0.5 * x @ H @ x + g @ x,
        np.zeros(n),
        jac=lambda x: H @ x + g,
        constraints=cons,
        method="trust-constr",
        options={"maxiter": 3000, "gtol": 1e-10},
    )
    return res.x, res.fun


def _captured_degenerate(upper=-0.30000000000000004, lower=(0.7868089964998505, 0.8),
                         delta=0.3):
    """The softened MPC QP of ``TestDegenerate`` (period 1 of
    ``testbed-fleet``, seed 2010) as ``(H, g, A_ub, b_ub)``: per tier,
    the first move ``dc_0 <= upper`` and ``-dc_0 <= lower``, the same
    bounds on ``dc_0 + dc_1``, and every move within ``delta``."""
    H = np.array([
        [7.1806571790513813e08, 3.8220602664313716e08,
         7.1374317770709872e08, 3.8001110401419854e08],
        [3.8220602664313716e08, 2.0369411200276637e08,
         3.8001110401419854e08, 2.0232549141555703e08],
        [7.1374317770709872e08, 3.8001110401419854e08,
         7.0991444202685213e08, 3.7786612478154206e08],
        [3.8001110401419848e08, 2.0232549141555703e08,
         3.7786612478154206e08, 2.0138346168869105e08],
    ])
    g = np.array([1.319194542334485e09, 7.023656738062528e08,
                  1.311661765239606e09, 6.983549795174069e08])
    first = np.hstack([np.eye(2), np.zeros((2, 2))])
    both = np.hstack([np.eye(2), np.eye(2)])
    A_ub = np.vstack([first, -first, both, -both, np.eye(4), -np.eye(4)])
    bounds = [upper, upper, *lower]
    b_ub = np.array(bounds + bounds + [delta] * 8)
    return H, g, A_ub, b_ub


class TestUnconstrained:
    def test_quadratic_minimum(self):
        H = 2.0 * np.eye(2)
        g = np.array([-2.0, -4.0])
        r = solve_qp(H, g)
        assert r.ok
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(3), np.zeros(2))


class TestEquality:
    def test_projection_onto_plane(self):
        # min |x|^2 s.t. x0 + x1 = 2 -> (1, 1)
        r = solve_qp(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[2.0])
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-9)

    def test_multiple_equalities(self):
        H = 2 * np.eye(3)
        A = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        b = np.array([3.0, -1.0])
        r = solve_qp(H, np.zeros(3), A_eq=A, b_eq=b)
        np.testing.assert_allclose(r.x, [3.0, -1.0, 0.0], atol=1e-9)


class TestInequality:
    def test_active_inequality(self):
        # min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 <= 2 -> (0.5, 1.5)
        r = solve_qp(2 * np.eye(2), np.array([-2.0, -4.0]),
                     A_ub=[[1.0, 1.0]], b_ub=[2.0])
        np.testing.assert_allclose(r.x, [0.5, 1.5], atol=1e-8)
        assert r.active_set == (0,)

    def test_inactive_inequality_ignored(self):
        r = solve_qp(2 * np.eye(2), np.array([-2.0, -4.0]),
                     A_ub=[[1.0, 1.0]], b_ub=[100.0])
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-9)
        assert r.active_set == ()

    def test_box_constraints(self):
        # min (x-5)^2 s.t. x <= 1, -x <= 0
        r = solve_qp(np.array([[2.0]]), np.array([-10.0]),
                     A_ub=[[1.0], [-1.0]], b_ub=[1.0, 0.0])
        np.testing.assert_allclose(r.x, [1.0], atol=1e-9)

    def test_mixed_eq_and_ineq(self):
        # min |x|^2 s.t. x0 + x1 = 4, x0 <= 1 -> (1, 3)
        r = solve_qp(2 * np.eye(2), np.zeros(2),
                     A_eq=[[1.0, 1.0]], b_eq=[4.0],
                     A_ub=[[1.0, 0.0]], b_ub=[1.0])
        np.testing.assert_allclose(r.x, [1.0, 3.0], atol=1e-8)

    def test_constraint_add_then_drop(self):
        """A constraint activated early in the search must be dropped when
        its multiplier turns negative."""
        # min (x0-2)^2 + (x1-2)^2 s.t. x0 <= 1, x0 + x1 <= 10.
        r = solve_qp(2 * np.eye(2), np.array([-4.0, -4.0]),
                     A_ub=[[1.0, 0.0], [1.0, 1.0]], b_ub=[1.0, 10.0])
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-8)
        assert r.active_set == (0,)


class TestAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), m=st.integers(0, 8))
    def test_random_inequality_qps(self, data, n, m):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)  # well-conditioned SPD
        g = rng.normal(scale=3.0, size=n)
        A_ub = rng.normal(size=(m, n)) if m else None
        b_ub = rng.uniform(0.5, 3.0, size=m) if m else None  # x=0 feasible
        ours = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert ours.ok
        ref_x, ref_f = _scipy_reference(H, g, A_ub=A_ub, b_ub=b_ub)
        our_f = 0.5 * ours.x @ H @ ours.x + g @ ours.x
        assert our_f <= ref_f + 1e-5 * (1 + abs(ref_f))
        if A_ub is not None:
            assert np.max(A_ub @ ours.x - b_ub) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_random_equality_qps(self, data, n):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)
        g = rng.normal(size=n)
        A_eq = rng.normal(size=(1, n))
        b_eq = rng.normal(size=1)
        ours = solve_qp(H, g, A_eq=A_eq, b_eq=b_eq)
        assert ours.ok
        assert abs(A_eq @ ours.x - b_eq)[0] < 1e-7
        ref_x, ref_f = _scipy_reference(H, g, A_eq=A_eq, b_eq=b_eq)
        our_f = 0.5 * ours.x @ H @ ours.x + g @ ours.x
        assert our_f <= ref_f + 1e-5 * (1 + abs(ref_f))


class TestDegenerate:
    def test_infeasible_equalities_fall_back(self):
        # x = 1 and x = 2 simultaneously: infeasible.
        r = solve_qp(np.array([[2.0]]), np.zeros(1),
                     A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert r.status in ("infeasible", "fallback")

    @pytest.mark.xfail(
        strict=True,
        reason="degenerate vertex is feasible: expect optimal "
        "(pinned defect, docs/PERFORMANCE.md Caveats; the fix moves digests)",
    )
    def test_rate_limit_and_bound_active_on_the_same_variable(self):
        """A softened MPC QP captured from period 1 of ``testbed-fleet``
        (seed 2010): the allocation starts 0.3 GHz above ``c_max`` with
        ``delta_max = 0.3``, so ``dc_0 <= -0.3`` (bound) and
        ``-dc_0 <= 0.3`` (rate limit) are both active and linearly
        dependent.  ``dc_0 = -0.3, dc_1 <= 0`` is feasible, but the
        working set cycles for every round and SLSQP gives up, so the
        solver reports ``infeasible``."""
        H, g, A_ub, b_ub = _captured_degenerate()
        r = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert r.status == "optimal"
        assert np.max(A_ub @ r.x - b_ub) <= 1e-7

    def test_cycle_is_cut_after_a_handful_of_linear_solves(self, monkeypatch):
        """The captured instance repeats its working set from round 7 on;
        the loop jumps to round 200 instead of solving its KKT system
        194 more times, and hands the same iterate to SLSQP."""
        solves = []
        for name in ("solve", "lstsq"):
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, **kwargs):
                solves.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        H, g, A_ub, b_ub = _captured_degenerate()
        r = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert (r.status, r.iterations) == ("infeasible", 200)
        assert len(solves) <= 10

    @pytest.mark.parametrize("max_iter", [1, 4, 5, 6, 7, 8, 9, 200])
    def test_cycle_cut_by_any_max_iter_matches_the_reference(self, max_iter):
        H, g, A_ub, b_ub = _captured_degenerate()
        got, want = _with_hand_overs(
            lambda: solve_qp(H, g, A_ub=A_ub, b_ub=b_ub, max_iter=max_iter),
            lambda: qp_reference.solve_qp(H, g, A_ub=A_ub, b_ub=b_ub,
                                          max_iter=max_iter),
        )
        assert got == want

    # 1e-160 * x0 = 1 overflows the KKT solve to a NaN iterate, whose
    # residual compares False against every tolerance.
    _DENORMAL_EQ = dict(A_eq=np.array([[1e-160, 0.0]]), b_eq=np.array([1.0]))
    _BOX = dict(A_ub=np.vstack([np.eye(2), -np.eye(2)]), b_ub=np.full(4, 5.0))

    @pytest.mark.parametrize("box", [False, True])
    @pytest.mark.parametrize("warm_start", [None, [0]])
    def test_non_finite_iterate_is_never_ok(self, box, warm_start):
        r = solve_qp(np.eye(2), np.zeros(2), **self._DENORMAL_EQ,
                     **(self._BOX if box else {}), warm_start=warm_start)
        assert r.status == "infeasible"
        assert not r.ok

    @pytest.mark.parametrize("box", [False, True])
    def test_non_finite_iterate_is_never_ok_in_a_batch(self, box):
        box_kw = {}
        if box:
            box_kw = dict(A_ub=self._BOX["A_ub"],
                          b_ub_batch=np.tile(self._BOX["b_ub"], (3, 1)))
        results = solve_qp_batch(
            np.eye(2), np.zeros((3, 2)),
            A_eq=self._DENORMAL_EQ["A_eq"], b_eq_batch=np.ones((3, 1)),
            **box_kw,
        )
        assert [r.status for r in results] == ["infeasible"] * 3
        assert not any(r.ok for r in results)

    def test_redundant_constraints(self):
        # Same inequality twice must not confuse the working set.
        r = solve_qp(2 * np.eye(2), np.array([-4.0, -4.0]),
                     A_ub=[[1.0, 0.0], [1.0, 0.0]], b_ub=[1.0, 1.0])
        assert r.ok
        assert r.x[0] == pytest.approx(1.0, abs=1e-7)


@st.composite
def _qp_batches(draw):
    """B problems on one ``H``/``A_eq``/``A_ub`` whose working sets can
    go singular: duplicated and opposed inequality rows (tight, slack or
    crossed right-hand sides), seeds naming stale, repeated or
    out-of-range rows, and more seeded rows than variables."""
    B = draw(st.integers(1, 6))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = rng.normal(size=(n, n))
    H = L @ L.T + 0.5 * np.eye(n)
    g = rng.normal(scale=3.0, size=(B, n))
    n_eq = draw(st.integers(0, 1))
    A_eq = rng.normal(size=(n_eq, n))
    b_eq = rng.normal(scale=0.5, size=(B, n_eq))
    rows, rhs = [], []
    for kind in draw(st.lists(
        st.sampled_from(["box", "random", "duplicated", "opposed"]), max_size=4
    )):
        if kind == "box":
            rows += [np.eye(n), -np.eye(n)]
            rhs += [rng.uniform(0.1, 2.0, size=(B, 2 * n))]
        elif kind == "random":
            rows.append(rng.normal(size=(2, n)))
            rhs.append(rng.uniform(-0.5, 2.0, size=(B, 2)))
        else:
            r = rng.normal(size=(1, n))
            b = rng.uniform(-0.5, 1.0, size=(B, 1))
            gap = rng.choice([0.0, 0.0, 0.5, -0.5], size=(B, 1))
            if kind == "duplicated":
                rows += [r, r]
                rhs += [b, b + gap]
            else:  # r x <= b and r x >= b - gap: a face, a slab or empty
                rows += [r, -r]
                rhs += [b, gap - b]
    A_ub = np.vstack(rows) if rows else np.zeros((0, n))
    b_ub = np.hstack(rhs) if rhs else np.zeros((B, 0))
    n_ub = A_ub.shape[0]
    seed = st.lists(st.integers(-2, n_ub + 1), max_size=2 * n + 2)
    shared = draw(seed)  # one seed for several members, as in an MPC fleet
    seeds = [
        draw(st.sampled_from([None, shared, shared, draw(seed)])) for _ in range(B)
    ]
    known = draw(st.lists(st.booleans(), min_size=B, max_size=B))
    return H, g, A_eq, b_eq, A_ub, b_ub, seeds, known


def _fields(r):
    x = None if r.x is None else r.x.tobytes()
    return (x, r.status, r.iterations, r.active_set, r.warm_started)


class TestOneLoopMatchesReference:
    """``solve_qp_batch`` is one working-set loop for every problem, and
    ``solve_qp`` its batch of one; ``tests/oracles/qp_reference.py``
    keeps the scalar loop and the lock-step copy it replaced.  A batch
    of one unmarked problem must be the old ``solve_qp`` (it goes on in
    least squares on a singular KKT); any other batch the old
    ``solve_qp_batch`` (whose problems leaving the lock step were
    finished by the old ``solve_qp``, cold) — every field, ``x`` to the
    bit."""

    @settings(max_examples=150, deadline=None)
    @given(problem=_qp_batches())
    def test_every_field_equals_the_reference(self, problem):
        H, g, A_eq, b_eq, A_ub, b_ub, seeds, known = problem
        got = solve_qp_batch(
            H, g, A_eq, b_eq, A_ub, b_ub,
            warm_starts=seeds, known_infeasible=known,
        )
        if len(g) == 1 and not known[0]:
            want = [qp_reference.solve_qp(
                H, g[0], A_eq, b_eq[0], A_ub, b_ub[0], warm_start=seeds[0]
            )]
            one = solve_qp(H, g[0], A_eq, b_eq[0], A_ub, b_ub[0], warm_start=seeds[0])
            assert _fields(one) == _fields(want[0])
        else:
            want = qp_reference.solve_qp_batch(
                H, g, A_eq, b_eq, A_ub, b_ub,
                warm_starts=seeds, known_infeasible=known,
            )
        assert [_fields(r) for r in got] == [_fields(r) for r in want]


_FALLBACK = qp._scipy_fallback


def _with_hand_overs(ours, reference):
    """Run both solves with ``_scipy_fallback`` recording what it is
    handed; returns ``(results, sorted hand-overs)`` for each side.
    Hand-overs are sorted because the reference finishes a problem that
    leaves the lock step before the next one starts, while the one loop
    runs them side by side."""

    def recording(calls):
        def fallback(H, g, A_eq, b_eq, A_ub, b_ub, x0, iterations, warm_started=False):
            calls.append((b"" if x0 is None else x0.tobytes(), iterations))
            return _FALLBACK(H, g, A_eq, b_eq, A_ub, b_ub, x0, iterations, warm_started)
        return fallback

    sides = []
    for module, solve in ((qp, ours), (qp_reference, reference)):
        calls = []
        with mock.patch.object(module, "_scipy_fallback", recording(calls)):
            results = solve()
        if not isinstance(results, list):
            results = [results]
        sides.append(([_fields(r) for r in results], sorted(calls)))
    return sides


@st.composite
def _cycling_qps(draw):
    """Problems whose solo working set repeats before ``max_iter``:

    * the captured degenerate instance with ``g``, the rate limit and the
      bounds perturbed (a first-move bound beyond the rate limit makes
      the pair contradict; the working set still cycles);
    * a bound row and a rate-limit row on one variable of a random,
      badly scaled QP;
    * duplicated or opposed rows on a badly scaled QP, B = 1.

    With B > 1 the members share a singular KKT and leave the lock step
    to cycle solo; warm seeds are drawn from the rows, so some are
    discarded on the first round and some cycle through the warm budget
    before going cold in round 31."""
    kind = draw(st.sampled_from(["captured", "bound_and_rate", "duplicated_or_opposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = 1 if kind == "duplicated_or_opposed" else draw(st.integers(1, 3))
    if kind == "captured":
        H, g, A_ub, _ = _captured_degenerate()
        g = g * (1 + rng.uniform(-0.2, 0.2, size=(B, 4)))
        delta = rng.choice([0.05, 0.3, 0.5])
        b_ub = np.array([
            _captured_degenerate(
                -(delta + rng.choice([0.0, 1e-3, -1e-3, 0.1])),
                tuple(rng.uniform(0.5, 1.0, size=2)), delta,
            )[3]
            for _ in range(B)
        ])
    else:
        n = int(rng.integers(2, 5))
        L = rng.normal(size=(n, n))
        H = (L @ L.T + 0.01 * np.eye(n)) * 10.0 ** rng.integers(0, 10)
        x_free = rng.normal(scale=3.0, size=(B, n))  # unconstrained optima
        g = -x_free @ H
        if kind == "bound_and_rate":
            j = int(rng.integers(n))
            delta = rng.uniform(0.1, 0.5)
            x_free[:, j] = np.abs(x_free[:, j]) + delta  # pulls past the bound
            g = -x_free @ H
            e = np.eye(n)[j : j + 1]
            ones = np.ones((1, n))
            A_ub = np.vstack([e, -e, np.eye(n), -np.eye(n), ones, -ones])
            bound = -(delta + rng.choice([0.0, 1e-3, 0.1]))
            b_ub = np.tile(
                np.hstack([bound, delta, np.full(2 * n, delta),
                           np.full(2, rng.uniform(0.5, 2.0))]),
                (B, 1),
            )
        else:
            rows, rhs = [], []
            for _ in range(rng.integers(1, 4)):
                r = rng.normal(size=(1, n))
                b = (r @ x_free[0])[0] - rng.uniform(0.1, 1.0)  # cuts x_free off
                if rng.random() < 0.5:
                    rows += [r, r]
                    rhs += [b, b + rng.choice([0.0, 0.0, 1e-9])]
                else:
                    rows += [r, -r]
                    rhs += [b, -b + rng.choice([0.0, 0.0, 1e-9, -1e-9])]
            if rng.random() < 0.5:
                rows += [np.eye(n), -np.eye(n)]
                rhs += [rng.uniform(0.5, 3.0)] * (2 * n)
            A_ub, b_ub = np.vstack(rows), np.array([rhs])
    n_ub = A_ub.shape[0]
    seeds = [
        draw(st.one_of(st.none(), st.lists(st.integers(0, n_ub - 1), min_size=1,
                                           max_size=A_ub.shape[1] + 2)))
        for _ in range(B)
    ]
    known = [B > 1 and draw(st.booleans()) for _ in range(B)]
    max_iter = draw(st.one_of(st.just(200), st.integers(1, 60)))
    return H, g, A_ub, b_ub, seeds, known, max_iter


class TestSoloCyclesMatchReference:
    """A solo cold round is a pure function of its working set, so once
    a set repeats, the loop skips to the iterate round ``max_iter`` would
    have had.  Every ``QPResult`` field and every hand-over to SLSQP
    (iterate bytes, iteration count) must equal the reference loops,
    which run every round."""

    @settings(max_examples=120, deadline=None)
    @given(problem=_cycling_qps())
    def test_hand_overs_and_fields_equal_the_reference(self, problem):
        H, g, A_ub, b_ub, seeds, known, max_iter = problem
        if len(g) == 1 and not known[0]:
            got, want = _with_hand_overs(
                lambda: solve_qp(H, g[0], A_ub=A_ub, b_ub=b_ub[0],
                                 max_iter=max_iter, warm_start=seeds[0]),
                lambda: qp_reference.solve_qp(H, g[0], A_ub=A_ub, b_ub=b_ub[0],
                                              max_iter=max_iter, warm_start=seeds[0]),
            )
        else:
            kwargs = dict(A_ub=A_ub, b_ub_batch=b_ub, max_iter=max_iter,
                          warm_starts=seeds, known_infeasible=known)
            got, want = _with_hand_overs(
                lambda: solve_qp_batch(H, g, **kwargs),
                lambda: qp_reference.solve_qp_batch(H, g, **kwargs),
            )
        assert got == want
