"""Dense convex quadratic programming by the active-set method.

Solves ``min 0.5 x'Hx + g'x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub`` for
small dense problems — exactly the shape the MPC controller produces
every control period (a handful of decision variables, a few dozen
constraints).  The implementation is the classic working-set scheme:

1. solve the equality-constrained KKT system for the current working set;
2. if an inactive inequality is violated, add the most violated one;
3. if an active inequality has a negative multiplier, drop the most
   negative one;
4. repeat until primal feasible with non-negative multipliers.

The iteration is written once, in :func:`solve_qp_batch`, for B problems
that share ``H``, ``A_eq`` and ``A_ub`` (a fleet of controllers on one
model); :func:`solve_qp` is its batch of one.

``H`` must be positive definite on the feasible set (the MPC cost has a
strictly positive control penalty ``R``, which guarantees this).  The
solver is validated against ``scipy.optimize`` in the test suite and
falls back to SciPy's SLSQP automatically if the active-set loop fails
to settle; that hand-over is the module's only SciPy use, and it
imports SciPy on first call, so importing this module loads none.

On a degenerate working set (two dependent rows active, as at the
``testbed-fleet`` period-1 vertex) the loop can cycle between working
sets until ``max_iter``.  A solo cold round is a pure function of its
ordered working set, so the first repeated set decides every later
round: the loop jumps to round ``max_iter`` and hands SLSQP the iterate
that round would have had — the same result, bit for bit, without
re-solving the cycle's KKT systems.  The jump goes when a
degeneracy-safe working set retires ``_scipy_fallback``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["QPResult", "solve_qp", "solve_qp_batch"]

#: Iterations a warm-started attempt may spend before the seed is
#: declared unhelpful and the working set restarts from empty.  A good
#: seed terminates in a handful of iterations; a bad one can cycle for
#: the whole budget, so without this cap a warm solve could cost *more*
#: than a cold one (bad seed burns max_iter, then the cold retry pays
#: full price again).
_WARM_ITER_BUDGET = 30


@dataclass(frozen=True)
class QPResult:
    """Outcome of a QP solve.

    ``status`` is ``"optimal"``, ``"fallback"`` (SciPy finished the job),
    or ``"infeasible"``.  ``x`` is ``None`` only when infeasible.
    ``active_set`` is the final working set of inequality indices — feed
    it back as ``warm_start`` on the next structurally-identical solve;
    ``warm_started`` reports whether this solve was seeded that way.
    """

    x: Optional[np.ndarray]
    status: str
    iterations: int
    active_set: Tuple[int, ...]
    warm_started: bool = False

    @property
    def ok(self) -> bool:
        """True when a solution was produced."""
        return self.x is not None


def _off_equalities(x: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray) -> bool:
    """True when iterate *x* may not be reported as a solution: it is
    non-finite (an overflowing KKT solve, whose NaN residual would
    compare False against the tolerance) or misses an equality row by
    more than 1e-6."""
    if not np.isfinite(x).all():
        return True
    return bool(A_eq.shape[0]) and bool(np.max(np.abs(A_eq @ x - b_eq)) > 1e-6)


def _scipy_fallback(
    H: np.ndarray,
    g: np.ndarray,
    A_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    A_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    x0: Optional[np.ndarray],
    iterations: int,
    warm_started: bool = False,
) -> QPResult:
    """Solve with SciPy SLSQP; used when the active-set loop stalls.

    SciPy is imported here, not at module level: a run whose QPs all
    settle in the active-set loop (every large-scale run, which has no
    MPC at all) never loads it.
    """
    from scipy import optimize

    n = H.shape[0]
    if x0 is None:
        x0 = np.zeros(n)
    constraints = []
    if A_eq is not None and A_eq.shape[0]:
        constraints.append(
            {"type": "eq", "fun": lambda x, A=A_eq, b=b_eq: A @ x - b}
        )
    if A_ub is not None and A_ub.shape[0]:
        constraints.append(
            {"type": "ineq", "fun": lambda x, A=A_ub, b=b_ub: b - A @ x}
        )
    res = optimize.minimize(
        lambda x: 0.5 * x @ H @ x + g @ x,
        x0,
        jac=lambda x: H @ x + g,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    x = np.asarray(res.x, dtype=float)
    if not res.success or not np.isfinite(x).all():
        return QPResult(None, "infeasible", iterations, (), warm_started)
    return QPResult(x, "fallback", iterations, (), warm_started)


def solve_qp(
    H: np.ndarray,
    g: np.ndarray,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    warm_start: Optional[Sequence[int]] = None,
) -> QPResult:
    """Solve a dense convex QP (see module docstring for the form).

    Parameters are NumPy arrays; ``A_eq``/``A_ub`` may be ``None`` or
    empty.  Returns a :class:`QPResult`; check ``result.ok`` before using
    ``result.x``.

    ``warm_start`` seeds the initial working set with inequality indices
    from a previous solve of a structurally similar problem (typically
    ``QPResult.active_set`` of the last control period).  When the
    optimal active set barely changes between periods — the common case
    for receding-horizon MPC — the solver terminates in one or two
    iterations instead of rebuilding the working set from empty.  Out of
    range indices are ignored; the result is the same optimum either
    way, only reached faster.

    This is :func:`solve_qp_batch` with B = 1.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"g must be 1-D, got shape {g.shape}")
    # A missing right-hand side is empty, not zero, so it must match an
    # empty constraint block (a batch would fill in zeros).
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    return solve_qp_batch(
        H, g[None], A_eq, b_eq[None], A_ub, b_ub[None], max_iter, tol, [warm_start]
    )[0]


def solve_qp_batch(
    H: np.ndarray,
    g_batch: np.ndarray,
    A_eq: Optional[np.ndarray] = None,
    b_eq_batch: Optional[np.ndarray] = None,
    A_ub: Optional[np.ndarray] = None,
    b_ub_batch: Optional[np.ndarray] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    warm_starts: Optional[Sequence[Optional[Sequence[int]]]] = None,
    known_infeasible: Optional[Sequence[bool]] = None,
) -> List[QPResult]:
    """Solve B convex QPs sharing ``H``/``A_eq``/``A_ub`` in lock step.

    For fleets of structurally identical controllers (same model
    horizon, same constraint geometry) whose per-period data differ only
    in the linear term ``g`` and the right-hand sides: ``g_batch`` is
    ``(B, n)``, ``b_eq_batch`` is ``(B, n_eq)``, ``b_ub_batch`` is
    ``(B, n_ub)``; ``warm_starts[i]`` seeds problem ``i`` as
    ``warm_start`` does in :func:`solve_qp`.

    Each active-set round groups the pending problems by their current
    working set; every group shares one KKT matrix, so its members are
    solved with a single stacked-RHS ``np.linalg.solve`` instead of B
    separate factorizations.  Each problem keeps its own working set,
    warm flag and iteration count.

    A problem is *solo* when B = 1, or once it has left the lock step;
    a solo problem always forms a one-column group of its own.  On a
    singular KKT matrix a solo problem continues from the least-squares
    iterate; when its iterate cannot be reported (an equality missed, a
    warm working-set row violated) or its ``max_iter`` rounds run out, a
    warm problem restarts cold with a fresh iteration count and a cold
    one goes to SciPy SLSQP (at once, with the iterate of round
    ``max_iter``, when a cold working set repeats: see the module
    docstring).  A problem in the lock step leaves it on
    any of those events, or on a singular group KKT: it restarts solo
    and cold, so batch results carry the same status semantics as
    :func:`solve_qp`.

    ``known_infeasible`` marks problems the caller has already proved
    infeasible (length B; the MPC's terminal-reachability certificate).
    A marked problem costs no solver time of its own: where an unmarked
    one would restart solo it comes back ``infeasible`` with
    ``x is None``, and it is dropped as soon as only marked problems are
    left in the lock step.  Until then it keeps its column in the
    stacked right-hand sides, because LAPACK's solve depends on the
    column count: ``solve(A, B[:, :1])`` and ``solve(A, B)[:, :1]``
    differ in the last bits (a lone column takes the single-RHS path;
    ~190 of 200 random 5x5 to 9x9 systems), so dropping marked columns
    would move the iterate of an unmarked problem left alone in its
    group.  The unmarked problems' results are therefore bitwise those
    of the call without the mask.

    Equivalence: LAPACK's multi-RHS solve is *allclose* to, but not
    bit-identical with, a sequence of single-RHS solves, so a problem
    in a lock-step group of two or more may end a few ulps away from
    its :func:`solve_qp` result.  Solo problems are bitwise
    :func:`solve_qp`.
    """
    H = np.asarray(H, dtype=float)
    g_batch = np.atleast_2d(np.asarray(g_batch, dtype=float))
    B, n = g_batch.shape
    if H.shape != (n, n):
        raise ValueError(f"H must be {n}x{n}, got {H.shape}")
    H = 0.5 * (H + H.T)  # symmetrize against numerical asymmetry

    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    if A_eq.shape[1] != n or A_ub.shape[1] != n:
        raise ValueError(
            f"A_eq {A_eq.shape} and A_ub {A_ub.shape} must have n={n} columns"
        )
    n_eq = A_eq.shape[0]
    n_ub = A_ub.shape[0]
    if b_eq_batch is None:
        b_eq_batch = np.zeros((B, n_eq))
    b_eq_batch = np.atleast_2d(np.asarray(b_eq_batch, dtype=float))
    if b_ub_batch is None:
        b_ub_batch = np.zeros((B, n_ub))
    b_ub_batch = np.atleast_2d(np.asarray(b_ub_batch, dtype=float))
    if b_eq_batch.shape != (B, n_eq):
        raise ValueError(
            f"b_eq_batch must be ({B}, {n_eq}), got {b_eq_batch.shape}"
        )
    if b_ub_batch.shape != (B, n_ub):
        raise ValueError(
            f"b_ub_batch must be ({B}, {n_ub}), got {b_ub_batch.shape}"
        )
    if warm_starts is not None and len(warm_starts) != B:
        raise ValueError(f"warm_starts must have length {B}, got {len(warm_starts)}")
    known = [False] * B if known_infeasible is None else list(known_infeasible)
    if len(known) != B:
        raise ValueError(f"known_infeasible must have length {B}, got {len(known)}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    results: List[Optional[QPResult]] = [None] * B
    # Per-problem solver state.
    actives: List[List[int]] = []
    for i in range(B):
        active: List[int] = []
        seed = warm_starts[i] if warm_starts is not None else None
        if seed is not None:
            seen = set()
            for idx in seed:
                idx = int(idx)
                if 0 <= idx < n_ub and idx not in seen:
                    seen.add(idx)
                    active.append(idx)
        actives.append(active)
    warm = [bool(active) for active in actives]
    solo = [B == 1 and not k for k in known]  # a marked problem never runs solo
    iters = [0] * B
    xs: List[Optional[np.ndarray]] = [None] * B
    # Per solo cold problem: the round each working set was first seen
    # in, and the iterate of every round (keyed by round: a warm problem
    # can go cold in round 2 or 31 without resetting ``iters``).
    first_seen: List[Dict[Tuple[int, ...], int]] = [{} for _ in range(B)]
    path: List[Dict[int, np.ndarray]] = [{} for _ in range(B)]

    def leave(i: int) -> bool:
        """Problem ``i``'s iterate cannot be reported, or its rounds ran
        out: finish it, or restart it solo and cold (True: still pending)."""
        if solo[i] and not warm[i]:
            results[i] = _scipy_fallback(
                H, g_batch[i], A_eq, b_eq_batch[i], A_ub, b_ub_batch[i],
                xs[i], iters[i],
            )
            return False
        if known[i]:
            results[i] = QPResult(None, "infeasible", iters[i], ())
            return False
        solo[i] = True
        warm[i] = False
        actives[i] = []
        iters[i] = 0
        return True

    neg_g = -g_batch
    marked = any(known)
    pending = list(range(B))
    while pending:
        # Marked problems leave once no unmarked one is left in the lock step.
        only_marked = marked and all(known[i] or solo[i] for i in pending)
        groups: dict = {}
        for i in pending:
            iters[i] += 1
            if only_marked and known[i]:
                results[i] = QPResult(None, "infeasible", iters[i], ())
                continue
            if warm[i] and iters[i] > _WARM_ITER_BUDGET:
                # The seed did not lead to quick convergence — from here on
                # this is a plain cold solve from the empty working set.
                warm[i] = False
                actives[i] = []
            key = tuple(actives[i])
            if solo[i] and not warm[i]:
                # A solo cold round is a pure function of its working set,
                # so a repeated set repeats every round after it until
                # max_iter: hand over the iterate that round would have.
                r0 = first_seen[i].setdefault(key, iters[i])
                if r0 < iters[i]:
                    xs[i] = path[i][r0 + (max_iter - r0) % (iters[i] - r0)]
                    iters[i] = max_iter
                    leave(i)
                    continue
            groups.setdefault((key, i if solo[i] else -1), []).append(i)
        next_pending: List[int] = []
        for (key, _), members in groups.items():
            active = list(key)
            m = n_eq + len(active)
            rhs = np.empty((n + m, len(members)))
            for col, i in enumerate(members):
                rhs[:n, col] = neg_g[i]
                if n_eq:
                    rhs[n : n + n_eq, col] = b_eq_batch[i]
                if active:
                    rhs[n + n_eq :, col] = b_ub_batch[i][active]
            if m:
                C = np.vstack([A_eq, A_ub[active]])
                kkt = np.zeros((n + m, n + m))
                kkt[:n, :n] = H
                kkt[:n, n:] = C.T
                kkt[n:, :n] = C
            else:
                kkt = H
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                if not solo[members[0]]:
                    next_pending.extend(i for i in members if leave(i))
                    continue
                # Degenerate working set: go on from the least-squares
                # iterate (seed verification and the warm row check
                # below catch the rows it leaves unmet).
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            for col, i in enumerate(members):
                x = sol[:n, col]
                nu = sol[n:, col]
                xs[i] = x
                if solo[i] and not warm[i]:
                    path[i][iters[i]] = x
                b_eq = b_eq_batch[i]
                b_ub = b_ub_batch[i]
                act = actives[i]

                # A stale warm-start seed can be inconsistent under the
                # current rhs (the KKT solve then degrades to least
                # squares, leaving working-set rows unsatisfied while the
                # feasibility mask below would treat them as enforced).
                # Verify the seed once, on the first iterate; if any
                # seeded row is not actually met, discard the whole seed
                # and restart cold — never cheaper to repair a bad guess
                # row by row.
                if warm[i] and iters[i] == 1:
                    bad_eq = n_eq and np.max(np.abs(A_eq @ x - b_eq)) > 1e-6
                    bad_ub = (
                        act and np.max(np.abs(A_ub[act] @ x - b_ub[act])) > 1e-6
                    )
                    if bad_eq or bad_ub:
                        warm[i] = False  # seed discarded: a cold solve now
                        actives[i] = []
                        next_pending.append(i)
                        continue

                # Drop an active inequality whose multiplier went negative.
                if act:
                    ineq_mult = nu[n_eq:]
                    worst = int(np.argmin(ineq_mult))
                    if ineq_mult[worst] < -tol:
                        act.pop(worst)
                        next_pending.append(i)
                        continue

                # Add the most violated inactive inequality.
                if n_ub:
                    resid = A_ub @ x - b_ub
                    resid[act] = -np.inf  # already enforced
                    worst = int(np.argmax(resid))
                    if resid[worst] > tol:
                        act.append(worst)
                        next_pending.append(i)
                        continue

                # Verify equality feasibility (catches inconsistent A_eq)
                # and, on a warm path, the working-set rows: a seed can
                # steer the iteration through a degenerate set whose
                # least-squares iterate leaves them unmet, which the cold
                # path never does.  (On the first round the seed check
                # above has just verified these rows at this iterate.)
                if _off_equalities(x, A_eq, b_eq) or (
                    warm[i]
                    and iters[i] > 1
                    and act
                    and np.max(np.abs(A_ub[act] @ x - b_ub[act])) > 1e-6
                ):
                    if leave(i):
                        next_pending.append(i)
                    continue

                results[i] = QPResult(
                    x.copy(), "optimal", iters[i], tuple(sorted(act)), warm[i]
                )
        pending = [i for i in next_pending if iters[i] < max_iter or leave(i)]
    return results  # type: ignore[return-value]
