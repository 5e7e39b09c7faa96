"""Reference active-set QP solvers, preserved verbatim from before the merge.

:func:`repro.control.qp.solve_qp_batch` runs one working-set iteration
for every problem, and :func:`repro.control.qp.solve_qp` is its batch of
one.  Before that, the iteration was written twice: ``solve_qp`` (with
``_solve_kkt``) as the scalar loop, and ``solve_qp_batch`` as a lock-step
copy that handed every problem leaving the happy path to ``solve_qp``
cold.  This module keeps both.  ``tests/test_qp.py::TestOneLoopMatchesReference`` requires
every field of every result — ``x`` bytes, status, iteration count,
working set and warm flag — to be equal on random problems.

Nothing here should be "improved" — it is the frozen baseline.  The only
departures from the source are this docstring and the imports: the
helpers the two solvers shared (``QPResult``, ``_scipy_fallback``,
``_off_equalities``, ``_WARM_ITER_BUDGET``) are unchanged and imported.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.control.qp import (
    _WARM_ITER_BUDGET,
    QPResult,
    _off_equalities,
    _scipy_fallback,
)


def _solve_kkt(
    H: np.ndarray, g: np.ndarray, C: np.ndarray, d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the equality-constrained QP ``min .5x'Hx+g'x s.t. Cx=d``.

    Returns ``(x, nu)`` where ``nu`` are the constraint multipliers.
    Falls back to least-squares for singular KKT matrices (degenerate
    working sets).
    """
    n = H.shape[0]
    m = C.shape[0]
    if m == 0:
        try:
            return np.linalg.solve(H, -g), np.empty(0)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(H, -g, rcond=None)
            return x, np.empty(0)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    rhs = np.concatenate([-g, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n], sol[n:]



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
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if H.shape != (n, n):
        raise ValueError(f"H must be {n}x{n}, got {H.shape}")
    H = 0.5 * (H + H.T)  # symmetrize against numerical asymmetry

    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    if A_eq.shape != (b_eq.shape[0], n):
        raise ValueError(f"A_eq shape {A_eq.shape} inconsistent with n={n}, b_eq={b_eq.shape}")
    if A_ub.shape != (b_ub.shape[0], n):
        raise ValueError(f"A_ub shape {A_ub.shape} inconsistent with n={n}, b_ub={b_ub.shape}")

    n_eq = A_eq.shape[0]
    n_ub = A_ub.shape[0]
    active: List[int] = []
    warm = False
    if warm_start is not None:
        seen = set()
        for idx in warm_start:
            idx = int(idx)
            if 0 <= idx < n_ub and idx not in seen:
                seen.add(idx)
                active.append(idx)
        warm = bool(active)
    x = None
    seed_unverified = warm
    for iteration in range(1, max_iter + 1):
        if warm and iteration > _WARM_ITER_BUDGET:
            # The seed did not lead to quick convergence — from here on
            # this is a plain cold solve from the empty working set.
            warm = False
            seed_unverified = False
            active = []
        C = np.vstack([A_eq, A_ub[active]]) if (n_eq or active) else np.zeros((0, n))
        d = np.concatenate([b_eq, b_ub[active]]) if (n_eq or active) else np.zeros(0)
        x, nu = _solve_kkt(H, g, C, d)

        # A stale warm-start seed can be inconsistent under the current
        # rhs (the KKT solve then degrades to least squares, leaving
        # working-set rows unsatisfied while the feasibility mask below
        # would treat them as enforced).  Verify the seed once, on the
        # first iterate; if any seeded row is not actually met, discard
        # the whole seed and restart cold — never cheaper to repair a
        # bad guess row by row.
        if seed_unverified:
            seed_unverified = False
            bad_eq = n_eq and np.max(np.abs(A_eq @ x - b_eq)) > 1e-6
            bad_ub = active and np.max(np.abs(A_ub[active] @ x - b_ub[active])) > 1e-6
            if bad_eq or bad_ub:
                warm = False  # seed discarded: this is a cold solve now
                active = []
                continue

        # Drop an active inequality whose multiplier went negative.
        if active:
            ineq_mult = nu[n_eq:]
            worst = int(np.argmin(ineq_mult))
            if ineq_mult[worst] < -tol:
                active.pop(worst)
                continue

        # Add the most violated inactive inequality.
        if A_ub.shape[0]:
            resid = A_ub @ x - b_ub
            resid[active] = -np.inf  # already enforced
            worst = int(np.argmax(resid))
            if resid[worst] > tol:
                active.append(worst)
                continue

        # Verify equality feasibility (catches inconsistent A_eq).
        if _off_equalities(x, A_eq, b_eq):
            if warm:
                break  # retry cold below rather than trusting this iterate
            return _scipy_fallback(H, g, A_eq, b_eq, A_ub, b_ub, x, iteration, warm)

        # Warm seeds can steer the iteration through a degenerate working
        # set whose KKT system is only solvable in least squares — the
        # masked active rows are then *not* actually enforced.  Verify
        # them before declaring victory; a violation means the warm path
        # went astray, so retry cold (which never takes that path).
        if warm and active and np.max(np.abs(A_ub[active] @ x - b_ub[active])) > 1e-6:
            break

        return QPResult(x, "optimal", iteration, tuple(sorted(active)), warm)

    if warm:
        # A warm-started solve that stalls (degenerate cycling around a
        # bad seed) must never end worse than a cold one: rerun cold.
        return solve_qp(H, g, A_eq, b_eq, A_ub, b_ub, max_iter, tol, None)
    return _scipy_fallback(H, g, A_eq, b_eq, A_ub, b_ub, x, max_iter, warm)


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

    This is the batch form of :func:`solve_qp` for fleets of structurally
    identical controllers (same model horizon, same constraint geometry)
    whose per-period data differ only in the linear term ``g`` and the
    right-hand sides: ``g_batch`` is ``(B, n)``, ``b_eq_batch`` is
    ``(B, n_eq)``, ``b_ub_batch`` is ``(B, n_ub)``.

    Each active-set round groups the still-pending problems by their
    current working set; every group shares one KKT matrix, so its
    members are solved with a single stacked-RHS ``np.linalg.solve``
    instead of B separate factorizations.  The per-problem drop/add
    bookkeeping is unchanged from the scalar solver, and any problem
    that leaves the happy path (singular group KKT, stale seed on a
    degenerate set, iteration stall) is handed to :func:`solve_qp`
    individually, so batch results carry the same status semantics.

    ``known_infeasible`` marks problems the caller has already proved
    infeasible (length B; the MPC's terminal-reachability certificate).
    A marked problem costs no solver time of its own: it comes back
    ``infeasible`` with ``x is None`` where an unmarked one would be
    handed to :func:`solve_qp`, and the rounds stop as soon as only
    marked problems are pending.  Until then it keeps its column in the
    stacked right-hand sides, because LAPACK's solve depends on the
    column count: ``solve(A, B[:, :1])`` and ``solve(A, B)[:, :1]``
    differ in the last bits (a lone column takes the single-RHS path;
    ~190 of 200 random 5x5 to 9x9 systems), so dropping marked columns
    would move the iterate of an unmarked problem left alone in its
    group.  The unmarked problems' results are therefore bitwise those
    of the call without the mask.

    Equivalence: LAPACK's multi-RHS solve is *allclose* to, but not
    bit-identical with, a sequence of single-RHS solves — callers that
    pin golden hashes must stay on :func:`solve_qp`.
    """
    H = np.asarray(H, dtype=float)
    g_batch = np.atleast_2d(np.asarray(g_batch, dtype=float))
    B, n = g_batch.shape
    if H.shape != (n, n):
        raise ValueError(f"H must be {n}x{n}, got {H.shape}")
    H = 0.5 * (H + H.T)

    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
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

    iteration = 0

    def _off_path(i: int) -> QPResult:
        """Problem ``i`` left the lock step: finish it with the scalar
        solver, unless the caller already knows how that ends."""
        if known[i]:
            return QPResult(None, "infeasible", iteration, ())
        return solve_qp(
            H, g_batch[i], A_eq, b_eq_batch[i], A_ub, b_ub_batch[i],
            max_iter, tol, None,
        )

    results: List[Optional[QPResult]] = [None] * B
    # Per-problem mutable solver state, mirroring the scalar loop.
    actives: List[List[int]] = []
    warm_flags: List[bool] = []
    seed_unverified: List[bool] = []
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
        warm_flags.append(bool(active))
        seed_unverified.append(bool(active))

    pending = list(range(B))
    for iteration in range(1, max_iter + 1):
        if all(known[i] for i in pending):
            break
        if iteration > _WARM_ITER_BUDGET:
            for i in pending:
                if warm_flags[i]:
                    warm_flags[i] = False
                    seed_unverified[i] = False
                    actives[i] = []
        groups: dict = {}
        for i in pending:
            groups.setdefault(tuple(actives[i]), []).append(i)
        next_pending: List[int] = []
        for key, members in groups.items():
            active = list(key)
            m = n_eq + len(active)
            rhs = np.empty((n + m, len(members)))
            for col, i in enumerate(members):
                rhs[:n, col] = -g_batch[i]
                if n_eq:
                    rhs[n : n + n_eq, col] = b_eq_batch[i]
                if active:
                    rhs[n + n_eq :, col] = b_ub_batch[i][active]
            if m == 0:
                try:
                    sol = np.linalg.solve(H, rhs)
                except np.linalg.LinAlgError:
                    for i in members:
                        results[i] = _off_path(i)
                    continue
            else:
                C = np.vstack([A_eq, A_ub[active]])
                kkt = np.zeros((n + m, n + m))
                kkt[:n, :n] = H
                kkt[:n, n:] = C.T
                kkt[n:, :n] = C
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    # Degenerate working set: the scalar path handles it
                    # (least-squares iterate + seed verification).
                    for i in members:
                        results[i] = _off_path(i)
                    continue
            for col, i in enumerate(members):
                x = sol[:n, col]
                nu = sol[n:, col]
                b_eq = b_eq_batch[i]
                b_ub = b_ub_batch[i]
                act = actives[i]

                if seed_unverified[i]:
                    seed_unverified[i] = False
                    bad_eq = n_eq and np.max(np.abs(A_eq @ x - b_eq)) > 1e-6
                    bad_ub = (
                        act and np.max(np.abs(A_ub[act] @ x - b_ub[act])) > 1e-6
                    )
                    if bad_eq or bad_ub:
                        warm_flags[i] = False
                        actives[i] = []
                        next_pending.append(i)
                        continue

                if act:
                    ineq_mult = nu[n_eq:]
                    worst = int(np.argmin(ineq_mult))
                    if ineq_mult[worst] < -tol:
                        act.pop(worst)
                        next_pending.append(i)
                        continue

                if n_ub:
                    resid = A_ub @ x - b_ub
                    resid[act] = -np.inf
                    worst = int(np.argmax(resid))
                    if resid[worst] > tol:
                        act.append(worst)
                        next_pending.append(i)
                        continue

                if _off_equalities(x, A_eq, b_eq):
                    results[i] = _off_path(i)
                    continue
                if (
                    warm_flags[i]
                    and act
                    and np.max(np.abs(A_ub[act] @ x - b_ub[act])) > 1e-6
                ):
                    # Warm path wandered into a degenerate set; the cold
                    # scalar solve never takes that route.
                    results[i] = _off_path(i)
                    continue

                results[i] = QPResult(
                    x.copy(), "optimal", iteration, tuple(sorted(act)), warm_flags[i]
                )
        pending = next_pending

    for i in pending:
        results[i] = _off_path(i)
    return results  # type: ignore[return-value]
