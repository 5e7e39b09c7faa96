"""Exact oracle for the MPC's terminal-reachability certificate.

:meth:`repro.control.mpc_core.MPCController._terminal_unreachable`
bounds the terminal output over a relaxation of the actuator
constraints in closed form.  This module answers the unrelaxed
question with an LP (HiGHS): is there any ``u`` with ``A_ub u <= b_ub``
and ``terminal_row . u = rhs``?  The certificate is sound when it never
says "unreachable" where the LP finds a point.
"""

import numpy as np
from scipy.optimize import linprog

__all__ = ["terminal_reachable", "terminal_range"]


def _solve(cost, A_ub, b_ub, A_eq=None, b_eq=None):
    res = linprog(
        cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(None, None), method="highs",
    )
    if res.status not in (0, 2):  # optimal / infeasible
        raise RuntimeError(f"LP oracle undecided: {res.status} {res.message}")
    return res


def terminal_reachable(A_ub, b_ub, terminal_row, rhs) -> bool:
    """Whether the hard-terminal QP's constraint set is non-empty."""
    row = np.atleast_2d(np.asarray(terminal_row, dtype=float))
    res = _solve(np.zeros(row.shape[1]), A_ub, b_ub, row, [float(rhs)])
    return res.status == 0


def terminal_range(A_ub, b_ub, terminal_row):
    """``(min, max)`` of ``terminal_row . u`` over ``A_ub u <= b_ub``,
    or ``None`` when the inequalities alone are infeasible."""
    row = np.asarray(terminal_row, dtype=float).ravel()
    low = _solve(row, A_ub, b_ub)
    if low.status == 2:
        return None
    high = _solve(-row, A_ub, b_ub)
    return float(low.fun), float(-high.fun)
