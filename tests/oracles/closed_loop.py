"""Closed-loop convergence check for the MPC (paper §IV-B).

An empirical check that simulates the linear plant under the actual
constrained MPC and verifies the response time settles at the set
point.  With the terminal constraint active, MPC theory guarantees
nominal stability (Maciejowski 2002); the empirical check covers the
constrained, softened, and model-mismatch cases the theory does not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.control.arx import ARXModel

__all__ = ["closed_loop_converges"]


def closed_loop_converges(
    model: ARXModel,
    controller,
    setpoint: float,
    t_initial: float,
    c_initial: Sequence[float],
    c_min: Sequence[float],
    c_max: Sequence[float],
    reference_fn,
    n_steps: int = 60,
    tol: float = 0.02,
) -> bool:
    """Simulate plant = model under the given MPC; check convergence.

    ``controller`` is an :class:`~repro.control.mpc_core.MPCController`
    built on (possibly a perturbed copy of) *model*; ``reference_fn(t_k)``
    must return the length-P reference trajectory for the current
    measurement.  Returns True when the final simulated output is within
    ``tol`` (relative) of the set point.
    """
    m = model.n_inputs
    na, nb = model.na, model.nb
    t_hist = [float(t_initial)] * max(na, 1)
    c0 = np.asarray(c_initial, dtype=float)
    c_hist = [c0.copy() for _ in range(max(nb, 1))]
    t_k = float(t_initial)
    for _ in range(n_steps):
        ref = reference_fn(t_k)
        sol = controller.solve(
            t_hist, np.asarray(c_hist), ref, setpoint, c_min, c_max
        )
        # Direct-drive convention: t(k+1) is produced by c(k+1), the
        # allocation the controller just decided.
        c_next = np.clip(c_hist[0] + sol.delta_c, c_min, c_max)
        c_hist.insert(0, c_next)
        c_hist = c_hist[: max(nb, 1)]
        t_k = model.one_step(t_hist, np.asarray(c_hist))
        t_hist.insert(0, t_k)
        t_hist = t_hist[: max(na, 1)]
    return abs(t_k - setpoint) <= tol * abs(setpoint)
