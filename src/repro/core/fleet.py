"""Fleet-batched control step: one kernel call per phase, not per app.

The per-app loop in :class:`repro.core.manager.PowerManager`
(``control_mode="scalar"``, kept for golden-hash reproductions) runs
each application's :class:`ResponseTimeController` to completion before
touching the next — one QP solve, one history push per app per period.
At the paper's "thousands of applications" scale the per-app Python
dispatch dominates.

:class:`FleetControlStep`, the default path, re-phases the same work
across the whole fleet using the seam split into the controller by
:meth:`ResponseTimeController.prepare` / ``finish``:

1. ``prepare`` for every app (measurement handling, bias, bounds);
2. one :func:`repro.control.mpc_core.solve_mpc_batch` over all
   non-held solve requests (grouped by model/config geometry);
3. ``finish`` fans the solutions back per app.

Controllers are mutually independent — no step of one app's period
reads another app's state — so this phase reordering changes nothing
but the interleaving.  An app whose group has no other member is solved
bitwise as in the per-app loop; larger groups are *allclose* to, not
bit-identical with, it (stacked multi-RHS LAPACK), which
``tests/test_fleet.py`` asserts at pinned tolerances.

Missing-measurement holds (``ControllerConfig.missing_policy``) are
handled inside ``prepare`` exactly as in the per-app loop: held apps
skip the solve batch entirely and re-emit their last demands, counter
for counter.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.control.mpc_core import solve_mpc_batch
from repro.core.controller.response_time_controller import ResponseTimeController

__all__ = ["FleetControlStep"]


class FleetControlStep:
    """Batches all registered controllers' periods through the kernels.

    Holds a live reference to the manager's ``controllers`` mapping, so
    registrations after construction are picked up automatically.
    """

    def __init__(self, controllers: Mapping[str, ResponseTimeController]):
        self.controllers = controllers

    def run(
        self,
        measurements: Mapping[str, float],
        used_ghz: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """One fleet period: returns ``(demands_by_app, stats)``.

        ``measurements`` maps app_id -> measured response time (ms, NaN
        allowed); every key must have a registered controller (the
        caller validates).  ``stats`` reports the grouping the batch
        kernels achieved this period — fed to the
        ``controller.batch_groups`` counter and the
        ``manager.fleet_control`` span — and how the solves ended:
        ``softened`` (terminal equality relaxed), ``unreachable`` (of
        those, decided by the reachability certificate without a solve).
        """
        order = list(measurements)
        ctrls = self.controllers
        stats: Dict[str, object] = {
            "apps": len(order),
            "held": 0,
            "solved": 0,
            "mpc_groups": [],
            "softened": 0,
            "unreachable": 0,
        }

        # 1. Pre-solve half of every period.
        pendings = {}
        for app_id in order:
            usage = used_ghz.get(app_id) if used_ghz is not None else None
            pendings[app_id] = ctrls[app_id].prepare(
                measurements[app_id], used_ghz=usage
            )

        # 2-3. One grouped MPC solve over the non-held apps, fanned back.
        demands: Dict[str, np.ndarray] = {}
        solve_ids = [a for a in order if not pendings[a].held]
        for app_id in order:
            if pendings[app_id].held:
                demands[app_id] = pendings[app_id].demands
        if solve_ids:
            mpc_stats: Dict[str, object] = {}
            solutions = solve_mpc_batch(
                [ctrls[a]._mpc for a in solve_ids],
                [pendings[a].request for a in solve_ids],
                stats=mpc_stats,
            )
            for app_id, solution in zip(solve_ids, solutions):
                demands[app_id] = ctrls[app_id].finish(
                    pendings[app_id], solution
                )
            stats["mpc_groups"] = mpc_stats.get("groups", [])
            for key in ("softened", "unreachable"):
                stats[key] = mpc_stats[key]
        stats["held"] = len(order) - len(solve_ids)
        stats["solved"] = len(solve_ids)
        return demands, stats
