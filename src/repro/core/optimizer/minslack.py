"""Domain wrapper of Minimum Bin Slack for one server (paper Algorithm 1).

Given one server's free CPU and memory plus a list of unallocated VMs,
select the VM subset that leaves the server with the least unallocated
CPU while respecting the memory constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.optimizer.types import VMInfo
from repro.obs import get_telemetry
from repro.packing.mbs import MBSResult, MemoryConstraint, minimum_bin_slack

__all__ = ["MinSlackConfig", "PlacementList", "select_vms_for_server"]


@dataclass(frozen=True)
class MinSlackConfig:
    """Knobs of the per-server Minimum Slack search.

    ``epsilon_ghz`` is the allowed slack (Algorithm 1's eps);
    ``max_steps`` the per-escalation step budget; ``epsilon_step_ghz``
    the escalation increment (None = 5% of the free capacity).
    """

    epsilon_ghz: float = 0.05
    max_steps: int = 20000
    epsilon_step_ghz: float | None = None

    def __post_init__(self):
        if self.epsilon_ghz < 0:
            raise ValueError(f"epsilon_ghz must be >= 0, got {self.epsilon_ghz}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


def select_vms_for_server(
    free_capacity_ghz: float,
    free_memory_mb: float,
    candidates: Sequence[VMInfo],
    config: MinSlackConfig | None = None,
) -> Tuple[List[VMInfo], MBSResult]:
    """Pick the VM subset that best fills the server's free CPU.

    A one-server :class:`PlacementList`: returns the chosen VMs and the
    raw search result (slack, steps, epsilon after escalations; its
    ``selected`` are positions in the search order — decreasing demand,
    ties in list order).  Telemetry: traced as the ``minslack.search``
    span, annotated with ``nodes`` (the steps the stepwise search counts
    — what the step budget is defined on) and ``evaluated`` (the loop
    iterations this search executed to account for them; far fewer when
    rejection runs are jumped).  ``nodes`` and the escalations it
    implies accumulate into the ``minslack.nodes`` /
    ``minslack.eps_escalations`` counters.  The branch-and-bound inner
    loop itself stays uninstrumented — effort is read off
    :class:`MBSResult` afterwards.
    """
    return PlacementList(candidates).take_for_server(
        free_capacity_ghz, free_memory_mb, config or MinSlackConfig()
    )


class PlacementList:
    """The unallocated VMs of one PAC call, kept in search order.

    Minimum Slack visits a server's candidates by decreasing demand,
    ties in list order.  Sorting the id-ordered placement list that way
    once, and deleting the chosen VMs in place, hands every server the
    order a per-server sort of the id-ordered remainder would have
    produced — without rebuilding the demand and memory arrays from
    ``VMInfo`` objects per server.  The memories are validated once,
    here; the one :class:`MemoryConstraint` is re-pointed per server.
    """

    def __init__(self, vms: Sequence[VMInfo]):
        demand = np.array([vm.demand_ghz for vm in vms], dtype=float)
        order = np.argsort(-demand, kind="stable")
        self.vms: List[VMInfo] = [vms[i] for i in order.tolist()]
        self._demand = demand[order]
        self._memory = MemoryConstraint([vm.memory_mb for vm in self.vms], 0.0)

    def __len__(self) -> int:
        return len(self.vms)

    def take_for_server(
        self, free_capacity_ghz: float, free_memory_mb: float, config: MinSlackConfig
    ) -> Tuple[List[VMInfo], MBSResult]:
        """Select the VMs that best fill one server and remove them."""
        if not 0 <= free_memory_mb < math.inf:  # also false for NaN
            raise ValueError(
                f"free_memory_mb must be finite and >= 0, got {free_memory_mb}"
            )
        self._memory.capacity = float(free_memory_mb)
        tel = get_telemetry()
        with tel.span("minslack.search", candidates=len(self.vms)) as sp:
            result = minimum_bin_slack(
                self._demand,
                free_capacity_ghz,
                constraint=self._memory,
                epsilon=config.epsilon_ghz,
                max_steps=config.max_steps,
                epsilon_step=config.epsilon_step_ghz,
            )
            sp.annotate(
                nodes=result.steps,
                evaluated=result.evaluated,
                slack_ghz=result.slack,
                epsilon_used=result.epsilon_used,
                early_exit=result.early_exit,
            )
        if tel.enabled:
            tel.count("minslack.searches")
            tel.count("minslack.nodes", result.steps)
            tel.count("minslack.eps_escalations", result.steps // config.max_steps)
        positions = list(result.selected)  # ascending: a DFS path
        chosen = [self.vms[p] for p in positions]
        if chosen:
            for p in reversed(positions):
                del self.vms[p]
            self._demand = np.delete(self._demand, positions)
            self._memory.sizes = np.delete(self._memory.sizes, positions)
        return chosen, result
