"""Domain wrapper of Minimum Bin Slack for one server (paper Algorithm 1).

Given one server's free CPU and memory plus a list of unallocated VMs,
select the VM subset that leaves the server with the least unallocated
CPU while respecting the memory constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.optimizer.types import VMInfo
from repro.obs import get_telemetry
from repro.packing.mbs import MBSResult, MemoryConstraint, minimum_bin_slack

__all__ = ["MinSlackConfig", "select_vms_for_server"]


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

    Returns the chosen VMs and the raw search result (slack, steps,
    epsilon after escalations).  Telemetry: traced as the
    ``minslack.search`` span; nodes expanded and epsilon escalations
    accumulate into the ``minslack.nodes`` / ``minslack.eps_escalations``
    counters.  The branch-and-bound inner loop itself stays
    uninstrumented — effort is read off :class:`MBSResult` afterwards.
    """
    config = config or MinSlackConfig()
    if free_capacity_ghz < 0:
        raise ValueError(f"free_capacity_ghz must be >= 0, got {free_capacity_ghz}")
    if free_memory_mb < 0:
        raise ValueError(f"free_memory_mb must be >= 0, got {free_memory_mb}")
    sizes = [vm.demand_ghz for vm in candidates]
    constraint = MemoryConstraint([vm.memory_mb for vm in candidates], free_memory_mb)
    tel = get_telemetry()
    with tel.span("minslack.search", candidates=len(sizes)) as sp:
        result = minimum_bin_slack(
            sizes,
            free_capacity_ghz,
            constraint=constraint,
            epsilon=config.epsilon_ghz,
            max_steps=config.max_steps,
            epsilon_step=config.epsilon_step_ghz,
        )
        sp.annotate(
            nodes=result.steps,
            slack_ghz=result.slack,
            epsilon_used=result.epsilon_used,
            early_exit=result.early_exit,
        )
    if tel.enabled:
        tel.count("minslack.searches")
        tel.count("minslack.nodes", result.steps)
        tel.count("minslack.eps_escalations", result.steps // config.max_steps)
    chosen = [candidates[i] for i in result.selected]
    return chosen, result
