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
from repro.packing.mbs import (
    _FIT_TOL,
    MBSResult,
    search_fitting_nothing,
    search_sorted,
    sort_items,
)

__all__ = ["MinSlackConfig", "PlacementList"]


@dataclass(frozen=True)
class MinSlackConfig:
    """Knobs of the per-server Minimum Slack search.

    ``epsilon_ghz`` is the allowed slack (Algorithm 1's eps);
    ``max_steps`` the per-escalation step budget.  Each escalation
    raises the slack by 5% of the free capacity.
    """

    epsilon_ghz: float = 0.05
    max_steps: int = 20000

    def __post_init__(self):
        # The range checks are also false for NaN.
        if not 0 <= self.epsilon_ghz < math.inf:
            raise ValueError(f"epsilon_ghz must be finite and >= 0, got {self.epsilon_ghz}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


class PlacementList:
    """The unallocated VMs of one PAC call, kept in search order.

    Minimum Slack visits a server's candidates by decreasing demand,
    ties in list order.  The list is sorted that way once, at
    construction, and owns what the search reads: the demands, their
    suffix sums, the memories with their suffix minima and the memory
    jump table (see :func:`repro.packing.mbs.sort_items`), as Python
    lists handed to :func:`repro.packing.mbs.search_sorted` for every
    server.  Demands and memories are validated here, once: each must be
    finite and non-negative.

    A take deletes the chosen VMs in place, which hands every later
    server the order a per-server sort of the id-ordered remainder would
    have produced.  Entries behind the last deleted position keep their
    bounds and jumps; only the prefix in front of it is recomputed, in
    one pass, by the same sequential additions (and minima) the full
    accumulation makes, and a jump is found anew only when it passed a
    deleted position, so the maintained lists equal lists built from
    scratch for the remaining VMs.
    """

    def __init__(self, vms: Sequence[VMInfo]):
        for vm in vms:
            # Both comparisons are also false for NaN.
            if not (0 <= vm.demand_ghz < math.inf and 0 <= vm.memory_mb < math.inf):
                raise ValueError(
                    f"VM {vm.vm_id!r}: demand_ghz and memory_mb must be finite "
                    f"and >= 0, got {vm.demand_ghz} GHz and {vm.memory_mb} MB"
                )
        (
            order, self._demand, self._suffix, self._memory, self._min_memory, self._lower
        ) = sort_items(
            np.array([vm.demand_ghz for vm in vms], dtype=float),
            np.array([vm.memory_mb for vm in vms], dtype=float),
        )
        self.vms: List[VMInfo] = [vms[i] for i in order]

    def __len__(self) -> int:
        return len(self.vms)

    def take_for_server(
        self, free_capacity_ghz: float, free_memory_mb: float, config: MinSlackConfig
    ) -> Tuple[List[VMInfo], MBSResult]:
        """Select the VMs that best fill one server and remove them.

        Returns the chosen VMs and the raw search result (slack, steps,
        epsilon after escalations; its ``selected`` are positions in the
        list before the take).  Telemetry: traced as the
        ``minslack.search`` span, annotated with ``nodes`` (the steps
        the stepwise search counts — what the step budget is defined
        on) and ``evaluated`` (the loop iterations this search executed
        to account for them; far fewer when rejection runs are jumped).
        ``nodes`` and the escalations it implies accumulate into the
        ``minslack.nodes`` / ``minslack.eps_escalations`` counters.  The
        branch-and-bound inner loop itself stays uninstrumented — effort
        is read off :class:`MBSResult` afterwards.
        """
        if not 0 <= free_memory_mb < math.inf:  # also false for NaN
            raise ValueError(
                f"free_memory_mb must be finite and >= 0, got {free_memory_mb}"
            )
        tel = get_telemetry()
        with tel.span("minslack.search", candidates=len(self.vms)) as sp:
            result = search_sorted(
                self._demand,
                self._suffix,
                free_capacity_ghz,
                memory=self._memory,
                min_memory=self._min_memory,
                next_lower=self._lower,
                memory_capacity=float(free_memory_mb),
                epsilon=config.epsilon_ghz,
                max_steps=config.max_steps,
            )
            _report(tel, sp, result, config)
        positions = result.selected  # ascending: a DFS path
        if not positions:
            return [], result
        chosen = [self.vms[p] for p in positions]
        for p in reversed(positions):
            del self.vms[p]
            del self._demand[p]
            del self._suffix[p]
            del self._memory[p]
            del self._min_memory[p]
            del self._lower[p]
        self._refresh_prefix(positions)
        return chosen, result

    def fits_nothing(self, free_capacity_ghz: float, free_memory_mb: float) -> bool:
        """Whether no remaining VM fits the server alone, so that
        :meth:`take_for_server` would select nothing.

        True when the smallest remaining memory or the smallest remaining
        demand exceeds what is free by more than the search's fit
        tolerance: the search's own tests, so no selection can differ.
        An empty list fits nothing.  An offer :meth:`take_for_server`
        refuses (negative, infinite or NaN) reads False and is left to it.
        """
        return (
            0 <= free_capacity_ghz < math.inf
            and 0 <= free_memory_mb < math.inf
            and (
                self._min_memory[0] > free_memory_mb + _FIT_TOL
                or self._demand[-1] > free_capacity_ghz + _FIT_TOL
            )
        )

    def pass_over(self, free_capacity_ghz: float, config: MinSlackConfig) -> None:
        """Trace an offer :meth:`fits_nothing` answered as the search it
        replaces: the same ``minslack.search`` span and counts as
        :meth:`take_for_server`, from
        :func:`repro.packing.mbs.search_fitting_nothing`.  Nothing is
        taken; with telemetry off this returns at once.
        """
        tel = get_telemetry()
        if not tel.enabled:
            return
        with tel.span("minslack.search", candidates=len(self.vms)) as sp:
            result = search_fitting_nothing(
                self._suffix,
                free_capacity_ghz,
                epsilon=config.epsilon_ghz,
                max_steps=config.max_steps,
            )
            _report(tel, sp, result, config)

    def _refresh_prefix(self, deleted: Tuple[int, ...]) -> None:
        """Recompute the bounds in front of the last of the *deleted*
        positions (ascending, as they were before the take).

        The VM behind the ``i``-th deletion now sits at ``deleted[i] - i``;
        behind the last one, bounds and jumps did not change (a jump
        counts positions behind it, and ``n - p`` shrinks with ``n``).
        In front of it the positions are refreshed from the back, one
        stretch between deletions at a time.  ``total + d`` is the step
        ``np.add.accumulate`` takes on the reversed demands.  A jump that
        ends inside its own stretch passed no deleted position and
        stays; any other is found as :func:`repro.packing.mbs.sort_items`
        finds it.
        """
        demand, suffix = self._demand, self._suffix
        memory, min_memory, lower = self._memory, self._min_memory, self._lower
        n = len(demand)
        end = deleted[-1] + 1 - len(deleted)
        total = suffix[end]
        low = min_memory[end]
        for i in range(len(deleted) - 1, -1, -1):
            start = deleted[i - 1] - (i - 1) if i else 0
            for p in range(end - 1, start - 1, -1):
                total = total + demand[p]
                suffix[p] = total
                mem = memory[p]
                if mem <= low:
                    low = mem
                    lower[p] = n - p
                elif p + lower[p] >= end:
                    r = p + 1
                    while memory[r] >= mem:
                        r += lower[r]
                    lower[p] = r - p
                min_memory[p] = low
            end = start


def _report(tel, span, result: MBSResult, config: MinSlackConfig) -> None:
    """Annotate one search's span and add its effort to the counters."""
    span.annotate(
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
