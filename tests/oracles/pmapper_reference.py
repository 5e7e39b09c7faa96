"""Reference pMapper, preserved from before hosted VMs were grouped by server.

:func:`repro.core.optimizer.pmapper.pmapper` groups the mapping's VMs by
server once, before the donor loop.  This module keeps the invocation it
replaced, which rebuilt each donor's hosted list with a pass over the
whole mapping.  ``tests/test_optimizer.py`` asserts that both return the
same plan -- mapping order included -- on random instances.

Nothing here should be "improved" -- it is the frozen baseline.  The
only departures from the source are this docstring and the imports
(the unchanged first-fit helper is the product's).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.optimizer.pac import build_plan_from_mapping, sort_servers_by_efficiency
from repro.core.optimizer.pmapper import PMapperConfig, _ffd_assign
from repro.core.optimizer.types import PlacementPlan, PlacementProblem, VMInfo

__all__ = ["pmapper"]


def pmapper(problem: PlacementProblem, config: PMapperConfig | None = None) -> PlacementPlan:
    """One pMapper invocation; returns the placement plan."""
    config = config or PMapperConfig()
    vm_by_id = {v.vm_id: v for v in problem.vms}
    servers = sort_servers_by_efficiency(problem.servers)
    order = [s.server_id for s in servers]
    cap_cpu = {
        s.server_id: s.max_capacity_ghz * config.target_utilization for s in servers
    }
    cap_mem = {s.server_id: float(s.memory_mb) for s in servers}

    # ---- Phase 1: virtual FFD of every VM onto efficiency-sorted servers.
    free_cpu = dict(cap_cpu)
    free_mem = dict(cap_mem)
    all_vms = sorted(problem.vms, key=lambda v: v.vm_id)
    target_mapping = _ffd_assign(list(all_vms), order, free_cpu, free_mem)

    # Per-server target and current loads.
    target_load: Dict[str, float] = {sid: 0.0 for sid in order}
    for vm_id, sid in target_mapping.items():
        target_load[sid] += vm_by_id[vm_id].demand_ghz
    current_load: Dict[str, float] = {sid: 0.0 for sid in order}
    current_mem: Dict[str, float] = {sid: 0.0 for sid in order}
    for vm_id, sid in problem.mapping.items():
        current_load[sid] += vm_by_id[vm_id].demand_ghz
        current_mem[sid] += vm_by_id[vm_id].memory_mb

    # ---- Phase 2: donors shed their smallest VMs; FFD onto receivers.
    eps = 1e-9
    receivers = [sid for sid in order if target_load[sid] > current_load[sid] + eps]
    migration_list: List[VMInfo] = []
    mapping: Dict[str, str] = dict(problem.mapping)

    # VMs that are not placed anywhere yet must move regardless.
    for vm in all_vms:
        if vm.vm_id not in mapping:
            migration_list.append(vm)

    for sid in order:
        if target_load[sid] >= current_load[sid] - eps:
            continue  # not a donor
        hosted = sorted(
            (vm_id for vm_id, s in mapping.items() if s == sid),
            key=lambda v: (vm_by_id[v].demand_ghz, v),
        )
        load = current_load[sid]
        for vm_id in hosted:
            if load <= target_load[sid] + eps:
                break
            vm = vm_by_id[vm_id]
            migration_list.append(vm)
            del mapping[vm_id]
            load -= vm.demand_ghz
            current_mem[sid] -= vm.memory_mb
        current_load[sid] = load

    recv_free_cpu = {sid: cap_cpu[sid] - current_load[sid] for sid in receivers}
    recv_free_mem = {sid: cap_mem[sid] - current_mem[sid] for sid in receivers}
    placed = _ffd_assign(migration_list, receivers, recv_free_cpu, recv_free_mem)
    unplaced: List[str] = []
    for vm in migration_list:
        sid = placed.get(vm.vm_id)
        if sid is not None:
            mapping[vm.vm_id] = sid
        elif vm.vm_id in problem.mapping:
            mapping[vm.vm_id] = problem.mapping[vm.vm_id]  # stay put
        else:
            unplaced.append(vm.vm_id)

    return build_plan_from_mapping(problem, mapping, unplaced)
