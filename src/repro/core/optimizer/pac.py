"""Power-Aware Consolidation — PAC (paper §V).

"In the first step, the servers are sorted by power efficiency, i.e.,
the ratio between the maximum CPU frequency and maximum power
consumption of the server.  Beginning from the most power-efficient
server, we use Algorithm 1 to select several VMs from the remaining
unallocated VMs, and then pack these VMs to this server such that the
unused CPU resource in this server is minimized.  We repeat this process
with the next most power-efficient server until every VM in the list is
allocated to a server."

That server walk is :func:`walk_servers`, the only one in the
optimizer: it takes the servers in efficiency order, the VMs in id
order and the load already on each server, and returns the placements
in walk order.  :func:`pac` adds the snapshot around it — the load of
the VMs that stay put, the final mapping and the plan.  IPAC runs the
same walk against its own per-server ledger
(:mod:`repro.core.optimizer.ipac`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.optimizer.minslack import MinSlackConfig, PlacementList
from repro.core.optimizer.types import (
    Migration,
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    VMInfo,
)
from repro.util.validation import check_in_range

__all__ = [
    "PACConfig",
    "pac",
    "walk_servers",
    "sort_servers_by_efficiency",
    "build_plan_from_mapping",
]


@dataclass(frozen=True)
class PACConfig:
    """PAC tuning.

    ``target_utilization`` caps how full PAC packs each server (fraction
    of its maximum CPU capacity) so that normal demand jitter does not
    instantly overload a freshly packed host.
    """

    minslack: MinSlackConfig = field(default_factory=MinSlackConfig)
    target_utilization: float = 0.95

    def __post_init__(self):
        check_in_range("target_utilization", self.target_utilization, 0.1, 1.0)


def sort_servers_by_efficiency(servers: Sequence[ServerInfo]) -> List[ServerInfo]:
    """Most GHz/W-efficient servers first; ties broken by id for determinism."""
    return sorted(servers, key=lambda s: (-s.efficiency, s.server_id))


def build_plan_from_mapping(
    problem: PlacementProblem,
    final_mapping: Dict[str, str],
    unplaced: Sequence[str] = (),
) -> PlacementPlan:
    """Diff a final mapping against the problem's current state.

    Produces migrations (placements for previously-unmapped VMs), the
    wake list (inactive servers that now host VMs), and the sleep list
    (active servers left empty).
    """
    migrations: List[Migration] = []
    for vm in problem.vms:
        old = problem.mapping.get(vm.vm_id)
        new = final_mapping.get(vm.vm_id)
        if new is not None and new != old:
            migrations.append(Migration(vm.vm_id, old, new))
    hosts_in_use = set(final_mapping.values())
    wake = [
        s.server_id
        for s in problem.servers
        if not s.active and s.server_id in hosts_in_use
    ]
    sleep = [
        s.server_id
        for s in problem.servers
        if s.active and s.server_id not in hosts_in_use
    ]
    return PlacementPlan(
        migrations=migrations,
        wake=sorted(wake),
        sleep=sorted(sleep),
        final_mapping=dict(final_mapping),
        unplaced=list(unplaced),
    )


def pac(
    problem: PlacementProblem,
    vms_to_place: Optional[Sequence[str]] = None,
    config: PACConfig | None = None,
) -> PlacementPlan:
    """Consolidate VMs onto the most power-efficient servers.

    Parameters
    ----------
    problem:
        The placement snapshot.
    vms_to_place:
        Ids of the VMs to (re)allocate.  ``None`` means all VMs — a
        from-scratch consolidation.  VMs not in this list stay where
        they are and consume capacity on their current hosts.
    config:
        PAC tuning.

    Returns the placement plan; VMs that fit nowhere end up in
    ``plan.unplaced`` (and keep their current host in the mapping, if
    they had one).
    """
    config = config or PACConfig()
    vm_by_id = problem.vm_index()
    if vms_to_place is None:
        place_ids = [v.vm_id for v in problem.vms]
    else:
        place_ids = list(vms_to_place)
        for vm_id in place_ids:
            if vm_id not in vm_by_id:
                raise KeyError(f"unknown VM id {vm_id!r}")
    place_set = set(place_ids)
    if len(place_set) != len(place_ids):
        raise ValueError("vms_to_place contains duplicates")

    # Residual load from VMs that are staying put.
    base_cpu: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
    base_mem: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
    final_mapping: Dict[str, str] = {}
    for vm_id, sid in problem.mapping.items():
        if vm_id not in place_set:
            base_cpu[sid] += vm_by_id[vm_id].demand_ghz
            base_mem[sid] += vm_by_id[vm_id].memory_mb
            final_mapping[vm_id] = sid

    placed, unplaced = walk_servers(
        problem.servers_by_efficiency(),
        [vm_by_id[i] for i in sorted(place_set)],
        base_cpu,
        base_mem,
        config,
    )
    for vm, sid in placed:
        final_mapping[vm.vm_id] = sid
    # An unplaceable VM keeps its old host rather than being dropped.
    for vm_id in unplaced:
        if vm_id in problem.mapping:
            final_mapping[vm_id] = problem.mapping[vm_id]
    return build_plan_from_mapping(problem, final_mapping, unplaced)


def walk_servers(
    servers: Sequence[ServerInfo],
    vms: Sequence[VMInfo],
    base_cpu: Mapping[str, float],
    base_mem: Mapping[str, float],
    config: PACConfig,
    exclude: Optional[str] = None,
) -> Tuple[List[Tuple[VMInfo, str]], List[str]]:
    """PAC's server walk: pack *vms* onto *servers*, one server at a time.

    *servers* come most power-efficient first and *vms* in id order.
    Each server offers its CPU up to ``config.target_utilization`` and
    its memory, less ``base_cpu`` / ``base_mem`` (the load already on
    it), to one Minimum Slack search over the VMs still unallocated.
    The server with id *exclude* is skipped.

    Returns ``(placed, unplaced)``: ``(vm, server_id)`` pairs in the
    order the walk placed them, and the ids of the VMs it could not
    place, sorted.
    """
    remaining = PlacementList(vms)
    placed: List[Tuple[VMInfo, str]] = []
    target = config.target_utilization
    for server in servers:
        if not remaining:
            break
        sid = server.server_id
        if sid == exclude:
            continue
        free_cpu = server.max_capacity_ghz * target - base_cpu[sid]
        free_mem = server.memory_mb - base_mem[sid]
        if free_cpu <= 0 or free_mem < 0:
            continue
        chosen, _ = remaining.take_for_server(free_cpu, free_mem, config.minslack)
        for vm in chosen:
            placed.append((vm, sid))
    return placed, sorted(vm.vm_id for vm in remaining.vms)
