"""Reference IPAC, preserved verbatim from before the per-server ledger.

:func:`repro.core.optimizer.ipac.ipac` keeps one per-server ledger for
the whole invocation — hosted VM ids in mapping order with their CPU and
memory totals — and prices every drain round from it.  This module keeps
the implementation it replaced, which re-derived loads, power and a plan
from the full mapping in every PAC call and every power estimate:
``_ipac``, ``_run_pac`` (a ``PlacementProblem.trusted`` sub-problem with
the victim left out, handed to ``pac``), ``_estimate_power_w`` (through
:func:`tests.oracles.exhaustive.placement_power_w`) and the
ejection-chain repair that rebuilt each server's hosted list from the
mapping at every search node.  ``pac`` is the one-function PAC those
called, also as it was.  ``tests/test_optimizer.py`` asserts that both
return the same plan — mapping order included — on random instances.

Nothing here should be "improved" — it is the frozen baseline.  The
only departures from the source are this docstring, the imports, the
module logger, the name ``ipac`` for the unmodified ``_ipac`` entry
(its telemetry wrapper is left out), and ``_run_pac`` no longer handing
the parent's VM index to ``trusted``, which lost that keyword with its
only caller (the sub-problem builds the same index on first use), and
the two ``IPACConfig`` fields the configuration lost written in at the
values every run used: an overload threshold of 1.0 times the maximum
capacity and the default ``LiveMigrationModel``.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.migration import LiveMigrationModel
from repro.core.optimizer.ipac import IPACConfig
from repro.core.optimizer.migration import AllowAllPolicy, MigrationContext
from repro.core.optimizer.minslack import PlacementList
from repro.core.optimizer.pac import PACConfig, build_plan_from_mapping
from repro.core.optimizer.types import (
    Migration,
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    VMInfo,
)
from repro.obs import get_telemetry

__all__ = ["ipac"]

logger = logging.getLogger(__name__)


def ipac(problem: PlacementProblem, config: IPACConfig | None = None) -> PlacementPlan:
    """The reference invocation (no telemetry wrapper)."""
    return _ipac(problem, config or IPACConfig())


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

    remaining = PlacementList([vm_by_id[i] for i in sorted(place_set)])
    for server in problem.servers_by_efficiency():
        if not remaining:
            break
        free_cpu = (
            server.max_capacity_ghz * config.target_utilization
            - base_cpu[server.server_id]
        )
        free_mem = server.memory_mb - base_mem[server.server_id]
        if free_cpu <= 0 or free_mem < 0:
            continue
        chosen, _ = remaining.take_for_server(free_cpu, free_mem, config.minslack)
        for vm in chosen:
            final_mapping[vm.vm_id] = server.server_id

    unplaced = sorted(vm.vm_id for vm in remaining.vms)
    # An unplaceable VM keeps its old host rather than being dropped.
    for vm_id in unplaced:
        if vm_id in problem.mapping:
            final_mapping[vm_id] = problem.mapping[vm_id]
    return build_plan_from_mapping(problem, final_mapping, unplaced)


def _hosting_servers(mapping: Dict[str, str]) -> Set[str]:
    return set(mapping.values())


def _estimate_power_w(problem: PlacementProblem, mapping: Dict[str, str]) -> float:
    """Steady-state power estimate of a candidate mapping (hosting
    servers only; non-hosting servers sleep at the end of the plan, and
    their constant sleep draw cancels out of any comparison)."""
    from tests.oracles.exhaustive import placement_power_w

    return placement_power_w(problem, mapping, include_sleepers=False)


def _marginal_w_per_ghz(server: ServerInfo) -> float:
    return (server.busy_w - server.idle_w) / server.max_capacity_ghz


def _run_pac(
    problem: PlacementProblem,
    mapping: Dict[str, str],
    vm_ids: List[str],
    config: PACConfig,
    exclude_server: Optional[str] = None,
) -> Tuple[Dict[str, str], List[str]]:
    """Place *vm_ids* via PAC against *mapping*; return (mapping, unplaced).

    ``exclude_server`` removes one (empty) server from consideration —
    used when draining, so that a victim tied in efficiency with its
    peers cannot simply receive its own VMs back.

    The sub-problem is a restriction of a snapshot that was already
    validated, so it is built with :meth:`PlacementProblem.trusted`,
    inheriting the parent's lookup indices and efficiency order instead
    of re-deriving them every drain round.
    """
    servers = problem.servers
    servers_sorted = problem.servers_by_efficiency()
    if exclude_server is not None:
        servers = tuple(s for s in servers if s.server_id != exclude_server)
        servers_sorted = tuple(
            s for s in servers_sorted if s.server_id != exclude_server
        )
    sub = PlacementProblem.trusted(
        servers,
        problem.vms,
        mapping,
        servers_sorted=servers_sorted,
    )
    plan = pac(sub, vm_ids, config)
    return plan.final_mapping, plan.unplaced


#: Ejection-chain repair bounds: how many displacements one chain may
#: make and how many search nodes one repair invocation may expand.
#: Small instances are solved exactly well within these bounds; at
#: production scale the search degrades gracefully into a bounded
#: best-effort pass.
_REPAIR_MAX_DEPTH = 8
_REPAIR_NODE_BUDGET = 5000


def _repair_unplaced(
    problem: PlacementProblem,
    mapping: Dict[str, str],
    unplaced: List[str],
    config: PACConfig,
) -> Tuple[Dict[str, str], List[str], Set[str]]:
    """Home still-unplaced VMs, displacing hosted VMs if necessary.

    PAC packs each server to minimise unused CPU without looking ahead,
    so a memory-heavy VM can end up homeless while the cluster as a
    whole has plenty of room — if some already-placed VMs stepped
    aside.  For each unplaced VM this runs a depth- and budget-bounded
    ejection-chain search: place the VM directly if any server has
    room, otherwise eject one hosted VM to make room and recursively
    re-home the ejected VM the same way.  All orderings are
    deterministic (efficiency order for servers, demand order for
    ejection candidates).  Returns the updated mapping, the VMs that
    still fit nowhere, and the ids of every VM displaced to make room
    (their moves are mandatory — they exist only to home an
    otherwise-homeless VM).
    """
    vm_by_id = problem.vm_index()
    loads: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
    mems: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
    for vm_id, sid in mapping.items():
        loads[sid] += vm_by_id[vm_id].demand_ghz
        mems[sid] += vm_by_id[vm_id].memory_mb
    servers = problem.servers_by_efficiency()
    budget = [_REPAIR_NODE_BUDGET]

    def fits(vm: VMInfo, server: ServerInfo, extra_cpu: float = 0.0,
             extra_mem: float = 0.0) -> bool:
        cap = server.max_capacity_ghz * config.target_utilization
        return (
            loads[server.server_id] - extra_cpu + vm.demand_ghz <= cap + 1e-9
            and mems[server.server_id] - extra_mem + vm.memory_mb
            <= server.memory_mb + 1e-9
        )

    def assign(vm: VMInfo, sid: str) -> None:
        old = mapping.get(vm.vm_id)
        if old is not None:
            loads[old] -= vm.demand_ghz
            mems[old] -= vm.memory_mb
        mapping[vm.vm_id] = sid
        loads[sid] += vm.demand_ghz
        mems[sid] += vm.memory_mb

    def unassign(vm: VMInfo) -> Optional[str]:
        sid = mapping.pop(vm.vm_id, None)
        if sid is not None:
            loads[sid] -= vm.demand_ghz
            mems[sid] -= vm.memory_mb
        return sid

    def place(vm: VMInfo, depth: int, in_chain: Set[str]) -> bool:
        """Place *vm* somewhere, ejecting at most *depth* further VMs.

        On failure the mapping is restored exactly; on success every
        touched assignment is final.
        """
        # The direct scan is never cut short by the budget: a VM is
        # reported unplaced only if no server has room for it outright.
        for server in servers:
            if fits(vm, server):
                assign(vm, server.server_id)
                return True
        if depth <= 0 or budget[0] <= 0:
            return False
        budget[0] -= 1
        for server in servers:
            hosted = sorted(
                (u for u, sid in mapping.items() if sid == server.server_id),
                key=lambda u: (vm_by_id[u].demand_ghz, u),
            )
            for u in hosted:
                if u in in_chain:
                    continue
                uvm = vm_by_id[u]
                if not fits(vm, server, extra_cpu=uvm.demand_ghz,
                            extra_mem=uvm.memory_mb):
                    continue
                if budget[0] <= 0:
                    return False
                budget[0] -= 1
                prior = unassign(uvm)
                assign(vm, server.server_id)
                if place(uvm, depth - 1, in_chain | {vm.vm_id, u}):
                    return True
                unassign(vm)
                if prior is not None:
                    assign(uvm, prior)
        return False

    before = dict(mapping)
    still: List[str] = []
    order = sorted(unplaced, key=lambda v: (-vm_by_id[v].demand_ghz, v))
    for vm_id in order:
        vm = vm_by_id[vm_id]
        # An unplaceable VM may sit on its old (overloaded) host as a
        # fallback; ignore that footprint while searching for a home.
        fallback = unassign(vm)
        if not place(vm, _REPAIR_MAX_DEPTH, {vm_id}):
            still.append(vm_id)
            if fallback is not None:
                assign(vm, fallback)
    moved = {
        vm_id for vm_id, sid in mapping.items()
        if vm_id not in unplaced and before.get(vm_id) != sid
    }
    return mapping, still, moved


def _ipac(problem: PlacementProblem, config: IPACConfig) -> PlacementPlan:
    """The three IPAC phases, factored out of the traced entry point."""
    tel = get_telemetry()
    vm_by_id: Dict[str, VMInfo] = problem.vm_index()
    server_by_id: Dict[str, ServerInfo] = problem.server_index()
    mapping: Dict[str, str] = dict(problem.mapping)
    unplaced: List[str] = []

    # Never placed yet (e.g. newly arrived applications): mandatory.
    new_vm_ids = sorted(v.vm_id for v in problem.vms if v.vm_id not in mapping)

    # ---- Phase A: overload relief (mandatory) -------------------------
    with tel.span("ipac.overload_relief"):
        loads: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
        hosted_on: Dict[str, List[str]] = {}
        for vm_id, sid in mapping.items():
            loads[sid] += vm_by_id[vm_id].demand_ghz
            hosted_on.setdefault(sid, []).append(vm_id)
        mandatory_ids: Set[str] = set(new_vm_ids)
        evictions: List[str] = list(new_vm_ids)
        for server in problem.servers:
            sid = server.server_id
            limit = server.max_capacity_ghz * 1.0
            if loads[sid] <= limit + 1e-9:
                continue
            target = server.max_capacity_ghz * config.pac.target_utilization
            # Smallest first; the id breaks ties, so the order does not
            # depend on the mapping's iteration order.
            hosted = sorted(hosted_on[sid], key=lambda v: (vm_by_id[v].demand_ghz, v))
            for vm_id in hosted:
                if loads[sid] <= target + 1e-9:
                    break
                loads[sid] -= vm_by_id[vm_id].demand_ghz
                del mapping[vm_id]
                evictions.append(vm_id)
                mandatory_ids.add(vm_id)
        if evictions:
            mapping, failed = _run_pac(problem, mapping, evictions, config.pac)
            unplaced.extend(failed)

    # ---- Phase B: incremental drain loop ------------------------------
    drained: Set[str] = set()
    rounds_attempted = 0
    rounds_accepted = 0
    max_rounds = (
        len(problem.servers) if config.max_drain_rounds is None else config.max_drain_rounds
    )
    with tel.span("ipac.drain") as drain_span:
        current_power = _estimate_power_w(problem, mapping)
        while rounds_attempted < max_rounds:
            hosting = _hosting_servers(mapping)
            candidates = sorted(
                (server_by_id[sid] for sid in hosting if sid not in drained),
                key=lambda s: (s.efficiency, s.server_id),
            )
            if not candidates:
                break
            victim = candidates[0]
            drained.add(victim.server_id)
            rounds_attempted += 1
            trial = dict(mapping)
            drain_ids = sorted(
                vm_id for vm_id, sid in trial.items() if sid == victim.server_id
            )
            for vm_id in drain_ids:
                del trial[vm_id]
            trial, failed = _run_pac(
                problem, trial, drain_ids, config.pac,
                exclude_server=victim.server_id,
            )
            if failed:
                continue  # could not rehome everything; keep current mapping
            trial_power = _estimate_power_w(problem, trial)
            if trial_power < current_power - 1e-9:
                mapping = trial
                current_power = trial_power
                rounds_accepted += 1
            else:
                break  # no further improvement: stop (paper's loop condition)
        drain_span.annotate(attempted=rounds_attempted, accepted=rounds_accepted)

    # ---- Retry VMs that found no home in phase A ----------------------
    # Draining can free capacity (a victim's VMs consolidate elsewhere,
    # leaving an efficient server empty), so a VM that fit nowhere before
    # the drain loop may fit now.  These VMs are hosted nowhere, so
    # placing them beats any power consideration.  When a straight
    # retry still fails, attempt a single-relocation repair: move one
    # hosted VM aside to open the needed room.  Repair moves become
    # mandatory — they exist only to home an otherwise-homeless VM.
    if unplaced:
        mapping, unplaced = _run_pac(problem, mapping, unplaced, config.pac)
    if unplaced:
        mapping, unplaced, repair_moved = _repair_unplaced(
            problem, mapping, unplaced, config.pac
        )
        mandatory_ids.update(repair_moved)

    # ---- Phase C: cost-aware migration filter -------------------------
    with tel.span("ipac.cost_filter") as filter_span:
        policy = config.cost_policy or AllowAllPolicy()
        policy.reset()
        rejected = 0
        moves: List[Migration] = []
        for vm in problem.vms:
            old = problem.mapping.get(vm.vm_id)
            new = mapping.get(vm.vm_id)
            if new is not None and new != old:
                moves.append(Migration(vm.vm_id, old, new))
        # Mandatory moves first so budget-style policies fund them first.
        moves.sort(key=lambda m: (m.vm_id not in mandatory_ids, m.vm_id))

        # Per-source drained demand, for sharing out the shutdown benefit.
        drained_demand: Dict[str, float] = {}
        final_hosting = _hosting_servers(mapping)
        for mig in moves:
            if mig.source_id is not None:
                drained_demand[mig.source_id] = (
                    drained_demand.get(mig.source_id, 0.0)
                    + vm_by_id[mig.vm_id].demand_ghz
                )

        loads_after: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
        mem_after: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
        for vm_id, sid in mapping.items():
            loads_after[sid] += vm_by_id[vm_id].demand_ghz
            mem_after[sid] += vm_by_id[vm_id].memory_mb

        for mig in moves:
            mandatory = mig.vm_id in mandatory_ids or mig.source_id is None
            vm = vm_by_id[mig.vm_id]
            source = server_by_id.get(mig.source_id) if mig.source_id else None
            target = server_by_id[mig.target_id]
            benefit = 0.0
            if source is not None:
                benefit = vm.demand_ghz * (
                    _marginal_w_per_ghz(source) - _marginal_w_per_ghz(target)
                )
                if source.server_id not in final_hosting:
                    share = vm.demand_ghz / max(drained_demand.get(source.server_id, 0.0), 1e-12)
                    benefit += (source.idle_w - source.sleep_w) * min(share, 1.0)
            context = MigrationContext(
                migration=mig,
                vm=vm,
                source=source,
                target=target,
                estimated_benefit_w=benefit,
                migration_model=LiveMigrationModel(),
                mandatory=mandatory,
            )
            if policy.allow(context):
                continue
            # Roll back if the source can still take the VM back.
            assert mig.source_id is not None  # mandatory moves are never rejected
            src = server_by_id[mig.source_id]
            fits_cpu = (
                loads_after[mig.source_id] + vm.demand_ghz
                <= src.max_capacity_ghz * config.pac.target_utilization + 1e-9
            )
            fits_mem = mem_after[mig.source_id] + vm.memory_mb <= src.memory_mb + 1e-9
            if fits_cpu and fits_mem:
                loads_after[mig.target_id] -= vm.demand_ghz
                mem_after[mig.target_id] -= vm.memory_mb
                loads_after[mig.source_id] += vm.demand_ghz
                mem_after[mig.source_id] += vm.memory_mb
                mapping[mig.vm_id] = mig.source_id
                rejected += 1
        filter_span.annotate(offered=len(moves), rejected=rejected)

    plan = build_plan_from_mapping(problem, mapping, unplaced)
    plan.info.update(
        {
            "drain_rounds_attempted": float(rounds_attempted),
            "drain_rounds_accepted": float(rounds_accepted),
            "overload_evictions": float(len(evictions) - len(new_vm_ids)),
            "new_placements": float(len(new_vm_ids)),
            "migrations_rejected": float(rejected),
        }
    )
    logger.debug(
        "ipac: %d moves (%d mandatory evictions, %d new), drain %d/%d accepted, "
        "%d rejected by cost policy",
        plan.n_moves, len(evictions) - len(new_vm_ids), len(new_vm_ids),
        rounds_accepted, rounds_attempted, rejected,
    )
    return plan
