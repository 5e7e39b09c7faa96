"""Incremental Power-Aware Consolidation — IPAC (paper §V).

Each invocation:

1. **Overload relief** — servers whose demand exceeds their capacity
   evict their smallest VMs into the migration list until they fit;
   these moves are mandatory.
2. **Incremental drain** — the VMs on the least power-efficient server
   currently hosting VMs are added to the migration list; PAC places the
   list (the victim itself excluded from receiving); the drain is kept
   when the estimated cluster power decreases and reverted otherwise,
   repeating with the next least efficient server until no improvement
   remains.  The paper phrases the loop condition as "until the number
   of active servers no longer decreases" — a proxy for its stated
   objective ("the total power consumption of the cluster as the design
   goal"); evaluating the power estimate directly is equivalent when a
   drain sleeps a server, and additionally rejects degenerate drains
   (e.g. relocating the only hosting server's VMs onto a worse machine
   merely because an idle server happened to still be awake).
3. **Cost-aware filter** — every resulting non-mandatory migration is
   offered to the administrator's :class:`MigrationCostPolicy` with an
   estimated power benefit; rejected moves are rolled back when safe.

The invocation keeps one per-server :class:`_Ledger` from start to end:
each server's hosted VM ids in mapping order and their CPU and memory
totals.  Every placement — the overload evictions, each drain round,
the retry after the drain — runs PAC's server walk
(:func:`~repro.core.optimizer.pac.walk_servers`) against the ledger's
totals, and a drain round's power estimate changes only the victim's
and the receivers' terms.  No step re-derives loads, power or a plan
from the whole mapping.  Each total is the same left fold from ``0.0``
over the same VMs in the same order that a pass over the mapping would
make, so the plan is exactly the one such passes produce.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.migration import LiveMigrationModel
from repro.core.optimizer.migration import (
    AllowAllPolicy,
    MigrationContext,
    MigrationCostPolicy,
)
from repro.core.optimizer.pac import PACConfig, build_plan_from_mapping, walk_servers
from repro.core.optimizer.types import (
    Migration,
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    VMInfo,
)
from repro.obs import get_telemetry

__all__ = ["IPACConfig", "ipac"]

logger = logging.getLogger(__name__)

#: The migration cost model offered to the cost policy.
_MIGRATION_MODEL = LiveMigrationModel()


@dataclass(frozen=True)
class IPACConfig:
    """IPAC tuning.

    A server counts as overloaded when its demand exceeds its maximum
    capacity (it literally cannot host its VMs); evictions stop once the
    server is back under ``pac.target_utilization``.
    ``max_drain_rounds`` bounds the drain loop (None = number of
    servers).
    """

    pac: PACConfig = field(default_factory=PACConfig)
    max_drain_rounds: Optional[int] = None
    cost_policy: Optional[MigrationCostPolicy] = None

    def __post_init__(self):
        if self.max_drain_rounds is not None and self.max_drain_rounds < 0:
            raise ValueError(
                f"max_drain_rounds must be >= 0, got {self.max_drain_rounds}"
            )


def _marginal_w_per_ghz(server: ServerInfo) -> float:
    return (server.busy_w - server.idle_w) / server.max_capacity_ghz


def _power_w(server: ServerInfo, load: float) -> float:
    """Steady-state draw of a hosting server at *load* GHz."""
    util = min(load / server.max_capacity_ghz, 1.0)
    return server.idle_w + (server.busy_w - server.idle_w) * util


def _fold_power(terms: List[Optional[float]]) -> float:
    """Left fold from ``0.0`` over the hosting servers' draws."""
    total = 0.0
    for term in terms:
        if term is not None:
            total += term
    return total


class _Ledger:
    """Per-server state of one IPAC invocation.

    ``hosted[sid]`` lists the ids of the VMs on ``sid`` in mapping
    insertion order and exists only while that list is non-empty: a
    server is *hosting* exactly when it has a key (one whose VMs all
    have zero demand hosts at load ``0.0``).  ``cpu[sid]`` and
    ``mem[sid]`` are left folds from ``0.0`` over that list — the
    additions a pass over the mapping makes — so a cached total equals
    a recomputed one, :meth:`add` continues the fold, and a server that
    loses VMs is re-folded over what it keeps.
    """

    __slots__ = ("vm_by_id", "hosted", "cpu", "mem")

    def __init__(self, problem: PlacementProblem, mapping: Dict[str, str]):
        self.vm_by_id = vm_by_id = problem.vm_index()
        self.hosted: Dict[str, List[str]] = {}
        self.cpu: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
        self.mem: Dict[str, float] = {s.server_id: 0.0 for s in problem.servers}
        hosted, cpu, mem = self.hosted, self.cpu, self.mem
        for vm_id, sid in mapping.items():
            vm = vm_by_id[vm_id]
            cpu[sid] += vm.demand_ghz
            mem[sid] += vm.memory_mb
            if sid in hosted:
                hosted[sid].append(vm_id)
            else:
                hosted[sid] = [vm_id]

    def add(self, vm: VMInfo, sid: str) -> None:
        """Append *vm* to *sid*'s list and continue its folds."""
        hosted = self.hosted.get(sid)
        if hosted is None:
            self.hosted[sid] = [vm.vm_id]
        else:
            hosted.append(vm.vm_id)
        self.cpu[sid] += vm.demand_ghz
        self.mem[sid] += vm.memory_mb

    def remove(self, sid: str, vm_ids: Set[str]) -> None:
        """Take *vm_ids* off *sid* and re-fold its totals over the rest."""
        keep = [vm_id for vm_id in self.hosted[sid] if vm_id not in vm_ids]
        if keep:
            self.hosted[sid] = keep
        else:
            del self.hosted[sid]
        self.refold(sid)

    def refold(self, sid: str) -> None:
        """Recompute *sid*'s totals from ``0.0`` over its list."""
        cpu = mem = 0.0
        for vm_id in self.hosted.get(sid, ()):
            vm = self.vm_by_id[vm_id]
            cpu += vm.demand_ghz
            mem += vm.memory_mb
        self.cpu[sid] = cpu
        self.mem[sid] = mem


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
    ledger: _Ledger,
    unplaced: Sequence[str],
    config: PACConfig,
) -> Tuple[List[str], Set[str]]:
    """Home still-unplaced VMs, displacing hosted VMs if necessary.

    PAC packs each server to minimise unused CPU without looking ahead,
    so a memory-heavy VM can end up homeless while the cluster as a
    whole has plenty of room — if some already-placed VMs stepped
    aside.  For each unplaced VM this runs a depth- and budget-bounded
    ejection-chain search: place the VM directly if any server has
    room, otherwise eject one hosted VM to make room and recursively
    re-home the ejected VM the same way.  All orderings are
    deterministic (efficiency order for servers, demand order for
    ejection candidates).

    *mapping* and the ledger's hosted lists are updated in step, so a
    search node reads a server's VMs off its list instead of scanning
    the mapping; the search keeps its own ``+=`` / ``-=`` load
    arithmetic, and the ledger's totals of every server it touched are
    re-folded at the end.  Returns the VMs that still fit nowhere and
    the ids of every VM displaced to make room (their moves are
    mandatory — they exist only to home an otherwise-homeless VM).
    """
    vm_by_id = ledger.vm_by_id
    hosted_on = ledger.hosted
    loads = dict(ledger.cpu)
    mems = dict(ledger.mem)
    servers = problem.servers_by_efficiency()
    budget = [_REPAIR_NODE_BUDGET]
    # Each VM the search moves, with its host before the repair.
    first_host: Dict[str, Optional[str]] = {}

    def fits(vm: VMInfo, server: ServerInfo, extra_cpu: float = 0.0,
             extra_mem: float = 0.0) -> bool:
        cap = server.max_capacity_ghz * config.target_utilization
        return (
            loads[server.server_id] - extra_cpu + vm.demand_ghz <= cap + 1e-9
            and mems[server.server_id] - extra_mem + vm.memory_mb
            <= server.memory_mb + 1e-9
        )

    def assign(vm: VMInfo, sid: str) -> None:
        # Only ever called for an unmapped VM: every caller unassigns
        # it (or a failed search restored it unassigned) first.
        mapping[vm.vm_id] = sid
        loads[sid] += vm.demand_ghz
        mems[sid] += vm.memory_mb
        hosted_on.setdefault(sid, []).append(vm.vm_id)

    def unassign(vm: VMInfo) -> Optional[str]:
        sid = mapping.pop(vm.vm_id, None)
        first_host.setdefault(vm.vm_id, sid)
        if sid is not None:
            loads[sid] -= vm.demand_ghz
            mems[sid] -= vm.memory_mb
            hosted = hosted_on[sid]
            hosted.remove(vm.vm_id)
            if not hosted:
                del hosted_on[sid]
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
                hosted_on.get(server.server_id, ()),
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
    touched = {sid for sid in first_host.values() if sid is not None}
    touched.update(mapping[vm_id] for vm_id in first_host if vm_id in mapping)
    for sid in touched:
        ledger.refold(sid)
    skip = set(unplaced)
    moved = {
        vm_id for vm_id, old in first_host.items()
        if vm_id not in skip and vm_id in mapping and mapping[vm_id] != old
    }
    return still, moved


def ipac(problem: PlacementProblem, config: IPACConfig | None = None) -> PlacementPlan:
    """One IPAC invocation; returns the placement plan.

    ``plan.info`` carries diagnostics: drain rounds attempted/accepted,
    number of mandatory (overload) evictions, and migrations rejected by
    the cost policy.  Telemetry: traced as the ``ipac.plan`` span (with
    nested ``ipac.overload_relief`` / ``ipac.drain`` / ``ipac.cost_filter``
    phase spans) and mirrored into ``ipac.*`` counters.
    """
    config = config or IPACConfig()
    tel = get_telemetry()
    if not tel.enabled:
        return _ipac(problem, config)
    with tel.span(
        "ipac.plan", vms=len(problem.vms), servers=len(problem.servers)
    ) as sp:
        plan = _ipac(problem, config)
        sp.annotate(moves=plan.n_moves, wake=len(plan.wake), sleep=len(plan.sleep))
    tel.count("ipac.plans")
    for key in ("drain_rounds_attempted", "drain_rounds_accepted",
                "overload_evictions", "migrations_rejected"):
        tel.count(f"ipac.{key}", plan.info.get(key, 0.0))
    return plan


def _ipac(problem: PlacementProblem, config: IPACConfig) -> PlacementPlan:
    """The three IPAC phases, factored out of the traced entry point."""
    tel = get_telemetry()
    vm_by_id: Dict[str, VMInfo] = problem.vm_index()
    server_by_id: Dict[str, ServerInfo] = problem.server_index()
    by_efficiency = problem.servers_by_efficiency()
    mapping: Dict[str, str] = dict(problem.mapping)
    unplaced: List[str] = []

    def walk(vm_ids: List[str], exclude: Optional[str] = None):
        """PAC's server walk for *vm_ids* against the ledger's totals."""
        return walk_servers(
            by_efficiency, [vm_by_id[v] for v in sorted(vm_ids)],
            ledger.cpu, ledger.mem, config.pac, exclude,
        )

    def settle(placed: List[Tuple[VMInfo, str]]) -> None:
        """Record a walk's placements, in walk order, in both books."""
        for vm, sid in placed:
            mapping[vm.vm_id] = sid
            ledger.add(vm, sid)

    # Never placed yet (e.g. newly arrived applications): mandatory.
    new_vm_ids = sorted(v.vm_id for v in problem.vms if v.vm_id not in mapping)

    # ---- Phase A: overload relief (mandatory) -------------------------
    with tel.span("ipac.overload_relief"):
        ledger = _Ledger(problem, mapping)
        mandatory_ids: Set[str] = set(new_vm_ids)
        evictions: List[str] = list(new_vm_ids)
        for server in problem.servers:
            sid = server.server_id
            load = ledger.cpu[sid]
            if load <= server.max_capacity_ghz + 1e-9:
                continue
            target = server.max_capacity_ghz * config.pac.target_utilization
            # Smallest first; the id breaks ties, so the order does not
            # depend on the mapping's iteration order.  The stopping rule
            # keeps its own running subtraction; the ledger re-folds.
            hosted = sorted(ledger.hosted[sid], key=lambda v: (vm_by_id[v].demand_ghz, v))
            evicted: Set[str] = set()
            for vm_id in hosted:
                if load <= target + 1e-9:
                    break
                load -= vm_by_id[vm_id].demand_ghz
                del mapping[vm_id]
                evictions.append(vm_id)
                mandatory_ids.add(vm_id)
                evicted.add(vm_id)
            ledger.remove(sid, evicted)
        if evictions:
            placed, failed = walk(evictions)
            settle(placed)
            unplaced.extend(failed)

    # ---- Phase B: incremental drain loop ------------------------------
    drained: Set[str] = set()
    rounds_attempted = 0
    rounds_accepted = 0
    max_rounds = (
        len(problem.servers) if config.max_drain_rounds is None else config.max_drain_rounds
    )
    with tel.span("ipac.drain") as drain_span:
        # The estimate sums, over problem.servers in order, the draw of
        # every hosting server (a sleeping server's constant draw cancels
        # out of any comparison).  ``terms`` holds each server's summand,
        # None when it hosts nothing; a trial replaces the victim's and
        # the receivers' and folds the list again from 0.0.
        position = {s.server_id: i for i, s in enumerate(problem.servers)}
        terms: List[Optional[float]] = [
            _power_w(s, ledger.cpu[s.server_id]) if s.server_id in ledger.hosted else None
            for s in problem.servers
        ]
        current_power = _fold_power(terms)
        # Drain candidates, least efficient first (ties by id).
        ascending = sorted(problem.servers, key=lambda s: (s.efficiency, s.server_id))
        while rounds_attempted < max_rounds:
            victim = next(
                (
                    s.server_id for s in ascending
                    if s.server_id in ledger.hosted and s.server_id not in drained
                ),
                None,
            )
            if victim is None:
                break
            drained.add(victim)
            rounds_attempted += 1
            drain_ids = ledger.hosted[victim]
            placed, failed = walk(drain_ids, exclude=victim)
            if failed:
                continue  # could not rehome everything; keep current mapping
            # Each receiver's load continues its fold in walk order.
            loads: Dict[str, float] = {}
            for vm, sid in placed:
                loads[sid] = loads.get(sid, ledger.cpu[sid]) + vm.demand_ghz
            trial_terms = list(terms)
            trial_terms[position[victim]] = None
            for sid, load in loads.items():
                trial_terms[position[sid]] = _power_w(server_by_id[sid], load)
            trial_power = _fold_power(trial_terms)
            if trial_power < current_power - 1e-9:
                for vm_id in drain_ids:
                    del mapping[vm_id]
                ledger.remove(victim, set(drain_ids))
                settle(placed)
                terms = trial_terms
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
        placed, unplaced = walk(unplaced)
        settle(placed)
    if unplaced:
        unplaced, repair_moved = _repair_unplaced(
            problem, mapping, ledger, unplaced, config.pac
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
        final_hosting = set(ledger.hosted)
        for mig in moves:
            if mig.source_id is not None:
                drained_demand[mig.source_id] = (
                    drained_demand.get(mig.source_id, 0.0)
                    + vm_by_id[mig.vm_id].demand_ghz
                )

        # The ledger is not read after this point; rollbacks adjust its
        # totals in place.
        loads_after = ledger.cpu
        mem_after = ledger.mem

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
                migration_model=_MIGRATION_MODEL,
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

