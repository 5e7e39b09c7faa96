"""Data types exchanged between the data center and the optimizers.

Optimizers work on immutable *snapshots* (:class:`PlacementProblem`) and
return *plans* (:class:`PlacementPlan`); only the
:class:`repro.cluster.datacenter.DataCenter` mutates real state.  This
separation makes the packing algorithms pure functions — directly
testable and trivially comparable against baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.datacenter import DataCenter
from repro.cluster.migration import MigrationFailedError, MigrationRecord
from repro.util.fold import left_sum

__all__ = [
    "VMInfo",
    "ServerInfo",
    "PlacementProblem",
    "Migration",
    "PlacementPlan",
    "ApplyReport",
    "make_vm_infos",
    "snapshot_datacenter",
    "apply_plan",
]

#: Tries per disrupted migration in :func:`apply_plan`, and the
#: simulated seconds between two tries.
_MIGRATION_ATTEMPTS = 3
_RETRY_BACKOFF_S = 5.0


@dataclass(frozen=True)
class VMInfo:
    """Optimizer view of a VM: id + resource requirements."""

    vm_id: str
    demand_ghz: float
    memory_mb: float

    def __post_init__(self):
        if self.demand_ghz < 0:
            raise ValueError(f"demand_ghz must be >= 0, got {self.demand_ghz}")
        if self.memory_mb < 0:
            raise ValueError(f"memory_mb must be >= 0, got {self.memory_mb}")


@dataclass(frozen=True)
class ServerInfo:
    """Optimizer view of a server: capacities, power, and state.

    ``efficiency`` is the paper's sort key — maximum total CPU capacity
    divided by maximum power consumption (GHz/W).

    ``idle_w`` / ``busy_w`` are the model's draws at 0% / 100% load at
    maximum frequency.  The optimizers (IPAC's drain estimate, the
    exhaustive oracle) plan on the line between them: a linear estimate
    of a possibly non-linear plant, which charges each server's own model.
    """

    server_id: str
    max_capacity_ghz: float
    memory_mb: float
    efficiency: float
    active: bool
    idle_w: float
    busy_w: float
    sleep_w: float

    def __post_init__(self):
        # The range checks are also false for NaN.
        if not 0 < self.max_capacity_ghz < math.inf:
            raise ValueError(
                f"max_capacity_ghz must be finite and > 0, got {self.max_capacity_ghz}"
            )
        if not 0 <= self.memory_mb < math.inf:
            raise ValueError(f"memory_mb must be finite and >= 0, got {self.memory_mb}")
        if not 0 < self.efficiency < math.inf:
            raise ValueError(f"efficiency must be finite and > 0, got {self.efficiency}")


@dataclass(frozen=True)
class PlacementProblem:
    """A read-only snapshot of the placement state.

    ``mapping`` sends each VM id to its current server id (absent =
    unplaced).  All referenced ids must exist in ``servers`` / ``vms``.
    """

    servers: Tuple[ServerInfo, ...]
    vms: Tuple[VMInfo, ...]
    mapping: Dict[str, str]

    def __post_init__(self):
        server_ids = {s.server_id for s in self.servers}
        vm_ids = {v.vm_id for v in self.vms}
        if len(server_ids) != len(self.servers):
            raise ValueError("duplicate server ids in problem")
        if len(vm_ids) != len(self.vms):
            raise ValueError("duplicate VM ids in problem")
        for vm_id, sid in self.mapping.items():
            if vm_id not in vm_ids:
                raise ValueError(f"mapping references unknown VM {vm_id!r}")
            if sid not in server_ids:
                raise ValueError(f"mapping references unknown server {sid!r}")

    @classmethod
    def trusted(
        cls,
        servers: Tuple[ServerInfo, ...],
        vms: Tuple[VMInfo, ...],
        mapping: Dict[str, str],
        *,
        servers_sorted: Optional[Tuple[ServerInfo, ...]] = None,
    ) -> "PlacementProblem":
        """Construct without re-running the consistency validation.

        For hot loops that build problems whose invariants hold by
        construction (the large-scale harness's per-step snapshots).
        ``servers_sorted`` optionally pre-seeds the efficiency order
        when the caller already knows it.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "servers", servers)
        object.__setattr__(obj, "vms", vms)
        object.__setattr__(obj, "mapping", mapping)
        if servers_sorted is not None:
            object.__setattr__(obj, "_servers_sorted", servers_sorted)
        return obj

    # Lookup indices and the efficiency order are built lazily on first
    # use and memoized on the (frozen) instance: snapshots are immutable,
    # so each is computed at most once per problem instead of per query.

    def vm_index(self) -> Dict[str, VMInfo]:
        """Memoized ``vm_id -> VMInfo`` lookup table."""
        cached = getattr(self, "_vm_index", None)
        if cached is None:
            cached = {v.vm_id: v for v in self.vms}
            object.__setattr__(self, "_vm_index", cached)
        return cached

    def server_index(self) -> Dict[str, ServerInfo]:
        """Memoized ``server_id -> ServerInfo`` lookup table."""
        cached = getattr(self, "_server_index", None)
        if cached is None:
            cached = {s.server_id: s for s in self.servers}
            object.__setattr__(self, "_server_index", cached)
        return cached

    def servers_by_efficiency(self) -> Tuple[ServerInfo, ...]:
        """Servers ordered most power-efficient first (GHz/W, ties by
        id) — the paper's packing order, memoized per snapshot."""
        cached = getattr(self, "_servers_sorted", None)
        if cached is None:
            cached = tuple(
                sorted(self.servers, key=lambda s: (-s.efficiency, s.server_id))
            )
            object.__setattr__(self, "_servers_sorted", cached)
        return cached

    def server_by_id(self, server_id: str) -> ServerInfo:
        """Look up a server snapshot by id."""
        try:
            return self.server_index()[server_id]
        except KeyError:
            raise KeyError(f"unknown server id {server_id!r}") from None

    def vm_by_id(self, vm_id: str) -> VMInfo:
        """Look up a VM snapshot by id."""
        try:
            return self.vm_index()[vm_id]
        except KeyError:
            raise KeyError(f"unknown VM id {vm_id!r}") from None

    def vms_on(self, server_id: str) -> List[VMInfo]:
        """VM snapshots currently mapped to *server_id*."""
        return [v for v in self.vms if self.mapping.get(v.vm_id) == server_id]

    def server_load_ghz(self, server_id: str) -> float:
        """Total demand currently mapped to *server_id*."""
        return left_sum(v.demand_ghz for v in self.vms_on(server_id))


@dataclass(frozen=True)
class Migration:
    """One proposed VM move.  ``source_id`` is None for initial placement."""

    vm_id: str
    source_id: Optional[str]
    target_id: str


@dataclass
class PlacementPlan:
    """The optimizer's output: moves plus power-state commands.

    ``final_mapping`` is the complete vm→server mapping after the plan;
    ``unplaced`` lists VMs no server could host (should be empty when
    the inactive pool is large enough).
    """

    migrations: List[Migration] = field(default_factory=list)
    wake: List[str] = field(default_factory=list)
    sleep: List[str] = field(default_factory=list)
    final_mapping: Dict[str, str] = field(default_factory=dict)
    unplaced: List[str] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def n_moves(self) -> int:
        """Number of true migrations (existing VMs changing hosts)."""
        return sum(1 for m in self.migrations if m.source_id is not None)


@dataclass
class ApplyReport:
    """What actually happened when a plan hit the live data center.

    In a fault-free world every planned move lands and the report is
    all-success.  Under fault injection, migrations can be disrupted
    (``failed_migrations``), wake commands can target crashed hardware
    (``skipped_wake``), and a sleep command for a server still hosting
    a VM whose outbound move failed is skipped (``skipped_sleep``).

    ``records`` carries one :class:`MigrationRecord` per completed
    migration, so callers can account each move's ``duration_s`` and
    ``bytes_moved_mb`` instead of treating it as instantaneous and
    free; ``retries`` counts failed attempts that a later attempt
    redeemed.
    """

    records: List[MigrationRecord] = field(default_factory=list)
    placed: List[str] = field(default_factory=list)
    failed_migrations: List[Migration] = field(default_factory=list)
    skipped_wake: List[str] = field(default_factory=list)
    skipped_sleep: List[str] = field(default_factory=list)
    retries: int = 0

    @property
    def n_completed(self) -> int:
        """Completed migrations (true moves, not initial placements)."""
        return len(self.records)

    @property
    def total_duration_s(self) -> float:
        """Aggregate live-migration wall time across completed moves."""
        return left_sum(r.duration_s for r in self.records)

    @property
    def total_bytes_moved_mb(self) -> float:
        """Aggregate migration traffic across completed moves."""
        return left_sum(r.bytes_moved_mb for r in self.records)


def make_vm_infos(
    vm_ids: Sequence[str],
    demands_ghz: Sequence[float],
    memories_mb: Sequence[float],
) -> Tuple[VMInfo, ...]:
    """Build a tuple of :class:`VMInfo` with the validation vectorized.

    Equivalent to constructing each ``VMInfo`` individually (same ids,
    same float values) but checks non-negativity once over the whole
    arrays — the per-step snapshot path of the large-scale harness
    rebuilds these for hundreds of VMs every trace step.
    """
    demands = np.asarray(demands_ghz, dtype=float)
    memories = np.asarray(memories_mb, dtype=float)
    if demands.shape != (len(vm_ids),) or memories.shape != (len(vm_ids),):
        raise ValueError(
            f"vm_ids/demands/memories lengths disagree: "
            f"{len(vm_ids)}/{demands.shape}/{memories.shape}"
        )
    if np.any(demands < 0):
        raise ValueError("demand_ghz must be >= 0 for every VM")
    if np.any(memories < 0):
        raise ValueError("memory_mb must be >= 0 for every VM")
    new = object.__new__
    setter = object.__setattr__
    out = []
    for vm_id, demand, memory in zip(vm_ids, demands.tolist(), memories.tolist()):
        vm = new(VMInfo)
        setter(vm, "vm_id", vm_id)
        setter(vm, "demand_ghz", demand)
        setter(vm, "memory_mb", memory)
        out.append(vm)
    return tuple(out)


def snapshot_datacenter(dc: DataCenter) -> PlacementProblem:
    """Build an optimizer snapshot from live data-center state.

    Crashed servers are excluded entirely: they cannot host, cannot be
    woken, and (post-eviction) host nothing, so the optimizer must not
    see them as a sleeping resource it could recruit.  Capacity and
    efficiency reflect any thermal throttle currently applied.
    """
    servers = tuple(
        ServerInfo(
            server_id=s.server_id,
            max_capacity_ghz=s.max_capacity_ghz,
            memory_mb=float(s.spec.memory_mb),
            efficiency=s.max_capacity_ghz / s.spec.power.busy_w,
            active=s.active,
            idle_w=s.spec.power.idle_w,
            busy_w=s.spec.power.busy_w,
            sleep_w=s.spec.power.sleep_w,
        )
        for _, s in sorted(dc.servers.items())
        if not s.failed
    )
    vms = tuple(
        VMInfo(vm_id=v.vm_id, demand_ghz=v.demand_ghz, memory_mb=float(v.memory_mb))
        for _, v in sorted(dc.vms.items())
    )
    return PlacementProblem(servers=servers, vms=vms, mapping=dc.mapping())


def apply_plan(
    dc: DataCenter,
    plan: PlacementPlan,
    time_s: float = 0.0,
) -> ApplyReport:
    """Execute a plan against the live data center.

    Order matters: wake targets first, then move VMs, then sleep the
    emptied servers — the same sequencing a real orchestrator needs.

    The execution is fault-tolerant:

    * wake commands for servers that crashed between planning and
      execution are skipped (the plan is stale, not wrong);
    * a disrupted migration (:class:`MigrationFailedError`) is tried
      up to ``_MIGRATION_ATTEMPTS`` times, each attempt stamped
      ``_RETRY_BACKOFF_S`` later; if every attempt fails the VM stays on
      its source (the failure is atomic, so rollback is a no-op) and the
      move is reported in ``failed_migrations``;
    * sleep commands are skipped for servers left non-empty by a failed
      outbound migration.

    Returns an :class:`ApplyReport` with per-migration records
    (duration, bytes moved) and everything that was skipped.
    """
    report = ApplyReport()
    for sid in plan.wake:
        if dc.servers[sid].failed:
            report.skipped_wake.append(sid)
            continue
        dc.wake_server(sid)
    for mig in plan.migrations:
        target = dc.servers[mig.target_id]
        if target.failed or not target.active:
            # Target crashed (or its wake was skipped) after planning.
            report.failed_migrations.append(mig)
            continue
        if mig.source_id is None:
            if dc.server_of(mig.vm_id) is None:
                dc.place(mig.vm_id, mig.target_id)
                report.placed.append(mig.vm_id)
            continue
        if dc.server_of(mig.vm_id) == mig.target_id:
            continue
        for attempt in range(1, _MIGRATION_ATTEMPTS + 1):
            try:
                record = dc.migrate(
                    mig.vm_id,
                    mig.target_id,
                    time_s=time_s + (attempt - 1) * _RETRY_BACKOFF_S,
                )
            except MigrationFailedError:
                if attempt == _MIGRATION_ATTEMPTS:
                    report.failed_migrations.append(mig)
                else:
                    report.retries += 1
            else:
                report.records.append(record)
                break
    for sid in plan.sleep:
        if dc.vms_on(sid):
            report.skipped_sleep.append(sid)
            continue
        dc.sleep_server(sid)
    return report
