"""The data center: servers, VMs, placement, and power accounting.

A single source of truth for "which VM runs where".  The optimizer
(:mod:`repro.core.optimizer`) computes placement *plans* against a
read-only snapshot and the data center applies them, logging every
migration and sleep/wake transition — mirroring the paper's "VM
migration interface" and "sleep/active commands" (Fig. 1).
"""

from __future__ import annotations

from typing import Callable, Dict, KeysView, List, Optional

from repro.cluster.application import Application
from repro.cluster.migration import (
    LiveMigrationModel,
    MigrationFailedError,
    MigrationRecord,
)
from repro.cluster.server import Server
from repro.cluster.vm import VM
from repro.util.fold import left_sum

__all__ = ["DataCenter"]

#: Prices every live migration's duration and traffic.
_MIGRATION_MODEL = LiveMigrationModel()

# Fault-injection hook: (vm_id, source_id, target_id) -> True to disrupt
# this migration attempt.  Installed by repro.faults.FaultInjector while
# a migration_failure fault is active; None means migrations always
# succeed (the default, fault-free world).
MigrationDisruptor = Callable[[str, str, str], bool]


class DataCenter:
    """Mutable placement state plus power/energy accounting helpers."""

    def __init__(self):
        self.servers: Dict[str, Server] = {}
        self.vms: Dict[str, VM] = {}
        self.applications: Dict[str, Application] = {}
        self._vm_to_server: Dict[str, str] = {}
        self._server_vms: Dict[str, set] = {}
        self.migration_log: List[MigrationRecord] = []
        self.wake_count = 0
        self.sleep_count = 0
        self.migration_disruptor: Optional[MigrationDisruptor] = None
        self.failure_count = 0
        self.recovery_count = 0

    # -- registration --------------------------------------------------

    def add_server(self, server: Server) -> Server:
        """Register a server; ids must be unique."""
        if server.server_id in self.servers:
            raise ValueError(f"duplicate server id {server.server_id!r}")
        self.servers[server.server_id] = server
        self._server_vms[server.server_id] = set()
        return server

    def add_vm(self, vm: VM) -> VM:
        """Register a VM (unplaced); ids must be unique."""
        if vm.vm_id in self.vms:
            raise ValueError(f"duplicate VM id {vm.vm_id!r}")
        self.vms[vm.vm_id] = vm
        return vm

    def add_application(self, app: Application) -> Application:
        """Register an application whose VMs are already registered."""
        if app.app_id in self.applications:
            raise ValueError(f"duplicate application id {app.app_id!r}")
        for vm_id in app.vm_ids:
            if vm_id not in self.vms:
                raise ValueError(f"application {app.app_id} references unknown VM {vm_id}")
        self.applications[app.app_id] = app
        return app

    # -- placement queries ----------------------------------------------

    @property
    def server_ids(self) -> KeysView[str]:
        """Ids of every registered server."""
        return self.servers.keys()

    def server_of(self, vm_id: str) -> Optional[str]:
        """Id of the server hosting *vm_id*, or None if unplaced."""
        return self._vm_to_server.get(vm_id)

    def vms_on(self, server_id: str) -> List[VM]:
        """VM objects currently placed on *server_id*."""
        self._require_server(server_id)
        return [self.vms[v] for v in sorted(self._server_vms[server_id])]

    def mapping(self) -> Dict[str, str]:
        """Copy of the current vm_id -> server_id mapping."""
        return dict(self._vm_to_server)

    def total_demand_ghz(self, server_id: str) -> float:
        """Sum of hosted VMs' controller-set CPU demands."""
        return left_sum(vm.demand_ghz for vm in self.vms_on(server_id))

    def total_memory_mb(self, server_id: str) -> int:
        """Sum of hosted VMs' memory footprints."""
        return left_sum(vm.memory_mb for vm in self.vms_on(server_id))

    def active_servers(self) -> List[Server]:
        """Servers currently in the active state, id-ordered."""
        return [s for _, s in sorted(self.servers.items()) if s.active]

    def overloaded_servers(self, headroom: float = 1.0) -> List[str]:
        """Ids of servers whose demand exceeds max capacity / headroom.

        ``headroom > 1`` flags servers *before* they saturate (e.g. 1.1
        flags at 91% of max capacity), mirroring the trigger IPAC uses to
        build its migration list.
        """
        if headroom <= 0:
            raise ValueError(f"headroom must be positive, got {headroom}")
        out = []
        for sid, server in sorted(self.servers.items()):
            if not server.active and not self._server_vms[sid]:
                continue
            if self.total_demand_ghz(sid) > server.max_capacity_ghz / headroom + 1e-9:
                out.append(sid)
        return out

    # -- placement mutations ---------------------------------------------

    def place(self, vm_id: str, server_id: str) -> None:
        """Place an unplaced VM on a server (initial deployment)."""
        vm = self._require_vm(vm_id)
        server = self._require_server(server_id)
        if vm_id in self._vm_to_server:
            raise ValueError(
                f"VM {vm_id} is already placed on {self._vm_to_server[vm_id]}; "
                "use migrate()"
            )
        if not server.active:
            raise ValueError(f"cannot place {vm_id} on sleeping server {server_id}")
        if self.total_memory_mb(server_id) + vm.memory_mb > server.spec.memory_mb:
            raise ValueError(
                f"placing {vm_id} ({vm.memory_mb} MB) on {server_id} would exceed "
                f"its {server.spec.memory_mb} MB of memory"
            )
        self._vm_to_server[vm_id] = server_id
        self._server_vms[server_id].add(vm_id)

    def unplace(self, vm_id: str) -> None:
        """Remove a VM from its server (e.g. application retired)."""
        self._require_vm(vm_id)
        sid = self._vm_to_server.pop(vm_id, None)
        if sid is not None:
            self._server_vms[sid].discard(vm_id)

    def migrate(
        self, vm_id: str, target_id: str, time_s: float = 0.0
    ) -> MigrationRecord:
        """Live-migrate a placed VM to another active server.

        Returns the :class:`MigrationRecord` (also appended to
        ``migration_log``).  The move is atomic at this modelling level;
        its duration and traffic come from ``_MIGRATION_MODEL``.
        """
        vm = self._require_vm(vm_id)
        target = self._require_server(target_id)
        source_id = self._vm_to_server.get(vm_id)
        if source_id is None:
            raise ValueError(f"VM {vm_id} is not placed; use place()")
        if source_id == target_id:
            raise ValueError(f"VM {vm_id} is already on {target_id}")
        if not target.active:
            raise ValueError(f"cannot migrate {vm_id} to sleeping server {target_id}")
        if self.total_memory_mb(target_id) + vm.memory_mb > target.spec.memory_mb:
            raise ValueError(
                f"migrating {vm_id} to {target_id} would exceed its memory"
            )
        if self.migration_disruptor is not None and self.migration_disruptor(
            vm_id, source_id, target_id
        ):
            raise MigrationFailedError(vm_id, source_id, target_id)
        self._server_vms[source_id].discard(vm_id)
        self._server_vms[target_id].add(vm_id)
        self._vm_to_server[vm_id] = target_id
        record = MigrationRecord(
            vm_id=vm_id,
            source_id=source_id,
            target_id=target_id,
            time_s=float(time_s),
            duration_s=_MIGRATION_MODEL.duration_s(vm.memory_mb),
            bytes_moved_mb=_MIGRATION_MODEL.bytes_moved_mb(vm.memory_mb),
        )
        self.migration_log.append(record)
        return record

    def sleep_server(self, server_id: str) -> None:
        """Put an *empty* server to sleep."""
        server = self._require_server(server_id)
        if self._server_vms[server_id]:
            raise ValueError(
                f"cannot sleep {server_id}: still hosts {sorted(self._server_vms[server_id])}"
            )
        if server.active:
            server.sleep()
            self.sleep_count += 1

    def wake_server(self, server_id: str) -> None:
        """Wake a sleeping server (no-op if already active)."""
        server = self._require_server(server_id)
        if server.failed:
            raise ValueError(f"cannot wake crashed server {server_id}")
        if not server.active:
            server.wake()
            self.wake_count += 1

    # -- faults ----------------------------------------------------------

    def fail_server(self, server_id: str) -> List[str]:
        """Crash a server: evict every hosted VM, mark it failed.

        Returns the evicted VM ids (id-ordered) so the caller — normally
        :meth:`repro.core.manager.PowerManager.emergency_evacuate` via
        the fault injector — can re-place them.  Evicted VMs lose their
        allocation (they are not running anywhere) but keep their
        demand, which is what the evacuation packer places against.
        Idempotent on an already-failed server (returns ``[]``).
        """
        server = self._require_server(server_id)
        if server.failed:
            return []
        evicted = sorted(self._server_vms[server_id])
        for vm_id in evicted:
            self._vm_to_server.pop(vm_id, None)
            self.vms[vm_id].allocation_ghz = 0.0
        self._server_vms[server_id].clear()
        server.fail()
        self.failure_count += 1
        return evicted

    def recover_server(self, server_id: str) -> None:
        """Repair a crashed server; it rejoins the *sleeping* pool.

        The next optimizer invocation (or an explicit
        :meth:`wake_server`) decides whether to bring it back into
        service.  No-op if the server is not failed.
        """
        server = self._require_server(server_id)
        if not server.failed:
            return
        server.repair()
        server.unthrottle()
        self.recovery_count += 1

    def throttle_server(self, server_id: str, fraction: float) -> None:
        """Cap a server's capacity at *fraction* of nominal."""
        self._require_server(server_id).throttle(fraction)

    def unthrottle_server(self, server_id: str) -> None:
        """Restore a server's nominal capacity."""
        self._require_server(server_id).unthrottle()

    # -- power -----------------------------------------------------------

    def total_power_w(self, used_ghz_by_server: Optional[Dict[str, float]] = None) -> float:
        """Instantaneous total power.

        ``used_ghz_by_server`` gives each server's actually-consumed GHz;
        servers absent from the dict are assumed to consume their hosted
        VMs' full demand (capped at current capacity).
        """
        total = 0.0
        for sid, server in self.servers.items():
            if used_ghz_by_server is not None and sid in used_ghz_by_server:
                used = used_ghz_by_server[sid]
            else:
                used = min(self.total_demand_ghz(sid), server.capacity_ghz)
            total += server.power_w(used)
        return total

    # -- internals ---------------------------------------------------

    def _require_server(self, server_id: str) -> Server:
        try:
            return self.servers[server_id]
        except KeyError:
            raise KeyError(f"unknown server id {server_id!r}") from None

    def _require_vm(self, vm_id: str) -> VM:
        try:
            return self.vms[vm_id]
        except KeyError:
            raise KeyError(f"unknown VM id {vm_id!r}") from None
