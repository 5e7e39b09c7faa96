"""The integrated two-level power management solution (paper Fig. 1).

``PowerManager`` wires together, over one :class:`~repro.cluster.datacenter.DataCenter`:

* one :class:`~repro.core.controller.ResponseTimeController` per
  application (short time scale — every control period);
* one :class:`~repro.core.arbitrator.CPUResourceArbitrator` pass per
  active server (same period: DVFS + share allocation);
* one data-center-level optimizer invocation (long time scale —
  IPAC by default, pluggable for baselines such as pMapper).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.cluster.datacenter import DataCenter
from repro.core.arbitrator import ArbitrationResult, CPUResourceArbitrator
from repro.core.controller.response_time_controller import ResponseTimeController
from repro.core.fleet import FleetControlStep
from repro.core.optimizer.ipac import IPACConfig, ipac
from repro.core.optimizer.pac import PACConfig, pac
from repro.core.optimizer.types import (
    ApplyReport,
    PlacementPlan,
    PlacementProblem,
    apply_plan,
    snapshot_datacenter,
)
from repro.obs import get_telemetry

__all__ = ["ControlStepResult", "PowerManager"]

logger = logging.getLogger(__name__)

Optimizer = Callable[[PlacementProblem], PlacementPlan]


@dataclass
class ControlStepResult:
    """Everything one control period produced.

    ``granted_ghz`` maps app_id -> per-tier allocations actually granted
    (post-arbitration); ``arbitration`` maps server_id -> its result;
    ``overloaded_servers`` lists hosts whose demand exceeded capacity.
    """

    granted_ghz: Dict[str, np.ndarray] = field(default_factory=dict)
    arbitration: Dict[str, ArbitrationResult] = field(default_factory=dict)
    overloaded_servers: List[str] = field(default_factory=list)


class PowerManager:
    """Coordinates controllers, arbitrators, and the optimizer.

    ``control_mode`` selects the application-level control path:
    ``"fleet"`` (default, the production path) batches every app's
    MPC solve through the grouped kernel
    (:class:`repro.core.fleet.FleetControlStep` —
    :func:`~repro.control.mpc_core.solve_mpc_batch`); ``"scalar"``
    runs the historical per-app loop.  The two are allclose-equivalent
    (stacked multi-RHS LAPACK reorders floating-point sums), not
    bit-identical — golden-hash reproductions pin ``"scalar"``.
    """

    def __init__(
        self,
        dc: DataCenter,
        optimizer: Optional[Optimizer] = None,
        control_mode: str = "fleet",
    ):
        if control_mode not in ("fleet", "scalar"):
            raise ValueError(
                f"control_mode must be 'fleet' or 'scalar', got {control_mode!r}"
            )
        self.dc = dc
        self.optimizer: Optimizer = optimizer or (lambda p: ipac(p, IPACConfig()))
        self.arbitrator = CPUResourceArbitrator()
        self.controllers: Dict[str, ResponseTimeController] = {}
        self.control_mode = control_mode
        # Live view over self.controllers: registrations are picked up.
        self._fleet = FleetControlStep(self.controllers)
        #: Grouping stats of the most recent fleet period (telemetry).
        self.last_fleet_stats: Optional[Dict[str, object]] = None

    def register_controller(self, app_id: str, controller: ResponseTimeController) -> None:
        """Attach the response-time controller for a registered app."""
        app = self.dc.applications.get(app_id)
        if app is None:
            raise KeyError(f"unknown application id {app_id!r}")
        if controller.model.n_inputs != app.n_tiers:
            raise ValueError(
                f"controller has {controller.model.n_inputs} inputs but "
                f"{app_id} has {app.n_tiers} tiers"
            )
        self.controllers[app_id] = controller

    def control_step(
        self,
        measurements: Mapping[str, float],
        used_ghz: Optional[Mapping[str, "np.ndarray"]] = None,
        time_s: float = float("nan"),
    ) -> ControlStepResult:
        """Run one control period across all applications and servers.

        ``measurements`` maps app_id -> measured 90-percentile response
        time (ms; NaN allowed); ``used_ghz`` optionally maps app_id ->
        measured per-tier CPU consumption (feeds each controller's
        utilization-band guard).  Updates VM demands and allocations in
        the data center, applies DVFS, and feeds the granted (possibly
        rationed) allocations back to each controller (anti-windup).
        ``time_s`` stamps the emitted telemetry (simulated seconds); it
        does not affect control.
        """
        tel = get_telemetry()
        if not tel.enabled:
            return self._control_step(measurements, used_ghz)
        with tel.span(
            "manager.control_step",
            apps=len(measurements),
            control_mode=self.control_mode,
        ):
            result = self._control_step(measurements, used_ghz)
        tel.count("manager.control_steps")
        if result.overloaded_servers:
            logger.warning(
                "control step t=%.1fs: overloaded servers %s",
                time_s, result.overloaded_servers,
            )
        tel.event(
            "control_period",
            time_s=time_s,
            apps={
                app_id: {
                    "rt_ms": float(measurements[app_id]),
                    "setpoint_ms": self.controllers[app_id].config.setpoint_ms,
                    "granted_ghz": [float(g) for g in granted],
                    "demand_ghz": [
                        float(self.dc.vms[vm_id].demand_ghz)
                        for vm_id in self.dc.applications[app_id].vm_ids
                    ],
                }
                for app_id, granted in result.granted_ghz.items()
            },
            overloaded=list(result.overloaded_servers),
            freqs_ghz={
                sid: arb.freq_ghz for sid, arb in result.arbitration.items()
            },
        )
        return result

    def _control_step(
        self,
        measurements: Mapping[str, float],
        used_ghz: Optional[Mapping[str, "np.ndarray"]] = None,
    ) -> ControlStepResult:
        """The three-phase control period, factored out of the traced entry."""
        dc = self.dc
        # 0. Validate the whole batch before mutating anything: a missing
        # controller discovered mid-loop would otherwise leave the data
        # center half-updated (some apps' VM demands written, others not).
        unregistered = sorted(a for a in measurements if a not in self.controllers)
        if unregistered:
            raise KeyError(
                f"no controller registered for {unregistered!r}; "
                "control step aborted before any demand was written"
            )
        # 1. Application level: controllers emit new per-VM demands —
        # fleet-batched through the grouped kernels (production path)
        # or the scalar reference loop.
        if self.control_mode == "fleet":
            demands_by_app = self._fleet_demands(measurements, used_ghz)
            for app_id, demands in demands_by_app.items():
                app = dc.applications[app_id]
                for vm_id, demand in zip(app.vm_ids, demands):
                    dc.vms[vm_id].set_demand(float(demand))
        else:
            for app_id, rt_ms in measurements.items():
                controller = self.controllers[app_id]
                usage = used_ghz.get(app_id) if used_ghz is not None else None
                demands = controller.update(rt_ms, used_ghz=usage)
                app = dc.applications[app_id]
                for vm_id, demand in zip(app.vm_ids, demands):
                    dc.vms[vm_id].set_demand(float(demand))

        # 2. Server level: arbitrate demands, choose DVFS, grant shares.
        result = ControlStepResult()
        for server in dc.active_servers():
            hosted = dc.vms_on(server.server_id)
            if not hosted:
                # Empty active server idles at its lowest frequency.
                server.set_frequency(server.spec.cpu.min_freq_ghz)
                continue
            demands = {vm.vm_id: vm.demand_ghz for vm in hosted}
            arb = self.arbitrator.arbitrate(server, demands)
            result.arbitration[server.server_id] = arb
            if arb.overloaded:
                result.overloaded_servers.append(server.server_id)
            for vm in hosted:
                vm.allocation_ghz = arb.allocations_ghz[vm.vm_id]

        # 3. Feed granted allocations back to controllers and plants.
        # (unchanged across modes: anti-windup and plant wiring are
        # identical whether demands came from the fleet or the loop)
        for app_id in measurements:
            app = dc.applications[app_id]
            granted = np.asarray(
                [dc.vms[vm_id].allocation_ghz for vm_id in app.vm_ids]
            )
            result.granted_ghz[app_id] = granted
            self.controllers[app_id].notify_allocation(granted)
            if app.plant is not None:
                app.plant.set_allocations(granted)
        return result

    def _fleet_demands(
        self,
        measurements: Mapping[str, float],
        used_ghz: Optional[Mapping[str, "np.ndarray"]] = None,
    ) -> Dict[str, np.ndarray]:
        """Fleet-batched phase 1 plus its grouping telemetry.

        The numerics are one :meth:`FleetControlStep.run` call in both
        branches; telemetry only observes.  Emits the
        ``controller.batch_groups`` counter and a
        ``manager.fleet_control`` span annotated with the per-group
        sizes so ``repro obs profile`` can show how well the fleet
        grouped, plus how many solves softened their terminal
        constraint and were proved unreachable beforehand.
        """
        tel = get_telemetry()
        if not tel.enabled:
            demands, self.last_fleet_stats = self._fleet.run(
                measurements, used_ghz
            )
            return demands
        with tel.span(
            "manager.fleet_control", apps=len(measurements)
        ) as sp:
            demands, stats = self._fleet.run(measurements, used_ghz)
            groups = list(stats.get("mpc_groups", []))
            sp.annotate(
                batch_groups=len(groups),
                batch_group_sizes=groups,
                held=stats.get("held", 0),
                softened=stats.get("softened", 0),
                unreachable=stats.get("unreachable", 0),
            )
        self.last_fleet_stats = stats
        tel.count("controller.batch_groups", len(groups))
        return demands

    def optimize(self, time_s: float = 0.0) -> PlacementPlan:
        """One optimizer invocation: snapshot, plan, apply."""
        tel = get_telemetry()
        problem = snapshot_datacenter(self.dc)
        with tel.span("optimizer.invoke", time_s=time_s) as sp:
            plan = self.optimizer(problem)
            sp.annotate(moves=plan.n_moves, wake=len(plan.wake), sleep=len(plan.sleep))
        report = apply_plan(self.dc, plan, time_s=time_s)
        logger.info(
            "optimizer t=%.1fs: %d moves (%d completed), wake %d, sleep %d, "
            "%d active servers",
            time_s, plan.n_moves, report.n_completed, len(plan.wake),
            len(plan.sleep), len(self.dc.active_servers()),
        )
        self._emit_apply_telemetry(plan, report, time_s)
        return plan

    def _emit_apply_telemetry(
        self, plan: PlacementPlan, report: ApplyReport, time_s: float
    ) -> None:
        """Events + counters for one applied plan (no-op when disabled)."""
        tel = get_telemetry()
        if not tel.enabled:
            return
        tel.count("optimizer.invocations")
        tel.count("optimizer.migrations", report.n_completed)
        if report.failed_migrations:
            tel.count("optimizer.migrations_failed", len(report.failed_migrations))
        tel.event(
            "optimizer_invocation",
            time_s=time_s,
            moves=plan.n_moves,
            completed=report.n_completed,
            failed=len(report.failed_migrations),
            wake=len(plan.wake),
            sleep=len(plan.sleep),
            unplaced=len(plan.unplaced),
            active_servers=len(self.dc.active_servers()),
            migration_seconds=report.total_duration_s,
            migration_mb=report.total_bytes_moved_mb,
            info=dict(plan.info),
        )
        for rec in report.records:
            tel.event(
                "migration",
                time_s=rec.time_s,
                vm=rec.vm_id,
                source=rec.source_id,
                target=rec.target_id,
                duration_s=rec.duration_s,
                bytes_moved_mb=rec.bytes_moved_mb,
            )
        for mig in report.failed_migrations:
            tel.event(
                "migration_failed",
                time_s=time_s,
                vm=mig.vm_id,
                source=mig.source_id,
                target=mig.target_id,
            )
        for sid in plan.wake:
            if sid not in report.skipped_wake:
                tel.event("server_power", time_s=time_s, server=sid, state="on")
        for sid in plan.sleep:
            if sid not in report.skipped_sleep:
                tel.event("server_power", time_s=time_s, server=sid, state="off")

    def emergency_evacuate(
        self, failed_server_id: str, vm_ids: List[str], time_s: float = 0.0
    ) -> PlacementPlan:
        """Fast-path re-placement of VMs evicted by a server crash.

        Runs immediately (between control periods) instead of waiting
        for the next optimizer invocation: the evicted VMs are packed
        onto the surviving *active* servers via Minimum Slack (PAC on
        the active subset); anything that does not fit is placed in a
        second pass over the full problem, which may wake sleeping
        servers.  The crashed server itself is already excluded from the
        snapshot by :func:`snapshot_datacenter`.
        """
        tel = get_telemetry()
        vm_ids = sorted(vm_ids)
        placed: List[str] = []
        woke: List[str] = []
        with tel.span(
            "manager.evacuate", server=failed_server_id, vms=len(vm_ids)
        ) as sp:
            pac_cfg = PACConfig()
            problem = snapshot_datacenter(self.dc)
            active = tuple(s for s in problem.servers if s.active)
            stragglers = list(vm_ids)
            plan = PlacementPlan(final_mapping=dict(problem.mapping), unplaced=stragglers)
            if active:
                sub = PlacementProblem(active, problem.vms, dict(problem.mapping))
                plan = pac(sub, vm_ids, pac_cfg)
                plan.sleep = []  # evacuation never powers servers down
                report = apply_plan(self.dc, plan, time_s=time_s)
                placed.extend(report.placed)
                stragglers = list(plan.unplaced)
            if stragglers:
                # Survivors cannot absorb everything: recruit sleepers.
                problem = snapshot_datacenter(self.dc)
                plan = pac(problem, stragglers, pac_cfg)
                plan.sleep = []
                report = apply_plan(self.dc, plan, time_s=time_s)
                placed.extend(report.placed)
                woke.extend(s for s in plan.wake if s not in report.skipped_wake)
            sp.annotate(placed=len(placed), unplaced=len(plan.unplaced))
        logger.warning(
            "emergency evacuation of %s t=%.1fs: %d VMs, %d re-placed, %d unplaced",
            failed_server_id, time_s, len(vm_ids), len(placed), len(plan.unplaced),
        )
        if tel.enabled:
            tel.count("manager.evacuations")
            tel.count("manager.evacuated_vms", len(vm_ids))
            tel.event(
                "evacuation",
                time_s=time_s,
                server=failed_server_id,
                vms=vm_ids,
                placed=placed,
                unplaced=list(plan.unplaced),
                woke=woke,
            )
        return plan
