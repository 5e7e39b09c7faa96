"""Kernel backend for the trace-driven large-scale simulation.

This is the vectorized plant of the trace-driven simulation (paper
§VI-B, Fig. 6; :func:`run_largescale` runs one
:class:`~repro.sim.largescale.LargeScaleConfig` to completion),
structured as :class:`ControlPlane` phases:

``sense`` (trace demand snapshot) → ``faults`` (schedule transitions) →
``sysid`` (demand-forecaster update) → ``optimize`` (consolidation
epochs + on-demand relief) → ``actuate`` (DVFS selection, power and
energy accounting, telemetry).

The phase bodies are the legacy loop body, split — not rewritten — so a
kernel-driven run is bit-identical to the pre-kernel harness (pinned by
golden hashes in ``tests/test_engine.py`` / ``tests/test_perf_fastpath.py``).

Resume is the kernel's one strategy: :meth:`ControlPlane.restore`
replays the prefix with telemetry muted, then
:meth:`LargeScaleBackend.load_state_dict` verifies the replayed plant
against the checkpoint's snapshot (placement and counters exactly, the
VM population, series prefix and energy ledger by sha256).
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Dict, KeysView, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.catalog import STANDARD_SERVER_TYPES, make_server_pool
from repro.cluster.datacenter import MigrationDisruptor
from repro.cluster.migration import LiveMigrationModel
from repro.cluster.server import Server
from repro.core.optimizer.ipac import IPACConfig, ipac
from repro.core.optimizer.ondemand import OnDemandConfig, relieve_overloads
from repro.core.optimizer.pac import PACConfig, pac
from repro.core.optimizer.pmapper import PMapperConfig, pmapper
from repro.core.optimizer.types import (
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    make_vm_infos,
)
from repro.engine.checkpoint import array_sha256, encode_array, verify_snapshot
from repro.engine.kernel import ControlPlane, PeriodContext, Phase, run_session
from repro.faults import FaultInjector
from repro.obs import get_telemetry
from repro.sim.largescale import LargeScaleConfig, LargeScaleResult
from repro.traces.forecast import DemandForecaster, EwmaPeakForecaster, HoltForecaster
from repro.traces.trace import UtilizationTrace
from repro.util.fold import left_sum
from repro.util.rng import ensure_rng

__all__ = [
    "LargeScaleBackend",
    "build_largescale_engine",
    "draw_population",
    "run_largescale",
]

logger = logging.getLogger(__name__)


def _build_optimizer(config: LargeScaleConfig) -> Callable[[PlacementProblem], PlacementPlan]:
    """Scheme → consolidation callable (shared by CLI and benchmarks)."""
    pac_cfg = PACConfig(
        minslack=config.minslack_config(),
        target_utilization=config.target_utilization,
    )
    if config.scheme == "ipac":
        ipac_cfg = IPACConfig(pac=pac_cfg)
        return lambda p: ipac(p, ipac_cfg)
    if config.scheme in ("pac", "static_peak"):
        return lambda p: pac(p, None, pac_cfg)
    pm_cfg = PMapperConfig(target_utilization=config.target_utilization)
    return lambda p: pmapper(p, pm_cfg)


def draw_population(
    config: LargeScaleConfig, servers: Optional[Sequence[Server]] = None
) -> Tuple[np.ndarray, np.ndarray, List[Server]]:
    """A run's VM peaks and memories and its server pool, in the one draw
    order: peaks, then memories, from ``ensure_rng(seed)``; the pool from
    ``ensure_rng(seed + 1)`` unless *servers* is given.

    The sharded path draws the global population here and slices it, so
    a one-pod partition hands its pod exactly what a plain build draws.
    """
    generator = ensure_rng(config.seed)
    peaks = generator.uniform(*config.vm_peak_range_ghz, size=config.n_vms)
    memories = generator.choice(
        np.asarray(config.vm_memory_choices_mb, dtype=float), size=config.n_vms
    )
    if servers is None:
        servers = make_server_pool(
            config.n_servers,
            STANDARD_SERVER_TYPES,
            rng=config.seed + 1,
            type_weights=config.type_weights,
        )
    return peaks, memories, list(servers)


class LargeScaleBackend:
    """Vectorized trace-driven plant + its control-plane phases.

    ``vm_peaks``, ``vm_memories`` and ``servers`` together inject a pod's
    slice of a population drawn by :func:`draw_population`; without
    peaks and memories the backend draws its own.
    """

    def __init__(
        self,
        trace: UtilizationTrace,
        config: LargeScaleConfig,
        servers: Optional[Sequence[Server]] = None,
        optimizer: Optional[Callable[[PlacementProblem], PlacementPlan]] = None,
        vm_peaks: Optional[np.ndarray] = None,
        vm_memories: Optional[np.ndarray] = None,
        vm_id_start: int = 0,
    ):
        self.config = config
        if config.n_vms > trace.n_series:
            raise ValueError(
                f"trace has {trace.n_series} series < n_vms={config.n_vms}"
            )
        sub = trace.subset(config.n_vms)
        if vm_peaks is None and vm_memories is None:
            vm_peaks, vm_memories, servers = draw_population(config, servers)
        elif servers is None:
            raise ValueError("an injected VM population needs its servers")
        self.peaks = np.asarray(vm_peaks, dtype=float)
        self.memories = np.asarray(vm_memories, dtype=float)
        for name, values in (("vm_peaks", self.peaks), ("vm_memories", self.memories)):
            if values.shape != (config.n_vms,):
                raise ValueError(
                    f"{name} has shape {values.shape}, expected ({config.n_vms},)"
                )
        self.vm_id_start = int(vm_id_start)
        self.demands = sub.demands_ghz(self.peaks)  # (n_vms, n_steps)
        self.n_vms, self.n_steps = self.demands.shape
        self.dt_s = sub.interval_s
        self.server_list = list(servers)
        n_srv = self.n_srv = len(self.server_list)
        server_list = self.server_list

        # Nominal maximum capacity per server.
        self.srv_max_cap = np.asarray([s.spec.max_capacity_ghz for s in server_list])

        # Servers grouped by spec: `actuate` asks each spec's own CPU for
        # its DVFS levels and its own power model for the draw.
        spec_groups: Dict[int, List[int]] = {}
        for i, s in enumerate(server_list):
            spec_groups.setdefault(id(s.spec), []).append(i)
        self.spec_groups = [
            (np.asarray(idx), server_list[idx[0]].spec)
            for idx in spec_groups.values()
        ]

        # Static optimizer views, prebuilt in both power states so the
        # per-step snapshot only selects (never constructs) ServerInfo.
        self.server_infos, self.server_infos_on = (
            tuple(
                ServerInfo(
                    server_id=s.server_id,
                    max_capacity_ghz=self.srv_max_cap[i],
                    memory_mb=float(s.spec.memory_mb),
                    efficiency=s.spec.power_efficiency,
                    active=active,
                    idle_w=s.spec.power.idle_w,
                    busy_w=s.spec.power.busy_w,
                    sleep_w=s.spec.power.sleep_w,
                )
                for i, s in enumerate(server_list)
            )
            for active in (False, True)
        )
        # Efficiency order as indices (a property of the pool, not of
        # the per-step active flags).
        self.eff_order = sorted(
            range(n_srv),
            key=lambda i: (-server_list[i].spec.power_efficiency, server_list[i].server_id),
        )
        self.vm_ids = [
            f"vm{j + self.vm_id_start:05d}" for j in range(self.n_vms)
        ]
        self.sid_to_idx = {s.server_id: i for i, s in enumerate(server_list)}
        self.idx_to_sid = [s.server_id for s in server_list]
        self.sid_to_vmidx = {self.vm_ids[j]: j for j in range(self.n_vms)}

        self.optimizer = optimizer if optimizer is not None else _build_optimizer(config)

        # -- mutable run state ------------------------------------------
        self.steps_done = 0
        self.assignment = np.full(self.n_vms, -1, dtype=int)
        self.prev_hosting = np.zeros(n_srv, dtype=bool)
        self.migrations = 0
        self.overload_server_steps = 0
        self.unplaced_vm_steps = 0
        self.power_series = np.empty(self.n_steps)
        self.active_series = np.empty(self.n_steps, dtype=int)
        self.total_energy_wh = 0.0
        self.vm_energy_wh: Optional[np.ndarray] = (
            np.zeros(self.n_vms) if config.attribute_power else None
        )
        self.dvfs_on = config.dvfs_enabled

        # Fault state (only consulted when a schedule is attached): the
        # injector drives it through the FaultPlant methods below.
        self.srv_frac = np.ones(n_srv)
        self.srv_failed = np.zeros(n_srv, dtype=bool)
        self.migration_disruptor: Optional[MigrationDisruptor] = None

        self.migration_model = LiveMigrationModel(
            bandwidth_mbps=config.migration_bandwidth_mbps
        )
        self.migration_energy_wh = 0.0

        self.evac_pac_cfg = PACConfig(
            minslack=config.minslack_config(),
            target_utilization=config.target_utilization,
        )
        self.relief_config = OnDemandConfig(
            target_utilization=config.target_utilization,
            receiver_utilization=config.target_utilization,
        )
        self.relief_moves = 0
        self.forecaster: Optional[DemandForecaster] = None
        if config.provisioning == "ewma_peak":
            self.forecaster = EwmaPeakForecaster(self.n_vms)
        elif config.provisioning == "holt":
            self.forecaster = HoltForecaster(self.n_vms)
        self.static_peak = config.scheme == "static_peak"
        self.injector = (
            FaultInjector(self, config.faults, on_evacuate=self._evacuate)
            if config.faults else None
        )

    # -- engine wiring -------------------------------------------------

    @property
    def n_periods(self) -> int:
        return self.n_steps

    @property
    def period_s(self) -> float:
        return float(self.dt_s)

    def phases(self) -> List[Phase]:
        """The per-step pipeline, in legacy-loop order."""
        return [
            Phase("sense", self.sense),
            Phase("faults", self.inject),
            Phase("sysid", self.update_model),
            Phase("optimize", self.maybe_optimize),
            Phase("actuate", self.actuate),
        ]

    def start(self) -> None:
        """The run-header log line + telemetry event (fresh starts only)."""
        tel = get_telemetry()
        logger.info(
            "largescale run: scheme=%s, %d VMs on %d servers, %d steps of %.0fs",
            self.config.scheme, self.n_vms, self.n_srv, self.n_steps, self.dt_s,
        )
        tel.event(
            "run_config",
            harness="largescale",
            scheme=self.config.scheme,
            n_vms=self.n_vms,
            n_servers=self.n_srv,
            n_steps=self.n_steps,
            step_s=self.dt_s,
            dvfs=self.config.dvfs_enabled,
            provisioning=self.config.provisioning,
            seed=self.config.seed,
        )

    # -- phase bodies (split from the legacy loop, order preserved) ----

    def sense(self, ctx: PeriodContext) -> None:
        """Read the trace: this step's per-VM demand vector."""
        ctx.data["demand_now"] = self.demands[:, ctx.k]

    def inject(self, ctx: PeriodContext) -> None:
        """Apply every fault begin/end due at this trace step."""
        if self.injector is not None:
            self.injector.step(ctx.k * self.dt_s)

    def update_model(self, ctx: PeriodContext) -> None:
        """Feed the demand forecaster (sysid of the demand process)."""
        if self.forecaster is not None:
            self.forecaster.update(ctx.data["demand_now"])

    def maybe_optimize(self, ctx: PeriodContext) -> None:
        """Consolidation epochs + between-epoch on-demand relief."""
        config = self.config
        step = ctx.k
        demand_now = ctx.data["demand_now"]
        tel = get_telemetry()
        if step == 0 and self.static_peak:
            # One conservative placement against the whole-trace peak.
            plan = self._invoke_optimizer(
                self._build_problem(self.demands.max(axis=1)), 0.0
            )
            self.migrations += plan.n_moves
            self.migration_energy_wh += self._migration_energy(plan)
            self.assignment = self._apply_mapping(plan.final_mapping)
        elif not self.static_peak and step % config.optimize_every_steps == 0:
            demand_for_packing = demand_now
            if self.forecaster is not None:
                demand_for_packing = np.maximum(
                    demand_now,
                    self.forecaster.forecast_peak(config.optimize_every_steps),
                )
                demand_for_packing = np.minimum(demand_for_packing, self.peaks)
            plan = self._invoke_optimizer(
                self._build_problem(demand_for_packing), step * self.dt_s
            )
            self.migrations += plan.n_moves
            self.migration_energy_wh += self._migration_energy(plan)
            self.assignment = self._apply_mapping(plan.final_mapping, step * self.dt_s)
        elif config.ondemand_relief:
            placed_now = self.assignment >= 0
            loads_now = np.bincount(
                self.assignment[placed_now], weights=demand_now[placed_now],
                minlength=self.n_srv,
            )
            if np.any(loads_now > self.srv_max_cap + 1e-9):
                with tel.span("largescale.relief"):
                    plan = relieve_overloads(
                        self._build_problem(demand_now), self.relief_config
                    )
                self.relief_moves += plan.n_moves
                self.migration_energy_wh += self._migration_energy(plan)
                self.assignment = self._apply_mapping(
                    plan.final_mapping, step * self.dt_s
                )
                tel.event(
                    "relief", time_s=step * self.dt_s, moves=plan.n_moves,
                )

    def actuate(self, ctx: PeriodContext) -> None:
        """DVFS selection + power/energy accounting + step telemetry."""
        config = self.config
        step = ctx.k
        demand_now = ctx.data["demand_now"]
        n_srv = self.n_srv
        tel = get_telemetry()

        placed = self.assignment >= 0
        self.unplaced_vm_steps += int(np.count_nonzero(~placed))
        loads = np.bincount(
            self.assignment[placed], weights=demand_now[placed], minlength=n_srv
        )
        hosting_mask = (
            np.bincount(self.assignment[placed], minlength=n_srv) > 0
        )

        # DVFS: lowest level covering load / headroom (or pinned at max).
        # Under a thermal throttle every level delivers only srv_frac of
        # its nominal capacity, so the selection works in nominal terms
        # (needed / frac) and the chosen capacity is scaled back down.
        eff_max = (
            self.srv_max_cap if config.faults is None
            else self.srv_max_cap * self.srv_frac
        )
        cap = eff_max.copy()
        freq_ratio = np.ones(n_srv)
        if self.dvfs_on:
            needed = loads / config.arbitrator_headroom
            if config.faults is not None:
                needed = needed / np.maximum(self.srv_frac, 1e-9)
            for idx, spec in self.spec_groups:
                cpu = spec.cpu
                cap[idx] = cpu.lowest_level_for(needed[idx]) * cpu.cores
            if config.faults is not None:
                cap = cap * self.srv_frac
            # cap = freq * cores; ratio = nominal cap / nominal max cap.
            freq_ratio = cap / eff_max

        overload = loads > eff_max + 1e-9
        self.overload_server_steps += int(np.count_nonzero(overload & hosting_mask))
        util = np.minimum(loads / np.maximum(cap, 1e-12), 1.0)
        power = np.empty(n_srv)
        for idx, spec in self.spec_groups:
            power[idx] = spec.power.power_w(freq_ratio[idx], util[idx])
        power_total = float(power[hosting_mask].sum())
        self.power_series[step] = power_total
        self.active_series[step] = int(np.count_nonzero(hosting_mask))
        self.steps_done = step + 1
        self.total_energy_wh += power_total * self.dt_s / 3600.0
        if self.vm_energy_wh is not None and np.any(placed):
            # Split each hosting server's power among its VMs by demand
            # share (equal split when the whole server idles); per-server
            # shares sum to 1, so per-VM energy reconciles with the step
            # total by construction.
            owner = self.assignment[placed]
            counts = np.bincount(owner, minlength=n_srv)
            idle_srv = loads <= 0.0
            denom = np.where(idle_srv, np.maximum(counts, 1), loads)
            weights = np.where(idle_srv[owner], 1.0, demand_now[placed])
            share = weights / denom[owner]
            self.vm_energy_wh[placed] += (
                power[owner] * (self.dt_s / 3600.0) * share
            )
        # Tracked on every step, so a muted replay leaves it as a traced
        # run would (the mask is fresh each step: no copy needed).
        prev, self.prev_hosting = self.prev_hosting, hosting_mask
        if tel.enabled:
            time_s = step * self.dt_s
            # One event per server power transition (on <-> off).
            changed = np.nonzero(hosting_mask != prev)[0]
            for i in changed:
                tel.event(
                    "server_power",
                    time_s=time_s,
                    server=self.idx_to_sid[i],
                    state="on" if hosting_mask[i] else "off",
                )
            tel.event(
                "largescale.step",
                time_s=time_s,
                power_w=power_total,
                active_servers=int(self.active_series[step]),
                overloaded_servers=int(np.count_nonzero(overload & hosting_mask)),
            )

    # -- internals (verbatim from the legacy harness) ------------------

    def _invoke_optimizer(
        self, problem: PlacementProblem, time_s: float
    ) -> PlacementPlan:
        """Run the consolidation optimizer, traced + logged per invocation."""
        tel = get_telemetry()
        config = self.config
        with tel.span("largescale.optimize", scheme=config.scheme) as sp:
            plan = self.optimizer(problem)
            sp.annotate(moves=plan.n_moves, unplaced=len(plan.unplaced))
        if tel.enabled:
            tel.count("optimizer.invocations")
            tel.count("optimizer.migrations", plan.n_moves)
            tel.event(
                "optimizer_invocation",
                time_s=time_s,
                moves=plan.n_moves,
                wake=len(plan.wake),
                sleep=len(plan.sleep),
                unplaced=len(plan.unplaced),
                info=dict(plan.info),
            )
        logger.debug(
            "optimizer t=%.0fs: %d moves, wake %d, sleep %d",
            time_s, plan.n_moves, len(plan.wake), len(plan.sleep),
        )
        return plan

    def _build_problem(self, demand_now: np.ndarray) -> PlacementProblem:
        config = self.config
        vm_infos = make_vm_infos(self.vm_ids, demand_now, self.memories)
        mapping = {
            self.vm_ids[j]: self.idx_to_sid[self.assignment[j]]
            for j in range(self.n_vms)
            if self.assignment[j] >= 0
        }
        hosting = set(mapping.values())
        if config.faults is not None:
            # Crashed servers disappear from the snapshot; throttled
            # ones shrink (capacity and efficiency scale together).
            infos = tuple(
                ServerInfo(
                    si.server_id, si.max_capacity_ghz * self.srv_frac[i],
                    si.memory_mb, si.efficiency * self.srv_frac[i],
                    si.server_id in hosting,
                    si.idle_w, si.busy_w, si.sleep_w,
                )
                for i, si in enumerate(self.server_infos)
                if not self.srv_failed[i]
            )
            return PlacementProblem(infos, vm_infos, mapping)
        # Fault-free fast lane: select the prebuilt on/off snapshot per
        # server; the invariants hold by construction, so skip the
        # O(n) re-validation and attach the precomputed packing order.
        infos = tuple(
            self.server_infos_on[i] if self.idx_to_sid[i] in hosting
            else self.server_infos[i]
            for i in range(self.n_srv)
        )
        return PlacementProblem.trusted(
            infos,
            vm_infos,
            mapping,
            servers_sorted=tuple(infos[i] for i in self.eff_order),
        )

    def _apply_mapping(
        self, final_mapping: Dict[str, str], time_s: float = 0.0
    ) -> np.ndarray:
        tel = get_telemetry()
        new_assignment = np.full(self.n_vms, -1, dtype=int)
        for vm_id, sid in final_mapping.items():
            new_assignment[self.sid_to_vmidx[vm_id]] = self.sid_to_idx[sid]
        if self.migration_disruptor is not None:
            moved = np.nonzero(
                (self.assignment >= 0)
                & (new_assignment >= 0)
                & (self.assignment != new_assignment)
            )[0]
            for j in moved:
                source = self.idx_to_sid[self.assignment[j]]
                target = self.idx_to_sid[new_assignment[j]]
                if self.migration_disruptor(self.vm_ids[j], source, target):
                    tel.event(
                        "migration_failed", time_s=time_s, vm=self.vm_ids[j],
                        source=source, target=target,
                    )
                    new_assignment[j] = self.assignment[j]  # stays on source
        return new_assignment

    def _migration_energy(self, plan: PlacementPlan) -> float:
        """Source+target burn ``migration_overhead_w`` for each transfer."""
        total_s = left_sum(
            self.migration_model.duration_s(self.memories[self.sid_to_vmidx[m.vm_id]])
            for m in plan.migrations
            if m.source_id is not None
        )
        return 2.0 * self.config.migration_overhead_w * total_s / 3600.0

    # -- the fault plant (driven by the FaultInjector) -----------------

    @property
    def server_ids(self) -> KeysView[str]:
        """Ids of every server in the pool."""
        return self.sid_to_idx.keys()

    def fail_server(self, server_id: str) -> List[str]:
        """Crash a server: unplace its VMs; returns their ids."""
        i = self.sid_to_idx[server_id]
        self.srv_failed[i] = True
        evicted_idx = np.nonzero(self.assignment == i)[0]
        self.assignment[evicted_idx] = -1
        return [self.vm_ids[j] for j in evicted_idx]

    def recover_server(self, server_id: str) -> None:
        """Repair a crashed server; recovery also resets its throttle."""
        i = self.sid_to_idx[server_id]
        self.srv_failed[i] = False
        self.srv_frac[i] = 1.0

    def throttle_server(self, server_id: str, fraction: float) -> None:
        """Scale a server's capacity (and DVFS levels) by *fraction*."""
        self.srv_frac[self.sid_to_idx[server_id]] = fraction

    def unthrottle_server(self, server_id: str) -> None:
        """Restore a server's nominal capacity."""
        self.srv_frac[self.sid_to_idx[server_id]] = 1.0

    def _evacuate(self, server_id: str, evicted: List[str], time_s: float) -> None:
        """Emergency evacuation (the injector's ``on_evacuate``): Minimum
        Slack onto the survivors, without waiting for the optimizer."""
        tel = get_telemetry()
        # The faults phase runs before this step's actuate: steps_done
        # is the current step.
        demand_now = self.demands[:, self.steps_done]
        plan = pac(self._build_problem(demand_now), evicted, self.evac_pac_cfg)
        self.assignment = self._apply_mapping(plan.final_mapping, time_s)
        tel.count("manager.evacuations")
        tel.count("manager.evacuated_vms", len(evicted))
        tel.event(
            "evacuation", time_s=time_s, server=server_id, vms=evicted,
            placed=[v for v in evicted if v in plan.final_mapping],
            unplaced=list(plan.unplaced),
            woke=list(plan.wake),
        )

    # -- results -------------------------------------------------------

    def close(self) -> None:
        """Nothing to release (single process, arrays only)."""

    def result(self) -> LargeScaleResult:
        """Final aggregates (call once, after the engine finished)."""
        total_energy_wh = self.total_energy_wh + self.migration_energy_wh
        logger.info(
            "largescale run complete: %.1f Wh total (%.2f Wh/VM), %d migrations, "
            "%d overloaded server-steps",
            total_energy_wh, total_energy_wh / self.n_vms, self.migrations,
            self.overload_server_steps,
        )
        attribution = None
        if self.vm_energy_wh is not None:
            attribution = self._attribution_summary()
            get_telemetry().event("attribution_summary", attribution=attribution)
        return LargeScaleResult(
            scheme=self.config.scheme,
            n_vms=self.n_vms,
            n_steps=self.n_steps,
            step_s=self.dt_s,
            total_energy_wh=total_energy_wh,
            energy_per_vm_wh=total_energy_wh / self.n_vms,
            migrations=self.migrations,
            mean_active_servers=float(self.active_series.mean()),
            max_active_servers=int(self.active_series.max()),
            overload_server_steps=self.overload_server_steps,
            unplaced_vm_steps=self.unplaced_vm_steps,
            power_series_w=self.power_series,
            active_series=self.active_series,
            info={
                "dvfs": float(self.dvfs_on),
                "relief_moves": float(self.relief_moves),
                "migration_energy_wh": self.migration_energy_wh,
            },
            attribution=attribution,
        )

    def _attribution_summary(self) -> Dict[str, Any]:
        """Per-VM energy attribution, reconciled against the run total.

        Reconciliation is against ``total_energy_wh`` (datacenter power
        integrated over steps); migration energy is a separate ledger
        and reported as such.
        """
        energies = self.vm_energy_wh
        attributed = float(energies.sum())
        total = self.total_energy_wh
        error = abs(attributed - total) / abs(total) if total else 0.0
        top = np.argsort(energies)[::-1][:10]
        summary: Dict[str, Any] = {
            "n_periods": self.n_steps,
            "total_wh": total,
            "attributed_wh": attributed,
            "unattributed_wh": 0.0,
            "reconciliation_error": error,
            "migration_energy_wh": self.migration_energy_wh,
            "vm_mean_wh": float(energies.mean()),
            "vm_max_wh": float(energies.max()),
            "top_vms": [
                {"vm": self.vm_ids[j], "energy_wh": float(energies[j])}
                for j in top
            ],
        }
        if self.n_vms <= 64:  # full map only at inspectable scale
            summary["per_vm_wh"] = {
                self.vm_ids[j]: float(energies[j]) for j in range(self.n_vms)
            }
        return summary

    # -- checkpointing -------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot a resumed run's replay is verified against.

        Placement and counters are stored exactly; the VM population,
        the executed prefix of the series (the rest of the buffers is
        uninitialized) and the energy ledger as sha256s.  ``None`` marks
        a forecaster, fault schedule or ledger this run does not have.
        """
        done = self.steps_done
        return {
            "forecaster": (
                None if self.forecaster is None else self.config.provisioning
            ),
            "fault_cursor": (
                None if self.injector is None
                else self.injector.timeline.state_dict()
            ),
            "peaks": array_sha256(self.peaks),
            "memories": array_sha256(self.memories),
            "assignment": encode_array(self.assignment),
            "migrations": self.migrations,
            "relief_moves": self.relief_moves,
            "overload_server_steps": self.overload_server_steps,
            "unplaced_vm_steps": self.unplaced_vm_steps,
            "total_energy_wh": self.total_energy_wh,
            "migration_energy_wh": self.migration_energy_wh,
            "power_series": array_sha256(self.power_series[:done]),
            "active_series": array_sha256(self.active_series[:done]),
            "vm_energy_wh": (
                None if self.vm_energy_wh is None
                else array_sha256(self.vm_energy_wh)
            ),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Verify the replayed plant against the checkpoint's snapshot."""
        verify_snapshot(self.state_dict(), state, "largescale")


def build_largescale_engine(
    trace: UtilizationTrace,
    config: Optional[LargeScaleConfig] = None,
    servers: Optional[Sequence[Server]] = None,
    optimizer: Optional[Callable[[PlacementProblem], PlacementPlan]] = None,
) -> "tuple[ControlPlane, LargeScaleBackend]":
    """Build the kernel + backend pair for one large-scale run."""
    config = config or LargeScaleConfig()
    backend = LargeScaleBackend(trace, config, servers=servers, optimizer=optimizer)
    return ControlPlane.for_backend(backend, "largescale"), backend


def run_largescale(
    trace: UtilizationTrace,
    config: Optional[LargeScaleConfig] = None,
    servers: Optional[Sequence[Server]] = None,
    optimizer: Optional[Callable[[PlacementProblem], PlacementPlan]] = None,
) -> LargeScaleResult:
    """Run one scheme over the trace; returns energy and placement stats.

    ``servers`` may be supplied to share one pool across scheme
    comparisons (identical hardware for IPAC and pMapper); otherwise a
    pool is drawn from ``config.seed`` — so two runs with the same seed
    see the same hardware either way.  ``optimizer`` overrides the
    scheme-derived consolidation callable (for ablations with custom
    IPAC configurations, cost policies, or entirely new algorithms).
    Use :func:`build_largescale_engine` directly for stepwise execution
    or checkpoint/resume.
    """
    engine, backend = build_largescale_engine(
        trace, config, servers=servers, optimizer=optimizer
    )
    with run_session(engine, backend):
        engine.run()
        return backend.result()
