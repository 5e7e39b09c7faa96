"""Kernel backend for the simulated hardware testbed.

This is the request-level DES rig of paper §VI-A (Figs. 2-5): eight
two-tier RUBBoS-like applications (16 VMs) on four identical Xen-class
servers, one response-time MPC controller per application, one CPU
arbitrator with DVFS per server.  :class:`TestbedBackend` builds the rig
from a :class:`~repro.sim.testbed.TestbedConfig` and contributes its
per-period loop as :class:`ControlPlane` phases:

``faults`` (injector transitions + plant degradation) → ``optimize``
(data-center optimizer epochs at scheduled times) → ``sense`` (workload
levels take effect, plants simulate one period, response times and CPU
usage are measured) → ``actuate`` (power accounting under the
frequencies in effect) → ``control`` (sensor-fault filtering, the
``PowerManager`` control step: controllers → arbitrators → allocations
pushed into the plants).

The phase bodies are the legacy loop body, split — not rewritten — so a
kernel-driven run is bit-identical to the pre-kernel harness (pinned by
golden hashes in ``tests/test_engine.py`` / ``tests/test_perf_fastpath.py``).

Checkpoint / resume
-------------------
The plant is a discrete-event simulation with in-flight request
processes — state that has no JSON form, and need not: like every
backend, a resume here is the kernel's one strategy.
:meth:`ControlPlane.restore` re-executes the prefix with telemetry muted
(bit-identical computation, no emission) and then calls
:meth:`TestbedBackend.load_state_dict`, which *verifies* the replayed
controller state, placement, server state, and fault cursor against the
checkpoint instead of assigning them.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

from repro.apps.rubbos import AppSpec, MultiTierApp
from repro.apps.workload import ConstantWorkload
from repro.cluster.application import Application
from repro.cluster.catalog import TESTBED_SERVER
from repro.cluster.datacenter import DataCenter
from repro.cluster.server import Server
from repro.cluster.vm import VM
from repro.control.arx import ARXModel
from repro.core.controller.response_time_controller import (
    ControllerConfig,
    ResponseTimeController,
)
from repro.core.manager import PowerManager
from repro.engine.checkpoint import verify_snapshot
from repro.engine.kernel import ControlPlane, PeriodContext, Phase, run_session
from repro.faults import FaultInjector
from repro.obs import Telemetry, get_telemetry
from repro.obs.attribution import EnergyAttributor
from repro.sim.metrics import SeriesRecorder
from repro.sim.testbed import TestbedConfig, TestbedResult
from repro.sysid.experiment import identify_app_model
from repro.sysid.fit import FitResult
from repro.util.fold import left_sum
from repro.util.rng import RngLike, ensure_rng, spawn_rngs

__all__ = ["TestbedBackend", "build_testbed_engine", "identify_testbed_model", "run_testbed"]

logger = logging.getLogger(__name__)


def identify_testbed_model(config: TestbedConfig, rng: RngLike = None) -> FitResult:
    """The paper's system-identification step (§IV-B): excite a
    standalone instance of the application and fit the ARX model.

    All controllers of a rig share this single identified model
    (``.model`` of the returned fit); Figs. 4 and 5 then demonstrate
    robustness to operating conditions the identification never saw.
    """
    rng = ensure_rng(rng if rng is not None else config.seed + 999)
    app = MultiTierApp(
        AppSpec.rubbos(max_alloc_ghz=config.max_alloc_ghz),
        [config.initial_alloc_ghz] * 2,
        concurrency=config.concurrency,
        rng=rng,
    )
    lo, hi = config.sysid_alloc_range
    try:
        return identify_app_model(
            app,
            n_periods=config.sysid_periods,
            period_s=config.control_period_s,
            alloc_lower=[lo] * 2,
            alloc_upper=[hi] * 2,
            rng=rng,
            metric=config.sla_metric,
        )
    finally:
        app.close()


class TestbedBackend:
    """DES testbed rig + its control-plane phases.

    ``model`` is the ARX model every controller shares; ``None``
    identifies one at build (:func:`identify_testbed_model`).  Every
    random stream of the rig is spawned from ``config.seed``.
    """

    def __init__(
        self,
        config: Optional[TestbedConfig] = None,
        model: Optional[ARXModel] = None,
    ):
        cfg = self.config = config or TestbedConfig()
        master = ensure_rng(cfg.seed)
        app_rngs = spawn_rngs(master, cfg.n_apps)
        self.model, self.sysid_r2 = model, float("nan")
        if model is None:
            fit = identify_testbed_model(cfg)
            self.model, self.sysid_r2 = fit.model, fit.r_squared
        self.workloads = {
            i: cfg.workloads.get(i, ConstantWorkload(cfg.concurrency))
            for i in range(cfg.n_apps)
        }
        self._build_rig(app_rngs)
        self.recorder = SeriesRecorder()
        self.evacuated_vms: set = set()
        self.injector: Optional[FaultInjector] = None
        if cfg.faults:
            def _on_evacuate(server_id: str, vm_ids: List[str], t: float) -> None:
                self.evacuated_vms.update(vm_ids)
                self.manager.emergency_evacuate(server_id, vm_ids, time_s=t)

            self.injector = FaultInjector(
                self.dc, cfg.faults, on_evacuate=_on_evacuate
            )
        self.optimize_times = sorted(float(t) for t in cfg.optimize_at_s)
        self._tracing = cfg.trace_requests_every >= 1
        if self._tracing:
            for i, plant in enumerate(self.plants):
                plant.enable_request_tracing(
                    cfg.trace_requests_every, app=f"app{i}"
                )
        self.attributor: Optional[EnergyAttributor] = (
            EnergyAttributor() if cfg.attribute_power else None
        )
        self._started = False

    def _build_rig(self, app_rngs: List[Any]) -> None:
        """Instantiate data center, plants, manager, and controllers."""
        cfg = self.config
        dc = self.dc = DataCenter()
        for s in range(cfg.n_servers):
            dc.add_server(Server(f"T{s}", TESTBED_SERVER, active=True))
        self.manager = PowerManager(dc, control_mode=cfg.control_mode)
        self.plants: List[MultiTierApp] = []
        scale_lo, scale_hi = cfg.demand_scale_range
        for i in range(cfg.n_apps):
            # Optional heterogeneity: each app's per-request CPU demands
            # are scaled by a per-app factor (real tenants differ; the
            # shared identified model must still control all of them).
            scale = float(app_rngs[i].uniform(scale_lo, scale_hi))
            spec = AppSpec.rubbos(
                name=f"app{i}",
                web_demand_ghz_s=0.020 * scale,
                db_demand_ghz_s=0.015 * scale,
                max_alloc_ghz=cfg.max_alloc_ghz,
            )
            spec = replace(
                spec,
                tiers=tuple(
                    replace(t, min_alloc_ghz=cfg.min_alloc_ghz) for t in spec.tiers
                ),
            )
            plant = MultiTierApp(
                spec,
                [cfg.initial_alloc_ghz] * 2,
                concurrency=self.workloads[i].level(0.0),
                rng=app_rngs[i],
            )
            self.plants.append(plant)
            vm_ids = [f"app{i}-web", f"app{i}-db"]
            for j, vm_id in enumerate(vm_ids):
                dc.add_vm(
                    VM(vm_id, app_id=f"app{i}", tier_index=j, memory_mb=1024,
                       demand_ghz=cfg.initial_alloc_ghz)
                )
                # Tiers spread round-robin: four VMs per server.
                dc.place(vm_id, f"T{(2 * i + j) % cfg.n_servers}")
            setpoint = cfg.setpoints_ms.get(i, cfg.setpoint_ms)
            dc.add_application(
                Application(f"app{i}", vm_ids, plant=plant, rt_setpoint_ms=setpoint)
            )
            if cfg.controlled:
                cc = ControllerConfig(
                    setpoint_ms=setpoint,
                    period_s=cfg.control_period_s,
                    # Under fault injection a NaN sample means the
                    # sensor dropped out, not starvation: hold.
                    missing_policy="hold" if cfg.faults else "pessimistic",
                )
                if not cfg.mpc_warm_start:
                    cc = replace(cc, mpc=replace(cc.mpc, warm_start=False))
                controller = ResponseTimeController(
                    self.model,
                    cc,
                    c_min=[cfg.min_alloc_ghz] * 2,
                    c_max=[cfg.max_alloc_ghz] * 2,
                    initial_alloc_ghz=[cfg.initial_alloc_ghz] * 2,
                )
                self.manager.register_controller(f"app{i}", controller)

    # -- engine wiring -------------------------------------------------

    @property
    def n_periods(self) -> int:
        return int(round(self.config.duration_s / self.config.control_period_s))

    @property
    def period_s(self) -> float:
        return float(self.config.control_period_s)

    def phases(self) -> List[Phase]:
        """The per-period pipeline, in legacy-loop order."""
        return [
            Phase("faults", self.inject),
            Phase("optimize", self.maybe_optimize),
            Phase("sense", self.sense),
            Phase("actuate", self.actuate),
            Phase("control", self.control),
        ]

    def start(self) -> None:
        """Run-header event + plant warmup; call once, before stepping."""
        if self._started:
            return
        self._started = True
        cfg = self.config
        tel = get_telemetry()
        logger.info(
            "testbed run: %d apps on %d servers, %.0fs at %.0fs periods, "
            "setpoint %.0f ms, %s control",
            cfg.n_apps, cfg.n_servers, cfg.duration_s, cfg.control_period_s,
            cfg.setpoint_ms, cfg.control_mode,
        )
        tel.event(
            "run_config",
            harness="testbed",
            n_apps=cfg.n_apps,
            n_servers=cfg.n_servers,
            duration_s=cfg.duration_s,
            control_period_s=cfg.control_period_s,
            setpoint_ms=cfg.setpoint_ms,
            controlled=cfg.controlled,
            seed=cfg.seed,
        )
        for plant in self.plants:
            plant.warmup(cfg.warmup_s)
            plant.drain_traces()  # warmup requests are not part of the run

    def prepare_replay(self, telemetry: Telemetry) -> None:
        """Replay-resume hook: the warmup is part of the replayed prefix
        (run muted; *telemetry*, the caller's scope, is not needed)."""
        self.start()

    # -- phase bodies (split from the legacy loop, order preserved) ----

    def inject(self, ctx: PeriodContext) -> None:
        """Fault transitions due this period (crashes trigger the
        manager's emergency evacuation inside the step)."""
        if self.injector is not None:
            self.injector.step(ctx.time_s)
            self._sync_plant_faults()

    def _sync_plant_faults(self) -> None:
        """Propagate cluster fault state into the request-level plants.

        Called right after the injector's transitions for a period: a
        tier whose VM is homeless serves nothing; a VM just re-placed by
        an emergency evacuation restarts (zero capacity for
        ``fault_downtime_s``, restored by an event of the plant's own
        simulation, :meth:`MultiTierApp.restart_tier`); a tier on a
        throttled host runs at the host's capacity fraction.
        """
        cfg, dc = self.config, self.dc
        for i, plant in enumerate(self.plants):
            app = dc.applications[f"app{i}"]
            for j, vm_id in enumerate(app.vm_ids):
                sid = dc.server_of(vm_id)
                if sid is None:
                    plant.degrade_tier(j, 0.0)
                    continue
                frac = dc.servers[sid].capacity_fraction
                if vm_id in self.evacuated_vms:
                    self.evacuated_vms.discard(vm_id)
                    downtime = min(cfg.fault_downtime_s, cfg.control_period_s)
                    plant.restart_tier(j, downtime, frac)
                elif plant.tier_degrade_fraction(j) != frac:
                    plant.degrade_tier(j, frac)

    def maybe_optimize(self, ctx: PeriodContext) -> None:
        """Long-time-scale optimizer invocations (integrated mode)."""
        now = ctx.time_s
        while self.optimize_times and self.optimize_times[0] <= now:
            self.optimize_times.pop(0)
            plan = self.manager.optimize(time_s=now)
            self.recorder.record("optimizer/moves", now, plan.n_moves)
            self.recorder.record(
                "optimizer/active_servers", now, len(self.dc.active_servers())
            )

    def sense(self, ctx: PeriodContext) -> None:
        """Workload levels take effect, then plants run one period and
        report measured response times and per-tier CPU usage."""
        cfg = self.config
        now = ctx.time_s
        for i, plant in enumerate(self.plants):
            level = self.workloads[i].level(now)
            if level != plant.concurrency:
                plant.set_concurrency(level)
        used_by_server: Dict[str, float] = {s: 0.0 for s in self.dc.servers}
        hosted: Dict[str, list] = {s: [] for s in self.dc.servers}
        tel = get_telemetry()
        for i, plant in enumerate(self.plants):
            stats = plant.run_period(cfg.control_period_s)
            measurement = stats.metric(cfg.sla_metric)
            ctx.measurements[f"app{i}"] = measurement
            self.recorder.record(f"rt/app{i}", now, measurement)
            used = plant.used_ghz(cfg.control_period_s)
            ctx.usages[f"app{i}"] = used
            app = self.dc.applications[f"app{i}"]
            for j, vm_id in enumerate(app.vm_ids):
                sid = self.dc.server_of(vm_id)
                if sid is not None:  # evicted-and-unplaced VMs burn nothing
                    used_by_server[sid] += float(used[j])
                    hosted[sid].append(
                        (f"app{i}", plant.spec.tiers[j].name, float(used[j]))
                    )
            if self._tracing:
                # Drain even when telemetry is off (bounds the buffer).
                for trace in plant.drain_traces():
                    tel.event("request_trace", time_s=now, **trace.to_event())
        ctx.data["used_by_server"] = used_by_server
        ctx.data["hosted_tiers"] = hosted

    def actuate(self, ctx: PeriodContext) -> None:
        """Power with the frequencies in effect during this period."""
        now = ctx.time_s
        used_by_server = ctx.data["used_by_server"]
        power_by_server = {
            sid: server.power_w(used_by_server[sid])
            for sid, server in self.dc.servers.items()
        }
        total_power = left_sum(power_by_server.values())
        self.recorder.record("power/total", now, total_power)
        for sid, server in self.dc.servers.items():
            self.recorder.record(f"freq/{sid}", now, server.freq_ghz)
        get_telemetry().event(
            "testbed.period",
            time_s=now,
            power_w=total_power,
            active_servers=len(self.dc.active_servers()),
        )
        if self.attributor is not None:
            per_app = self.attributor.attribute(
                self.config.control_period_s,
                power_by_server,
                ctx.data["hosted_tiers"],
            )
            get_telemetry().event(
                "power_attribution", time_s=now, per_app_wh=per_app
            )

    def control(self, ctx: PeriodContext) -> None:
        """Controllers + arbitrators set next period's allocations."""
        cfg = self.config
        now = ctx.time_s
        measurements = ctx.measurements
        if self.injector is not None:
            measurements = self.injector.filter_measurements(measurements)
        if cfg.controlled:
            step = self.manager.control_step(
                measurements, used_ghz=ctx.usages, time_s=now
            )
            for i in range(cfg.n_apps):
                granted = step.granted_ghz[f"app{i}"]
                for j in range(2):
                    self.recorder.record(f"alloc/app{i}/tier{j}", now, granted[j])

    # -- results -------------------------------------------------------

    def close(self) -> None:
        """End the plants' simulations (:meth:`MultiTierApp.close`) so a
        finished run is freed when the caller lets go of it instead of
        waiting for a full garbage collection; recorded results stay."""
        for plant in self.plants:
            plant.close()

    def result(self) -> TestbedResult:
        """Final recorded series (call after the engine finished)."""
        logger.info(
            "testbed run complete: %d periods, mean power %.1f W",
            self.n_periods, self.recorder.summary("power/total")["mean"],
        )
        attribution = None
        if self.attributor is not None:
            attribution = self.attributor.summary()
            get_telemetry().event("attribution_summary", attribution=attribution)
        return TestbedResult(
            recorder=self.recorder,
            model=self.model,
            sysid_r2=self.sysid_r2,
            attribution=attribution,
        )

    # -- checkpointing (replay verification) ---------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of the *verifiable* state at a period boundary.

        The DES plants' in-flight state is deliberately absent (it has
        no JSON form); resume re-derives it by deterministic replay and
        this snapshot is what :meth:`load_state_dict` checks the replay
        against: VM placement, server power state, the fault cursor, and
        every controller's full control state.
        """
        state: Dict[str, Any] = {
            "placement": {
                vm_id: self.dc.server_of(vm_id) for vm_id in sorted(self.dc.vms)
            },
            "servers": {
                sid: {
                    "active": srv.active,
                    "failed": srv.failed,
                    "freq_ghz": float(srv.freq_ghz),
                    "capacity_fraction": float(srv.capacity_fraction),
                }
                for sid, srv in sorted(self.dc.servers.items())
            },
            "controllers": {
                app_id: ctl.state_dict()
                for app_id, ctl in sorted(self.manager.controllers.items())
            },
            "optimize_times": list(self.optimize_times),
            "evacuated_vms": sorted(self.evacuated_vms),
        }
        if self.injector is not None:
            state["fault_cursor"] = self.injector.timeline.state_dict()
        return state

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Verify the replayed state matches the checkpoint.

        Replay already rebuilt the state by re-execution; a mismatch
        means the resumed run was built with a different config, model,
        or seed than the one the checkpoint came from.
        """
        verify_snapshot(self.state_dict(), state, "testbed")


def build_testbed_engine(
    config: Optional[TestbedConfig] = None,
    model: Optional[ARXModel] = None,
) -> "tuple[ControlPlane, TestbedBackend]":
    """Build the kernel + backend pair for one testbed run.

    Drive the pair inside :func:`repro.engine.kernel.run_session`: a
    fresh run starts the backend (run-config event + plant warmup), a
    resumed one restores instead — replay resume triggers the warmup,
    muted, through :meth:`TestbedBackend.prepare_replay`.
    """
    backend = TestbedBackend(config, model)
    return ControlPlane.for_backend(backend, "testbed"), backend


def run_testbed(
    config: Optional[TestbedConfig] = None,
    model: Optional[ARXModel] = None,
) -> TestbedResult:
    """Run one testbed configuration to completion; returns the
    recorded series.  Use :func:`build_testbed_engine` directly for
    stepwise execution or checkpoint/resume."""
    engine, backend = build_testbed_engine(config, model)
    with run_session(engine, backend):
        engine.run()
        return backend.result()
