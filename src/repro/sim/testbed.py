"""Simulated reproduction of the paper's 4-server hardware testbed (§VI-A).

Eight two-tier RUBBoS-like applications (16 VMs) run on four identical
Xen-class servers, four VMs per server.  Each application has a
response-time MPC controller; each server has a CPU arbitrator with
DVFS.  Figures 2-5 of the paper are produced by driving this testbed
with different workloads and set points.

The flow per control period:

1. every application's plant simulates one period under its current
   allocations and reports the measured 90-percentile response time;
2. the :class:`~repro.core.manager.PowerManager` runs the controllers
   (new demands), the arbitrators (DVFS + grants), and pushes the
   granted allocations back into the plants;
3. cluster power is computed from each server's chosen frequency and the
   CPU its VMs actually consumed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.apps.rubbos import AppSpec, MultiTierApp
from repro.apps.workload import ConcurrencySchedule, ConstantWorkload
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
from repro.core.manager import PowerManager, PowerManagerConfig
from repro.faults import FaultSchedule
from repro.sim.hybrid import HybridConfig, HybridPlant
from repro.sim.metrics import SeriesRecorder
from repro.sysid.experiment import run_identification_experiment
from repro.sysid.fit import fit_arx
from repro.util.rng import RngLike, ensure_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = ["TestbedConfig", "TestbedResult", "TestbedExperiment"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TestbedConfig:
    """Configuration of one testbed experiment run.

    (``__test__`` is cleared because pytest would otherwise try to
    collect the Test*-prefixed name.)

    ``workloads`` / ``setpoints_ms`` override individual applications
    (key = app index 0..n_apps-1); unspecified apps get the defaults.
    ``controlled=False`` disables the response-time controllers (static
    allocations), the uncontrolled baseline of Fig. 3.

    ``optimize_at_s`` lists simulated times at which the data-center
    power optimizer (IPAC) is invoked on the testbed — the paper's
    integrated two-level solution: VMs consolidate onto fewer servers,
    the rest sleep, and the response-time controllers keep tracking
    throughout.

    ``faults`` attaches a deterministic fault schedule (see
    :mod:`repro.faults`): servers crash and recover mid-run, capacity
    throttles, migrations fail, response-time sensors drop out.  When
    set, controllers use the ``"hold"`` missing-measurement policy and
    a VM re-placed after a crash serves nothing for
    ``fault_downtime_s`` (restart time).  ``None`` (default) leaves the
    run byte-identical to a fault-free build.

    ``trace_requests_every=N`` (N >= 1) traces every Nth client request
    through its tiers and emits ``request_trace`` telemetry events; 0
    (default) disables tracing.  ``attribute_power=True`` joins per-tier
    CPU usage against per-server power each period and accumulates
    PowerTracer-style per-app/per-tier energy (``power_attribution`` /
    ``attribution_summary`` events + ``TestbedResult.attribution``).
    Both are counter-based and read-only: enabling them never changes
    control decisions or the simulated trajectory.

    ``plant_mode`` selects the request-level plant: ``"des"`` (default)
    simulates every request; ``"hybrid"`` wraps each plant in a
    :class:`repro.sim.hybrid.HybridPlant` that fast-forwards
    quasi-static control periods through the analytic MVA fixed point
    and falls back to the exact DES around transients (``hybrid`` tunes
    the switching policy; a plain dict is coerced).

    ``control_mode`` selects the application-level control path in the
    :class:`~repro.core.manager.PowerManager`: ``"fleet"`` (default)
    batches all apps' sysid/MPC through the grouped kernels each
    period; ``"scalar"`` runs the historical per-app loop.  The paths
    are allclose-equivalent, not bit-identical (stacked multi-RHS
    LAPACK) — runs pinned to golden event-log hashes use ``"scalar"``.
    """

    __test__ = False

    n_servers: int = 4
    n_apps: int = 8
    setpoint_ms: float = 1000.0
    concurrency: int = 40
    control_period_s: float = 15.0
    duration_s: float = 600.0
    warmup_s: float = 90.0
    controlled: bool = True
    initial_alloc_ghz: float = 1.0
    min_alloc_ghz: float = 0.2
    max_alloc_ghz: float = 3.0
    sla_metric: str = "p90"
    demand_scale_range: tuple = (1.0, 1.0)
    sysid_periods: int = 200
    sysid_alloc_range: tuple = (0.45, 0.9)
    workloads: Dict[int, ConcurrencySchedule] = field(default_factory=dict)
    setpoints_ms: Dict[int, float] = field(default_factory=dict)
    optimize_at_s: tuple = ()
    faults: Optional[FaultSchedule] = None
    fault_downtime_s: float = 30.0
    mpc_warm_start: bool = True
    trace_requests_every: int = 0
    attribute_power: bool = False
    plant_mode: str = "des"
    hybrid: Optional[HybridConfig] = None
    control_mode: str = "fleet"
    seed: int = 2010

    def __post_init__(self):
        if self.control_mode not in ("fleet", "scalar"):
            raise ValueError(
                f"control_mode must be 'fleet' or 'scalar', "
                f"got {self.control_mode!r}"
            )
        if self.plant_mode not in ("des", "hybrid"):
            raise ValueError(
                f"plant_mode must be 'des' or 'hybrid', got {self.plant_mode!r}"
            )
        if isinstance(self.hybrid, dict):
            # Scenario specs carry the switching policy as plain JSON.
            object.__setattr__(self, "hybrid", HybridConfig(**self.hybrid))
        if self.n_servers < 1 or self.n_apps < 1:
            raise ValueError("need at least one server and one application")
        check_positive("duration_s", self.duration_s)
        check_positive("control_period_s", self.control_period_s)
        if 2 * self.n_apps < self.n_servers:
            raise ValueError("not enough VMs to occupy every server")
        if self.sla_metric not in ("p90", "p50", "mean", "max"):
            raise ValueError(
                f"sla_metric must be p90/p50/mean/max, got {self.sla_metric!r}"
            )
        lo, hi = self.demand_scale_range
        if not 0 < lo <= hi:
            raise ValueError(
                f"demand_scale_range must satisfy 0 < lo <= hi, got {self.demand_scale_range}"
            )
        check_positive("fault_downtime_s", self.fault_downtime_s)
        if self.trace_requests_every < 0:
            raise ValueError(
                f"trace_requests_every must be >= 0 (0 = off), "
                f"got {self.trace_requests_every}"
            )


@dataclass
class TestbedResult:
    """Recorded series plus per-app summaries from one run.

    Series names: ``rt/app{i}`` (ms), ``alloc/app{i}/tier{j}`` (GHz),
    ``power/total`` (W), ``freq/{server}`` (GHz).
    """

    __test__ = False

    recorder: SeriesRecorder
    model: ARXModel
    sysid_r2: float
    #: Cumulative per-app/per-tier energy attribution (see
    #: :class:`repro.obs.attribution.EnergyAttributor`); ``None`` unless
    #: the run had ``attribute_power=True``.
    attribution: Optional[dict] = None
    #: Per-app hybrid fast-forward summaries (mode switches, MVA vs
    #: exact period counts — see :meth:`repro.sim.hybrid.HybridPlant.summary`);
    #: ``None`` unless the run had ``plant_mode="hybrid"``.
    hybrid: Optional[Dict[str, dict]] = None

    def rt_summary(self, app_index: int) -> dict:
        """Mean/std/min/max of an app's measured response times."""
        return self.recorder.summary(f"rt/app{app_index}")

    def power_summary(self) -> dict:
        """Mean/std/min/max of total cluster power."""
        return self.recorder.summary("power/total")


class TestbedExperiment:
    """Builds and runs the simulated testbed."""

    __test__ = False  # not a pytest test class despite the Test* name

    def __init__(self, config: TestbedConfig | None = None, model: Optional[ARXModel] = None):
        self.config = config or TestbedConfig()
        self._shared_model = model
        self._sysid_r2 = float("nan")

    # -- construction -------------------------------------------------

    def identify_model(self, rng: RngLike = None) -> ARXModel:
        """Run the paper's system-identification step on a standalone
        instance of the application (§IV-B) and cache the ARX model.

        All eight controllers share this single identified model; Figs. 4
        and 5 then demonstrate robustness to operating conditions the
        identification never saw.
        """
        if self._shared_model is not None:
            return self._shared_model
        cfg = self.config
        rng = ensure_rng(rng if rng is not None else cfg.seed + 999)
        app = MultiTierApp(
            AppSpec.rubbos(max_alloc_ghz=cfg.max_alloc_ghz),
            [cfg.initial_alloc_ghz] * 2,
            concurrency=cfg.concurrency,
            rng=rng,
        )
        lo, hi = cfg.sysid_alloc_range
        data = run_identification_experiment(
            app,
            n_periods=cfg.sysid_periods,
            period_s=cfg.control_period_s,
            alloc_lower=[lo] * 2,
            alloc_upper=[hi] * 2,
            rng=rng,
            metric=cfg.sla_metric,
        )
        fit = fit_arx(data.t, data.c, na=1, nb=2)
        self._shared_model = fit.model
        self._sysid_r2 = fit.r_squared
        return fit.model

    def build(self, rng: RngLike = None):
        """Instantiate data center, plants, manager, and controllers."""
        cfg = self.config
        master = ensure_rng(rng if rng is not None else cfg.seed)
        app_rngs = spawn_rngs(master, cfg.n_apps)
        model = self.identify_model()

        dc = DataCenter()
        for s in range(cfg.n_servers):
            dc.add_server(Server(f"T{s}", TESTBED_SERVER, active=True))
        manager = PowerManager(
            dc,
            PowerManagerConfig(control_period_s=cfg.control_period_s),
            control_mode=cfg.control_mode,
        )
        # MultiTierApp, or HybridPlant wrapping one in hybrid mode —
        # both expose the same control surface.
        plants: List = []
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
            workload = cfg.workloads.get(i, ConstantWorkload(cfg.concurrency))
            plant = MultiTierApp(
                spec,
                [cfg.initial_alloc_ghz] * 2,
                concurrency=workload.level(0.0),
                rng=app_rngs[i],
            )
            if cfg.plant_mode == "hybrid":
                plant = HybridPlant(plant, cfg.hybrid)
            plants.append(plant)
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
                    model,
                    cc,
                    c_min=[cfg.min_alloc_ghz] * 2,
                    c_max=[cfg.max_alloc_ghz] * 2,
                    initial_alloc_ghz=[cfg.initial_alloc_ghz] * 2,
                )
                manager.register_controller(f"app{i}", controller)
        return dc, manager, plants

    # -- execution ------------------------------------------------------

    def _sync_plant_faults(
        self,
        dc: DataCenter,
        plants: List[MultiTierApp],
        evacuated_vms: set,
    ) -> None:
        """Propagate cluster fault state into the request-level plants.

        Called right after the injector's transitions for a period: a
        tier whose VM is homeless serves nothing; a VM just re-placed by
        an emergency evacuation restarts (zero capacity for
        ``fault_downtime_s``, scheduled inside the plant's own DES); a
        tier on a throttled host runs at the host's capacity fraction.
        """
        cfg = self.config
        for i, plant in enumerate(plants):
            app = dc.applications[f"app{i}"]
            for j, vm_id in enumerate(app.vm_ids):
                sid = dc.server_of(vm_id)
                if sid is None:
                    plant.degrade_tier(j, 0.0)
                    continue
                frac = dc.servers[sid].capacity_fraction
                if vm_id in evacuated_vms:
                    evacuated_vms.discard(vm_id)
                    plant.degrade_tier(j, 0.0)
                    downtime = min(cfg.fault_downtime_s, cfg.control_period_s)
                    plant.sim.schedule(downtime, plant.degrade_tier, j, frac)
                elif plant.tier_degrade_fraction(j) != frac:
                    plant.degrade_tier(j, frac)

    def run(self, rng: RngLike = None) -> TestbedResult:
        """Run the experiment and return the recorded series.

        This is a thin configuration of the control-plane kernel: it
        builds a :class:`repro.engine.testbed_backend.TestbedBackend`
        around this experiment, runs the
        :class:`repro.engine.ControlPlane` to completion, and returns
        the backend's recorded series.  Use
        :func:`repro.engine.build_testbed_engine` directly for stepwise
        execution or checkpoint/resume.
        """
        from repro.engine import build_testbed_engine, run_session

        engine, backend = build_testbed_engine(experiment=self, rng=rng)
        with run_session(engine, backend):
            engine.run()
            return backend.result()
