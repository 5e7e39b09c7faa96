"""Config and result of the simulated 4-server hardware testbed (paper
§VI-A, Figs. 2-5).

The rig these describe — eight two-tier RUBBoS-like applications, one
response-time MPC controller each, on four Xen-class servers with a
DVFS arbitrator each — is built and stepped by
:class:`repro.engine.testbed_backend.TestbedBackend`;
:func:`~repro.engine.testbed_backend.run_testbed` runs one config to
completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.apps.workload import ConcurrencySchedule
from repro.control.arx import ARXModel
from repro.faults import FaultSchedule
from repro.sim.metrics import SeriesRecorder
from repro.util.validation import check_non_negative, check_positive

__all__ = ["TestbedConfig", "TestbedResult"]


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

    ``control_mode`` selects the application-level control path in the
    :class:`~repro.core.manager.PowerManager`: ``"fleet"`` (default)
    solves all apps' MPC QPs through one grouped batch each period
    (apps sharing a model share the lock-step rounds); ``"scalar"``
    runs the historical per-app loop.  The paths are allclose-
    equivalent, not bit-identical (stacked multi-RHS LAPACK) — runs
    pinned to golden event-log hashes use ``"scalar"``.
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
    control_mode: str = "fleet"
    seed: int = 2010

    def __post_init__(self):
        if self.control_mode not in ("fleet", "scalar"):
            raise ValueError(
                f"control_mode must be 'fleet' or 'scalar', "
                f"got {self.control_mode!r}"
            )
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
        if not self.min_alloc_ghz <= self.initial_alloc_ghz <= self.max_alloc_ghz:
            raise ValueError(
                "allocations must satisfy min_alloc_ghz <= initial_alloc_ghz "
                f"<= max_alloc_ghz, got {self.min_alloc_ghz}, "
                f"{self.initial_alloc_ghz}, {self.max_alloc_ghz}"
            )
        check_non_negative("warmup_s", self.warmup_s)
        check_positive("setpoint_ms", self.setpoint_ms)
        for app, setpoint in self.setpoints_ms.items():
            check_positive(f"setpoints_ms[{app}]", setpoint)
        check_non_negative("concurrency", self.concurrency)
        lo, hi = self.sysid_alloc_range
        if not 0 < lo < hi:
            raise ValueError(
                f"sysid_alloc_range must satisfy 0 < lo < hi, got {self.sysid_alloc_range}"
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

    def rt_summary(self, app_index: int) -> dict:
        """Mean/std/min/max of an app's measured response times."""
        return self.recorder.summary(f"rt/app{app_index}")

    def power_summary(self) -> dict:
        """Mean/std/min/max of total cluster power."""
        return self.recorder.summary("power/total")
