"""Config and result of the trace-driven large-scale simulation (paper
§VI-B, Fig. 6); :func:`repro.engine.largescale_backend.run_largescale`
runs one config to completion.

The simulation replays a multi-day utilization trace as per-VM CPU
demands ("We treat the utilization data of each server as the CPU
demand of a VM"), places the VMs with a consolidation algorithm (IPAC
or the pMapper baseline) invoked on a long period, applies per-step
DVFS on every active server (IPAC only — "IPAC is integrated with DVFS
for power savings on a short time scale between two consecutive
invocations"), and integrates energy.

Everything between optimizer invocations is vectorized NumPy over the
(servers, VMs) arrays, so a full 7-day, 5,415-VM run takes seconds.

Accounting notes
----------------
* Only servers that host at least one VM are charged; the paper assumes
  "enough inactive servers" in reserve, so the idle pool is not part of
  the simulated data center's bill.
* A server whose hosted demand exceeds its maximum capacity runs flat
  out (rationed VMs, full power); those server-steps are reported as
  ``overload_server_steps`` — the SLA pressure that IPAC's next
  invocation relieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.catalog import STANDARD_SERVER_TYPES
from repro.core.optimizer.minslack import MinSlackConfig
from repro.faults import FaultSchedule
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = ["LargeScaleConfig", "LargeScaleResult"]


@dataclass(frozen=True)
class LargeScaleConfig:
    """Parameters of one large-scale run.

    ``scheme`` selects the consolidation algorithm: ``"ipac"`` (paper),
    ``"pmapper"`` (baseline), or ``"pac"`` (full re-pack each time —
    ablation).  ``dvfs=None`` follows the paper: on for IPAC/PAC, off
    for pMapper; pass an explicit bool to ablate.

    ``ondemand_relief`` enables the paper's §III integration point: a
    fast greedy overload-relief pass (``repro.core.optimizer.ondemand``)
    runs every trace step *between* full optimizer invocations, moving
    VMs off servers that an unexpected workload increase saturated.

    ``provisioning`` selects the demand the optimizer packs against:
    ``"current"`` (paper: the demand at invocation time) or a forecast
    of the peak over the coming inter-invocation window (``"ewma_peak"``
    or ``"holt"`` — see :mod:`repro.traces.forecast`), which trades a
    little packing density for far fewer mid-window overloads.

    ``scheme="static_peak"`` is the no-reconfiguration reference: one
    placement at t=0 provisioned for each VM's whole-trace peak, then
    never touched (and no DVFS) — what a conservative operator without
    consolidation automation would run.

    ``faults`` attaches a deterministic fault schedule (see
    :mod:`repro.faults`).  Supported here: server crash/recovery
    (hosted VMs are evicted and immediately re-packed onto the
    survivors via Minimum Slack), thermal throttle (the server's
    effective capacity — and its DVFS levels — shrink by the fraction),
    and migration failure (planned moves revert to their source with
    the event's probability).  Sensor faults are refused here
    (``FaultSpecError``): this trace-driven harness has no response-time
    sensor, demands come from the trace.  So is a server fault whose
    target names no server of the pool, when the backend is built.
    ``None`` (default) leaves the run byte-identical to a fault-free
    build.

    ``attribute_power=True`` splits every hosting server's per-step
    power among its placed VMs in proportion to demand (equal split on
    a zero-load server) and accumulates per-VM energy — the large-scale
    counterpart of the testbed's per-tier attribution.  Read-only: it
    never changes placement, DVFS, or the power/energy totals; the
    result's ``attribution`` entry reconciles with ``total_energy_wh``
    (migration energy is accounted separately).
    """

    n_vms: int = 100
    n_servers: int = 3000
    type_weights: Tuple[float, ...] = (0.03, 0.27, 0.70)
    vm_peak_range_ghz: Tuple[float, float] = (0.5, 2.0)
    vm_memory_choices_mb: Tuple[int, ...] = (512, 1024, 1536, 2048)
    optimize_every_steps: int = 16
    scheme: str = "ipac"
    dvfs: Optional[bool] = None
    ondemand_relief: bool = False
    provisioning: str = "current"
    arbitrator_headroom: float = 0.95
    target_utilization: float = 0.9
    minslack_max_steps: int = 3000
    minslack_epsilon_ghz: float = 0.1
    migration_overhead_w: float = 30.0
    migration_bandwidth_mbps: float = 1000.0
    faults: Optional[FaultSchedule] = None
    attribute_power: bool = False
    seed: int = 7

    def __post_init__(self):
        if self.n_vms < 1:
            raise ValueError(f"n_vms must be >= 1, got {self.n_vms}")
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.scheme not in ("ipac", "pmapper", "pac", "static_peak"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.provisioning not in ("current", "ewma_peak", "holt"):
            raise ValueError(f"unknown provisioning {self.provisioning!r}")
        if self.optimize_every_steps < 1:
            raise ValueError(
                f"optimize_every_steps must be >= 1, got {self.optimize_every_steps}"
            )
        check_in_range("arbitrator_headroom", self.arbitrator_headroom, 0.1, 1.0)
        check_in_range("target_utilization", self.target_utilization, 0.1, 1.0)
        check_finite("type_weights", self.type_weights)
        if len(self.type_weights) != len(STANDARD_SERVER_TYPES):
            raise ValueError(
                f"type_weights needs one weight per server type "
                f"({len(STANDARD_SERVER_TYPES)}), got {len(self.type_weights)}"
            )
        # The pool draw normalises by this same sum; it must not overflow.
        total = sum(float(w) for w in self.type_weights)
        if any(w < 0 for w in self.type_weights) or not 0 < total < math.inf:
            raise ValueError(
                f"type_weights must be non-negative with a finite, positive "
                f"sum, got {self.type_weights}"
            )
        lo, hi = self.vm_peak_range_ghz
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad vm_peak_range_ghz {self.vm_peak_range_ghz}")
        if len(self.vm_memory_choices_mb) == 0:
            raise ValueError("vm_memory_choices_mb must not be empty")
        if not all(0 <= mb < math.inf for mb in self.vm_memory_choices_mb):  # NaN too
            raise ValueError(
                f"vm_memory_choices_mb entries must be finite and >= 0, "
                f"got {self.vm_memory_choices_mb}"
            )
        try:
            self.minslack_config()
        except ValueError as exc:
            # "max_steps must be ..." -> this config's "minslack_max_steps".
            raise ValueError(f"minslack_{exc}") from None
        check_non_negative("migration_overhead_w", self.migration_overhead_w)
        check_positive("migration_bandwidth_mbps", self.migration_bandwidth_mbps)
        if self.faults is not None:
            self.faults.check_no_sensor_faults("trace-driven")

    def minslack_config(self) -> MinSlackConfig:
        """The per-server Minimum Slack search knobs of this run."""
        return MinSlackConfig(
            epsilon_ghz=self.minslack_epsilon_ghz,
            max_steps=self.minslack_max_steps,
        )

    @property
    def dvfs_enabled(self) -> bool:
        """Paper default: DVFS rides along with IPAC/PAC, not pMapper."""
        if self.dvfs is not None:
            return self.dvfs
        return self.scheme in ("ipac", "pac")


@dataclass
class LargeScaleResult:
    """Aggregates of one run (energy in Wh, durations in steps)."""

    scheme: str
    n_vms: int
    n_steps: int
    step_s: float
    total_energy_wh: float
    energy_per_vm_wh: float
    migrations: int
    mean_active_servers: float
    max_active_servers: int
    overload_server_steps: int
    unplaced_vm_steps: int
    power_series_w: np.ndarray
    active_series: np.ndarray
    info: Dict[str, float] = field(default_factory=dict)
    #: Per-VM energy attribution summary (``attribute_power=True`` runs
    #: only); reconciles with ``total_energy_wh`` minus migration energy.
    attribution: Optional[Dict[str, object]] = None
