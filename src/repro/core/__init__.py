"""The paper's primary contribution: two-level power management.

* :mod:`repro.core.controller` — application-level MIMO MPC response
  time controller (short time scale).
* :mod:`repro.core.arbitrator` — server-level CPU resource arbitrator
  with DVFS.
* :mod:`repro.core.optimizer` — data-center-level power optimizer
  (Minimum Slack / PAC / IPAC) and the pMapper baseline.
* :mod:`repro.core.manager` — the integrated solution of Fig. 1.
"""

from repro.core.arbitrator import ArbitrationResult, CPUResourceArbitrator
from repro.core.controller import (
    ControllerConfig,
    ResponseTimeController,
    exponential_reference,
)
from repro.core.manager import PowerManager
from repro.core.optimizer import (
    IPACConfig,
    Migration,
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    VMInfo,
    ipac,
    pac,
    pmapper,
)

__all__ = [
    "ArbitrationResult",
    "CPUResourceArbitrator",
    "ControllerConfig",
    "ResponseTimeController",
    "exponential_reference",
    "PowerManager",
    "IPACConfig",
    "Migration",
    "PlacementPlan",
    "PlacementProblem",
    "ServerInfo",
    "VMInfo",
    "ipac",
    "pac",
    "pmapper",
]
