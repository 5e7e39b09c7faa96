"""Data-center-level power optimizer (paper §V) and the pMapper baseline."""

from repro.core.optimizer.ipac import IPACConfig, ipac
from repro.core.optimizer.ondemand import OnDemandConfig, relieve_overloads
from repro.core.optimizer.migration import (
    AllowAllPolicy,
    BandwidthBudgetPolicy,
    BenefitThresholdPolicy,
    MigrationContext,
    MigrationCostPolicy,
)
from repro.core.optimizer.minslack import MinSlackConfig
from repro.core.optimizer.pac import PACConfig, pac, sort_servers_by_efficiency
from repro.core.optimizer.pmapper import PMapperConfig, pmapper
from repro.core.optimizer.types import (
    Migration,
    PlacementPlan,
    PlacementProblem,
    ServerInfo,
    VMInfo,
    apply_plan,
    snapshot_datacenter,
)

__all__ = [
    "IPACConfig",
    "ipac",
    "OnDemandConfig",
    "relieve_overloads",
    "AllowAllPolicy",
    "BandwidthBudgetPolicy",
    "BenefitThresholdPolicy",
    "MigrationContext",
    "MigrationCostPolicy",
    "MinSlackConfig",
    "PACConfig",
    "pac",
    "sort_servers_by_efficiency",
    "PMapperConfig",
    "pmapper",
    "Migration",
    "PlacementPlan",
    "PlacementProblem",
    "ServerInfo",
    "VMInfo",
    "apply_plan",
    "snapshot_datacenter",
]
