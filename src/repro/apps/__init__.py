"""Application substrate: a RUBBoS-like web app and its client workloads.

The paper's testbed ran RUBBoS, a two-tier PHP bulletin board (Apache web
tier + MySQL tier), driven by ``ab`` at a fixed concurrency level.  We do
not have the testbed, so this package provides the closest synthetic
equivalent (DESIGN.md §5): a request-level closed queueing network whose
tier speeds are the GHz allocations the controller actuates.
"""

from repro.apps.workload import (
    ConcurrencySchedule,
    ConstantWorkload,
    StepWorkload,
    RampWorkload,
)
from repro.apps.rubbos import MultiTierApp, TierSpec, AppSpec

__all__ = [
    "ConcurrencySchedule",
    "ConstantWorkload",
    "StepWorkload",
    "RampWorkload",
    "MultiTierApp",
    "TierSpec",
    "AppSpec",
]
