"""The unified control-plane kernel (engine loop, interfaces, scenarios).

One :class:`ControlPlane` drives every harness: backends contribute
named phases (sense → sysid → control → arbitrate → optimize → actuate →
faults → telemetry) and the kernel owns the clock, the run loop, and
checkpoint/resume.  See ``docs/ARCHITECTURE.md`` for the phase diagram.
"""

from repro.engine.interfaces import Checkpointable, EnginePhase, PlantBackend
from repro.engine.kernel import (
    CHECKPOINT_SCHEMA,
    PHASE_NAMES,
    CheckpointError,
    ControlPlane,
    PeriodContext,
    Phase,
    run_session,
)
from repro.engine.largescale_backend import build_largescale_engine
from repro.engine.sharded_backend import build_sharded_engine
from repro.engine.testbed_backend import build_testbed_engine

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpointable",
    "CheckpointError",
    "ControlPlane",
    "EnginePhase",
    "PHASE_NAMES",
    "PeriodContext",
    "Phase",
    "PlantBackend",
    "build_largescale_engine",
    "build_sharded_engine",
    "build_testbed_engine",
    "run_session",
]
