"""Fault taxonomy for chaos experiments on the two-level power manager.

The paper's premise is performance *assurance*: the response-time
controller and IPAC must hold SLAs while the infrastructure changes
underneath them.  This module defines the disturbance vocabulary —
what can break — as declarative, validated records.  How and when the
faults are applied lives in :mod:`repro.faults.schedule` (deterministic
timing) and :mod:`repro.faults.injector` (live state mutation).

Fault kinds
-----------
``server_crash``
    The target server fails abruptly: it leaves the active pool, every
    hosted VM is evicted, and the data-center layer must re-place them
    (emergency evacuation).  With ``duration_s`` set, the server
    recovers — back into the *sleeping* pool, available to the next
    optimizer invocation — when the fault expires.
``server_recovery``
    Explicitly repair a crashed server at ``time_s`` (the scheduled
    alternative to giving the crash a ``duration_s``).
``thermal_throttle``
    The target server's CPU capacity is cut to ``fraction`` of nominal
    at every DVFS level (thermal or power-capping clamp).  Reverted
    when the fault expires.
``migration_failure``
    While active, each attempted live migration independently fails
    with probability ``probability`` (seeded, reproducible).  The VM
    stays on its source; callers retry or roll back.
``sensor_dropout``
    While active, each per-period response-time sample of the target
    application (or all applications when ``target`` is None) is lost
    — replaced by NaN — with probability ``probability``.
``sensor_noise``
    While active, zero-mean Gaussian noise with standard deviation
    ``sigma_ms`` is added to the target application's response-time
    samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FAULT_KINDS", "FaultSpecError", "FaultEvent"]

FAULT_KINDS = (
    "server_crash",
    "server_recovery",
    "thermal_throttle",
    "migration_failure",
    "sensor_dropout",
    "sensor_noise",
)

_TARGETLESS_KINDS = ("migration_failure", "sensor_dropout", "sensor_noise")
# Kinds whose target must name a server of the plant, and kinds that
# need a response-time sensor (the testbed's; the trace harness has none).
SERVER_KINDS = ("server_crash", "server_recovery", "thermal_throttle")
SENSOR_KINDS = ("sensor_dropout", "sensor_noise")


class FaultSpecError(ValueError):
    """A fault event or scenario spec failed validation."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled disturbance.

    Attributes
    ----------
    time_s:
        Simulated second at which the fault begins.
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        Server id (crash/recovery/throttle), application id (sensor
        faults), or None for cluster-wide scope (migration failure,
        sensor faults on every application).
    duration_s:
        How long the fault stays active; None means until the end of
        the run (or, for a crash, until an explicit
        ``server_recovery`` event).
    fraction:
        ``thermal_throttle`` only — remaining capacity as a fraction
        of nominal, in (0, 1].
    probability:
        ``migration_failure`` / ``sensor_dropout`` only — per-attempt
        (resp. per-sample) failure probability in [0, 1].
    sigma_ms:
        ``sensor_noise`` only — standard deviation of the additive
        measurement noise in milliseconds.
    """

    time_s: float
    kind: str
    target: Optional[str] = None
    duration_s: Optional[float] = None
    fraction: float = 1.0
    probability: float = 1.0
    sigma_ms: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.time_s >= 0:
            raise FaultSpecError(f"time_s must be >= 0, got {self.time_s}")
        if self.duration_s is not None and not self.duration_s > 0:
            raise FaultSpecError(f"duration_s must be > 0, got {self.duration_s}")
        if self.target is None and self.kind not in _TARGETLESS_KINDS:
            raise FaultSpecError(f"{self.kind} requires a target")
        if self.kind == "thermal_throttle" and not 0.0 < self.fraction <= 1.0:
            raise FaultSpecError(
                f"thermal_throttle fraction must be in (0, 1], got {self.fraction}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.sigma_ms < 0:
            raise FaultSpecError(f"sigma_ms must be >= 0, got {self.sigma_ms}")
        if self.kind == "server_recovery" and self.duration_s is not None:
            raise FaultSpecError("server_recovery is instantaneous; drop duration_s")

    @property
    def end_time_s(self) -> Optional[float]:
        """Simulated second at which the fault auto-reverts (None = never)."""
        if self.duration_s is None:
            return None
        return self.time_s + self.duration_s

    def to_spec(self) -> dict:
        """The declarative (JSON-friendly) form of this event."""
        out = {"time_s": self.time_s, "kind": self.kind}
        if self.target is not None:
            out["target"] = self.target
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.kind == "thermal_throttle":
            out["fraction"] = self.fraction
        if self.kind in ("migration_failure", "sensor_dropout"):
            out["probability"] = self.probability
        if self.kind == "sensor_noise":
            out["sigma_ms"] = self.sigma_ms
        return out
