"""Applying and reverting faults on a live plant.

The :class:`FaultInjector` replays a :class:`~repro.faults.schedule.
FaultSchedule` against a plant between control periods: harnesses call
:meth:`FaultInjector.step` once per period boundary, and the injector
performs every begin/end transition due since the last call — crashing
and recovering servers (triggering emergency evacuation through the
``on_evacuate`` callback), throttling capacity, arming the plant's
migration disruptor, and transforming response-time measurements for
sensor faults via :meth:`filter_measurements`.  It is the one place a
fault kind turns into an effect and a ``fault_injected`` /
``fault_recovered`` record, on every harness: the plant is anything
that meets :class:`FaultPlant` — the testbed's
:class:`~repro.cluster.datacenter.DataCenter` or the large-scale
backend's placement arrays.

All randomness (which migration fails, which sample drops, the noise
values) comes from one generator seeded with ``schedule.seed``, drawn in
a deterministic order — so two runs of the same scenario produce
byte-identical fault behaviour and telemetry.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Collection, Dict, List, Mapping, Optional, Protocol

import numpy as np

from repro.cluster.datacenter import MigrationDisruptor
from repro.faults.models import SENSOR_KINDS, FaultEvent
from repro.faults.schedule import FaultSchedule, Transition
from repro.obs import get_telemetry

__all__ = ["FaultInjector", "FaultPlant"]

logger = logging.getLogger(__name__)

# on_evacuate(failed_server_id, evicted_vm_ids, time_s) — wired to
# PowerManager.emergency_evacuate on the testbed and to the large-scale
# backend's Minimum Slack re-pack.
EvacuationHook = Callable[[str, List[str], float], object]


class FaultPlant(Protocol):
    """The server-level effects a plant offers the injector.

    The plant keeps its own semantics (the testbed's crashed servers
    rejoin the sleeping pool; on both plants a recovery clears the
    throttle); the injector only decides *when* each effect happens.
    ``migration_disruptor`` is asked once per attempted move while a
    ``migration_failure`` fault is active and is ``None`` otherwise.
    """

    migration_disruptor: Optional[MigrationDisruptor]

    @property
    def server_ids(self) -> Collection[str]: ...

    def fail_server(self, server_id: str) -> List[str]: ...

    def recover_server(self, server_id: str) -> None: ...

    def throttle_server(self, server_id: str, fraction: float) -> None: ...

    def unthrottle_server(self, server_id: str) -> None: ...


class FaultInjector:
    """Replays a fault schedule against a live plant.

    Raises :class:`~repro.faults.models.FaultSpecError` at construction
    when a server fault targets a server the plant does not have.
    """

    def __init__(
        self,
        plant: FaultPlant,
        schedule: FaultSchedule,
        on_evacuate: Optional[EvacuationHook] = None,
    ):
        schedule.check_server_targets(plant.server_ids)
        self.plant = plant
        self.schedule = schedule
        self.timeline = schedule.cursor()
        self.rng = np.random.default_rng(schedule.seed)
        self.on_evacuate = on_evacuate
        self._sensor_faults: List[FaultEvent] = []
        self._migration_faults: List[FaultEvent] = []

    # -- replay --------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every scheduled transition has been applied."""
        return self.timeline.exhausted

    def step(self, now_s: float) -> List[Transition]:
        """Apply every transition due at or before *now_s*.

        Returns the transitions performed (begin and end), in order.
        Call once per control period, *before* the period's measurements
        are taken, so a crash at t=300 affects the period starting at
        t=300.
        """
        due = self.timeline.advance(now_s)
        for tr in due:
            if tr.phase == "begin":
                self._begin(tr.event, now_s)
            else:
                self._end(tr.event, now_s)
        return due

    def _begin(self, ev: FaultEvent, now_s: float) -> None:
        tel = get_telemetry()
        if ev.kind == "server_crash":
            evicted = self.plant.fail_server(ev.target)
            self._emit_injected(ev, now_s, evicted=evicted)
            logger.warning(
                "fault t=%.1fs: server %s crashed, %d VMs evicted",
                now_s, ev.target, len(evicted),
            )
            if evicted and self.on_evacuate is not None:
                self.on_evacuate(ev.target, evicted, now_s)
        elif ev.kind == "server_recovery":
            self.plant.recover_server(ev.target)
            tel.count("faults.recovered")
            tel.event(
                "fault_recovered", time_s=now_s, fault="server_crash",
                target=ev.target,
            )
        elif ev.kind == "thermal_throttle":
            self.plant.throttle_server(ev.target, ev.fraction)
            self._emit_injected(ev, now_s)
            logger.warning(
                "fault t=%.1fs: server %s throttled to %.0f%% capacity",
                now_s, ev.target, 100.0 * ev.fraction,
            )
        elif ev.kind == "migration_failure":
            self._migration_faults.append(ev)
            self.plant.migration_disruptor = self._disrupt_migration
            self._emit_injected(ev, now_s)
        elif ev.kind in SENSOR_KINDS:
            self._sensor_faults.append(ev)
            self._emit_injected(ev, now_s)

    def _end(self, ev: FaultEvent, now_s: float) -> None:
        tel = get_telemetry()
        if ev.kind == "server_crash":
            self.plant.recover_server(ev.target)
        elif ev.kind == "thermal_throttle":
            self.plant.unthrottle_server(ev.target)
        elif ev.kind == "migration_failure":
            self._migration_faults = [f for f in self._migration_faults if f is not ev]
            if not self._migration_faults:
                self.plant.migration_disruptor = None
        elif ev.kind in SENSOR_KINDS:
            self._sensor_faults = [f for f in self._sensor_faults if f is not ev]
        tel.count("faults.recovered")
        tel.event(
            "fault_recovered", time_s=now_s, fault=ev.kind, target=ev.target,
        )
        logger.info("fault t=%.1fs: %s on %s recovered", now_s, ev.kind, ev.target)

    def _emit_injected(self, ev: FaultEvent, now_s: float, **extra) -> None:
        tel = get_telemetry()
        tel.count("faults.injected")
        tel.event(
            "fault_injected",
            time_s=now_s,
            fault=ev.kind,
            target=ev.target,
            duration_s=ev.duration_s,
            **({"fraction": ev.fraction} if ev.kind == "thermal_throttle" else {}),
            **(
                {"probability": ev.probability}
                if ev.kind in ("migration_failure", "sensor_dropout")
                else {}
            ),
            **({"sigma_ms": ev.sigma_ms} if ev.kind == "sensor_noise" else {}),
            **extra,
        )

    # -- fault behaviours ----------------------------------------------

    def _disrupt_migration(self, vm_id: str, source_id: str, target_id: str) -> bool:
        for ev in self._migration_faults:
            if self.rng.random() < ev.probability:
                get_telemetry().count("faults.migrations_disrupted")
                return True
        return False

    def filter_measurements(
        self, measurements: Mapping[str, float]
    ) -> Dict[str, float]:
        """Degrade per-app response-time samples per the active faults.

        Iterates applications in sorted order so the RNG draw sequence —
        and therefore the whole run — is reproducible.  Returns a new
        dict; the input is never mutated.
        """
        if not self._sensor_faults:
            return dict(measurements)
        out: Dict[str, float] = {}
        for app_id in sorted(measurements):
            value = float(measurements[app_id])
            for ev in self._sensor_faults:
                if ev.target is not None and ev.target != app_id:
                    continue
                if ev.kind == "sensor_dropout":
                    if self.rng.random() < ev.probability:
                        value = math.nan
                        get_telemetry().count("faults.samples_dropped")
                elif ev.kind == "sensor_noise" and math.isfinite(value):
                    value += float(self.rng.normal(0.0, ev.sigma_ms))
            out[app_id] = value
        return out
