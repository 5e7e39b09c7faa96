"""Fault injection: deterministic chaos for the two-level power manager.

The subsystem has three parts, layered so each is testable alone:

* :mod:`repro.faults.models` — the fault taxonomy
  (:class:`~repro.faults.models.FaultEvent`): server crash/recovery,
  thermal throttle, migration failure, sensor dropout/noise.
* :mod:`repro.faults.schedule` — a declarative, seeded, deterministic
  timeline (:class:`~repro.faults.schedule.FaultSchedule`), loadable
  from JSON or generated from seeded Poisson arrivals.
* :mod:`repro.faults.injector` — the
  :class:`~repro.faults.injector.FaultInjector` that applies and
  reverts faults on a live :class:`~repro.cluster.datacenter.DataCenter`
  between control periods.

Every harness accepts a schedule — as a scenario's ``faults`` section,
or on the command line via ``repro sim --faults FILE``;
``repro faults`` validates and generates scenario files.
"""

from repro.faults.injector import FaultInjector
from repro.faults.models import FAULT_KINDS, FaultEvent, FaultSpecError
from repro.faults.schedule import FaultSchedule, FaultTimeline, Transition, validate_spec

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSpecError",
    "FaultSchedule",
    "FaultTimeline",
    "Transition",
    "FaultInjector",
    "validate_spec",
]
