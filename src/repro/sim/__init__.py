"""Simulation engines: event kernel, testbed-scale and large-scale runs."""

from repro.sim.des import Simulator, EventHandle, Timer, SimEvent, PSResource, FCFSResource
from repro.sim.metrics import PeriodStats, SeriesRecorder

__all__ = [
    "Simulator",
    "EventHandle",
    "Timer",
    "SimEvent",
    "PSResource",
    "FCFSResource",
    "PeriodStats",
    "SeriesRecorder",
]
