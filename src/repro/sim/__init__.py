"""Simulation configs, results, metrics and reports (testbed and large-scale runs)."""

from repro.sim.metrics import PeriodStats, SeriesRecorder

__all__ = [
    "PeriodStats",
    "SeriesRecorder",
]
