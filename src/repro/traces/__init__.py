"""Utilization-trace substrate.

The paper's large-scale evaluation replays a proprietary trace: "the
utilization data of 5415 servers from ten large companies covering the
manufacturing, telecommunications, financial, and retail sectors ...
average CPU utilization of each server every 15 minutes from 00:00 on
July 14th (Monday) to 23:45 on July 20th (Sunday) in 2008" (§VI-B).
We cannot ship that trace, so :func:`generate_trace` synthesizes one
with the same dimensions and the workload structure those sectors
exhibit (diurnal peaks, business-hour vs. evening shapes, weekend
troughs, noise, and occasional spikes).  See DESIGN.md §5.
"""

from repro.traces.trace import UtilizationTrace
from repro.traces.generator import SECTORS, TraceConfig, generate_trace
from repro.traces.forecast import DemandForecaster, EwmaPeakForecaster, HoltForecaster

__all__ = [
    "UtilizationTrace",
    "SECTORS",
    "TraceConfig",
    "generate_trace",
    "DemandForecaster",
    "EwmaPeakForecaster",
    "HoltForecaster",
]
