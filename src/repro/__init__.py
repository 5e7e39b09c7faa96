"""repro — performance-assured power optimization for virtualized data centers.

A from-scratch Python reproduction of *"Power Optimization with
Performance Assurance for Multi-tier Applications in Virtualized Data
Centers"* (Yefu Wang and Xiaorui Wang, ICPP 2010): a MIMO model-predictive
response-time controller per multi-tier application, server-level CPU
arbitration with DVFS, and an incremental power-aware VM consolidation
algorithm (IPAC) benchmarked against pMapper.

Quick start::

    from repro import TestbedConfig, run_testbed
    result = run_testbed(TestbedConfig(duration_s=300.0))
    print(result.rt_summary(0))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import run_testbed
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces import TraceConfig, generate_trace

__version__ = "1.0.0"

__all__ = [
    "TestbedConfig",
    "run_testbed",
    "LargeScaleConfig",
    "TraceConfig",
    "generate_trace",
    "run_largescale",
    "__version__",
]
