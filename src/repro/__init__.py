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

from repro.apps import AppSpec, MultiTierApp
from repro.cluster import DataCenter, Server, ServerSpec, VM
from repro.control import ARXModel, MPCConfig, MPCController
from repro.core import (
    ControllerConfig,
    CPUResourceArbitrator,
    IPACConfig,
    PowerManager,
    PowerManagerConfig,
    ResponseTimeController,
    ipac,
    pac,
    pmapper,
)
from repro.engine.largescale_backend import run_largescale
from repro.engine.testbed_backend import run_testbed
from repro.obs import (
    InMemoryBackend,
    JsonlBackend,
    MetricsRegistry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.sim.largescale import LargeScaleConfig, LargeScaleResult
from repro.sim.testbed import TestbedConfig, TestbedResult
from repro.sysid import fit_arx, identify_app_model
from repro.traces import TraceConfig, UtilizationTrace, generate_trace

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "MultiTierApp",
    "DataCenter",
    "Server",
    "ServerSpec",
    "VM",
    "ARXModel",
    "MPCConfig",
    "MPCController",
    "ControllerConfig",
    "CPUResourceArbitrator",
    "IPACConfig",
    "PowerManager",
    "PowerManagerConfig",
    "ResponseTimeController",
    "ipac",
    "pac",
    "pmapper",
    "InMemoryBackend",
    "JsonlBackend",
    "MetricsRegistry",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "LargeScaleConfig",
    "LargeScaleResult",
    "run_largescale",
    "TestbedConfig",
    "TestbedResult",
    "run_testbed",
    "fit_arx",
    "identify_app_model",
    "TraceConfig",
    "UtilizationTrace",
    "generate_trace",
    "__version__",
]
