"""Application-level response time controller (paper §IV)."""

from repro.core.controller.analysis import TrackingMetrics, settling_time_s, tracking_metrics, violation_ratio
from repro.core.controller.reference import exponential_reference
from repro.core.controller.response_time_controller import (
    ControllerConfig,
    ResponseTimeController,
)

__all__ = [
    "TrackingMetrics",
    "settling_time_s",
    "tracking_metrics",
    "violation_ratio",
    "exponential_reference",
    "ControllerConfig",
    "ResponseTimeController",
]
