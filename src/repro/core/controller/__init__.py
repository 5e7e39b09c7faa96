"""Application-level response time controller (paper §IV)."""

from repro.core.controller.reference import exponential_reference
from repro.core.controller.response_time_controller import (
    ControllerConfig,
    ResponseTimeController,
)

__all__ = [
    "exponential_reference",
    "ControllerConfig",
    "ResponseTimeController",
]
