"""Per-VM demand forecasting for proactive provisioning.

The paper's optimizer packs servers against the VM demands measured *at
invocation time*; demand that grows during the hours until the next
invocation overloads servers (relieved only reactively).  A forecaster
closes that gap: consolidation provisions for the predicted *peak* over
the coming inter-invocation window instead of the instantaneous value.

Both forecasters are fully vectorized across series and O(n) per step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["DemandForecaster", "EwmaPeakForecaster", "HoltForecaster"]

#: :class:`EwmaPeakForecaster`'s smoothing factor and burst multiplier.
_EWMA_ALPHA = 0.25
_EWMA_SAFETY = 2.0
#: :class:`HoltForecaster`'s level and trend smoothing factors, trend
#: damping, and error multiplier.
_HOLT_ALPHA = 0.3
_HOLT_BETA = 0.1
_HOLT_DAMPING = 0.9
_HOLT_SAFETY = 1.5


class DemandForecaster(ABC):
    """Online forecaster over a fixed set of demand series."""

    @abstractmethod
    def update(self, demands: np.ndarray) -> None:
        """Consume one step of observed demands, shape ``(n_series,)``."""

    @abstractmethod
    def forecast_peak(self, horizon_steps: int) -> np.ndarray:
        """Predicted per-series demand peak over the next *horizon* steps."""


class EwmaPeakForecaster(DemandForecaster):
    """EWMA level plus an EWMA of upward deviations.

    ``forecast = level + _EWMA_SAFETY * upward_dev`` — a simple, robust
    "recent typical value plus recent burst size" rule.  The horizon
    argument is ignored (the deviation estimate already captures
    within-window bursts at the update cadence).
    """

    def __init__(self, n_series: int):
        if n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {n_series}")
        self.level = np.zeros(n_series)
        self.upward_dev = np.zeros(n_series)
        self._initialized = False

    def update(self, demands: np.ndarray) -> None:
        d = np.asarray(demands, dtype=float)
        if d.shape != self.level.shape:
            raise ValueError(f"expected shape {self.level.shape}, got {d.shape}")
        if not self._initialized:
            self.level[:] = d
            self._initialized = True
            return
        excess = np.maximum(d - self.level, 0.0)
        self.level += _EWMA_ALPHA * (d - self.level)
        self.upward_dev += _EWMA_ALPHA * (excess - self.upward_dev)

    def forecast_peak(self, horizon_steps: int) -> np.ndarray:
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        return np.maximum(self.level + _EWMA_SAFETY * self.upward_dev, 0.0)


class HoltForecaster(DemandForecaster):
    """Holt's linear (level + damped trend) exponential smoothing.

    Extrapolates each series ``h`` steps ahead and returns the maximum
    over the horizon plus a safety margin of the smoothed absolute
    one-step error — so rising demands are provisioned for their end-of-
    window value, not their current one.
    """

    def __init__(self, n_series: int):
        if n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {n_series}")
        self.level = np.zeros(n_series)
        self.trend = np.zeros(n_series)
        self.abs_err = np.zeros(n_series)
        self._initialized = False

    def update(self, demands: np.ndarray) -> None:
        d = np.asarray(demands, dtype=float)
        if d.shape != self.level.shape:
            raise ValueError(f"expected shape {self.level.shape}, got {d.shape}")
        if not self._initialized:
            self.level[:] = d
            self._initialized = True
            return
        predicted = self.level + _HOLT_DAMPING * self.trend
        self.abs_err += _HOLT_ALPHA * (np.abs(d - predicted) - self.abs_err)
        prev_level = self.level.copy()
        self.level = _HOLT_ALPHA * d + (1 - _HOLT_ALPHA) * predicted
        self.trend = (
            _HOLT_BETA * (self.level - prev_level)
            + (1 - _HOLT_BETA) * _HOLT_DAMPING * self.trend
        )

    def forecast_peak(self, horizon_steps: int) -> np.ndarray:
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        # Damped-trend cumulative factor per step: phi + phi^2 + ... .
        phi = _HOLT_DAMPING
        factors = np.cumsum(phi ** np.arange(1, horizon_steps + 1))
        # Peak over the horizon: depends on trend sign per series.
        best = np.where(
            self.trend >= 0,
            self.trend * factors[-1],   # rising: peak at the end
            self.trend * factors[0],    # falling: peak (highest) first step
        )
        return np.maximum(self.level + best + _HOLT_SAFETY * self.abs_err, 0.0)
