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

from repro.util.validation import check_in_range, check_non_negative, check_positive

__all__ = ["DemandForecaster", "EwmaPeakForecaster", "HoltForecaster"]


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

    ``forecast = level + safety * upward_dev`` — a simple, robust
    "recent typical value plus recent burst size" rule.  The horizon
    argument is ignored (the deviation estimate already captures
    within-window bursts at the update cadence).
    """

    def __init__(self, n_series: int, alpha: float = 0.25, safety: float = 2.0):
        if n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {n_series}")
        check_in_range("alpha", alpha, 0.01, 1.0)
        check_non_negative("safety", safety)
        self.alpha = float(alpha)
        self.safety = float(safety)
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
        self.level += self.alpha * (d - self.level)
        self.upward_dev += self.alpha * (excess - self.upward_dev)

    def forecast_peak(self, horizon_steps: int) -> np.ndarray:
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        return np.maximum(self.level + self.safety * self.upward_dev, 0.0)


class HoltForecaster(DemandForecaster):
    """Holt's linear (level + damped trend) exponential smoothing.

    Extrapolates each series ``h`` steps ahead and returns the maximum
    over the horizon plus a safety margin of the smoothed absolute
    one-step error — so rising demands are provisioned for their end-of-
    window value, not their current one.
    """

    def __init__(
        self,
        n_series: int,
        alpha: float = 0.3,
        beta: float = 0.1,
        damping: float = 0.9,
        safety: float = 1.5,
    ):
        if n_series < 1:
            raise ValueError(f"n_series must be >= 1, got {n_series}")
        check_in_range("alpha", alpha, 0.01, 1.0)
        check_in_range("beta", beta, 0.01, 1.0)
        check_in_range("damping", damping, 0.0, 1.0)
        check_non_negative("safety", safety)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.damping = float(damping)
        self.safety = float(safety)
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
        predicted = self.level + self.damping * self.trend
        self.abs_err += self.alpha * (np.abs(d - predicted) - self.abs_err)
        prev_level = self.level.copy()
        self.level = self.alpha * d + (1 - self.alpha) * predicted
        self.trend = (
            self.beta * (self.level - prev_level)
            + (1 - self.beta) * self.damping * self.trend
        )

    def forecast_peak(self, horizon_steps: int) -> np.ndarray:
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        # Damped-trend cumulative factor per step: phi + phi^2 + ... .
        phi = self.damping
        factors = np.cumsum(phi ** np.arange(1, horizon_steps + 1))
        # Peak over the horizon: depends on trend sign per series.
        best = np.where(
            self.trend >= 0,
            self.trend * factors[-1],   # rising: peak at the end
            self.trend * factors[0],    # falling: peak (highest) first step
        )
        return np.maximum(self.level + best + self.safety * self.abs_err, 0.0)
