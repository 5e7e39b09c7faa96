"""Closed-loop performance metrics on recorded response-time series.

Quantifies what the paper's figures show qualitatively: settling time
after a disturbance, overshoot, steady-state tracking error, and SLA
violation ratios.  The MPC-tuning ablation
(``benchmarks/bench_ablation_mpc_tuning.py``) scores its tunings with
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.util.validation import check_in_range, check_positive

__all__ = ["TrackingMetrics", "tracking_metrics", "settling_time_s", "violation_ratio"]


@dataclass(frozen=True)
class TrackingMetrics:
    """Summary of one closed-loop run against a set point.

    ``settling_s`` is NaN when the run never settles; ``overshoot_frac``
    is the worst normalized deviation *after* first reaching the band.
    """

    setpoint: float
    steady_state_mean: float
    steady_state_std: float
    steady_state_error_frac: float
    settling_s: float
    overshoot_frac: float
    violation_ratio: float


def settling_time_s(
    values: Sequence[float],
    setpoint: float,
    period_s: float,
    band: float = 0.25,
    hold_fraction: float = 0.8,
) -> float:
    """First time after which the series stays mostly inside the band.

    The series settles at step ``k`` when at least ``hold_fraction`` of
    all later samples lie within ``band`` (relative) of the set point.
    Returns NaN when no such step exists.
    """
    check_positive("period_s", period_s)
    check_in_range("band", band, 0.0, 1.0)
    check_in_range("hold_fraction", hold_fraction, 0.0, 1.0)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    inside = np.abs(arr - setpoint) <= band * abs(setpoint)
    for k in range(arr.size):
        tail = inside[k:]
        if tail.mean() >= hold_fraction:
            return k * period_s
    return float("nan")


def violation_ratio(
    values: Sequence[float], setpoint: float, tolerance: float = 0.0
) -> float:
    """Fraction of samples exceeding the set point by more than *tolerance*.

    The SLA view: a response time below the set point is compliant, so
    only upward excursions count.  NaN samples (no completions) count as
    violations — a starved application is certainly not meeting its SLA.
    """
    check_in_range("tolerance", tolerance, 0.0, 10.0)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    limit = setpoint * (1.0 + tolerance)
    violated = ~(arr <= limit)  # NaN compares False -> counted as violated
    return float(violated.mean())


def tracking_metrics(
    values: Sequence[float],
    setpoint: float,
    period_s: float,
    steady_after: Optional[int] = None,
    band: float = 0.25,
) -> TrackingMetrics:
    """All metrics in one pass.

    ``steady_after`` is the sample index where the steady-state window
    starts (default: the second half of the series).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if steady_after is None:
        steady_after = arr.size // 2
    if not 0 <= steady_after < arr.size:
        raise ValueError(f"steady_after out of range: {steady_after}")
    steady = arr[steady_after:]
    finite = steady[np.isfinite(steady)]
    mean = float(finite.mean()) if finite.size else float("nan")
    std = float(finite.std()) if finite.size else float("nan")
    settle = settling_time_s(arr, setpoint, period_s, band=band)

    overshoot = float("nan")
    inside = np.abs(arr - setpoint) <= band * abs(setpoint)
    first_inside = int(np.argmax(inside)) if inside.any() else None
    if first_inside is not None:
        after = arr[first_inside:]
        after = after[np.isfinite(after)]
        if after.size:
            overshoot = float(np.max(np.abs(after - setpoint)) / abs(setpoint))

    return TrackingMetrics(
        setpoint=float(setpoint),
        steady_state_mean=mean,
        steady_state_std=std,
        steady_state_error_frac=abs(mean - setpoint) / abs(setpoint)
        if np.isfinite(mean) else float("nan"),
        settling_s=settle,
        overshoot_frac=overshoot,
        violation_ratio=violation_ratio(arr, setpoint, tolerance=band),
    )
