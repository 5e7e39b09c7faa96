"""Excitation-signal design for identification experiments.

Good identification data must be *persistently exciting*: the inputs
(CPU allocations) have to move enough, across enough frequencies, for
least squares to separate the coefficients.  The workhorse here is the
amplitude-modulated pseudo-random binary sequence (APRBS), the standard
choice for identifying mildly nonlinear plants around an operating
region.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import RngLike, ensure_rng

__all__ = ["aprbs", "excitation_trajectory"]

#: Shortest and longest hold (samples) of one APRBS level.
_MIN_HOLD = 1
_MAX_HOLD = 4


def aprbs(
    n: int,
    low: float,
    high: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Amplitude-modulated PRBS: random levels in [low, high], random holds.

    Each segment holds a uniformly drawn level for a uniformly drawn
    number of samples in ``[_MIN_HOLD, _MAX_HOLD]``.  Richer amplitude
    content than a binary PRBS, which matters for plants (like queueing
    systems) whose gain varies with the operating point.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    generator = ensure_rng(rng)
    out = np.empty(n)
    i = 0
    while i < n:
        level = generator.uniform(low, high)
        hold = int(generator.integers(_MIN_HOLD, _MAX_HOLD + 1))
        out[i : i + hold] = level
        i += hold
    return out


def excitation_trajectory(
    n_periods: int,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: RngLike = None,
) -> np.ndarray:
    """Per-input APRBS allocation trajectory, shape ``(n_periods, m)``.

    Each input channel gets an independent APRBS within its own
    ``[lower[j], upper[j]]`` actuator range, so the least-squares
    regressor matrix is well-conditioned across channels.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape:
        raise ValueError("lower and upper must have the same shape")
    if np.any(upper < lower):
        raise ValueError(f"upper must be >= lower, got {lower} / {upper}")
    generator = ensure_rng(rng)
    cols = [
        aprbs(n_periods, lower[j], upper[j], generator)
        for j in range(lower.shape[0])
    ]
    return np.column_stack(cols)
