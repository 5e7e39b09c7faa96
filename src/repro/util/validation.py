"""Argument-validation helpers with consistent error messages.

Raising early with the offending name and value keeps simulator bugs from
propagating as NaNs through long runs.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Require a finite ``value > 0``; return it as a float."""
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return _not_infinite(name, value)


def check_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0``; return it as a float."""
    value = float(value)
    if not value >= 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return _not_infinite(name, value)


def _not_infinite(name: str, value: float) -> float:
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got non-finite {value}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``; return it as a float."""
    value = float(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def check_finite(name: str, value) -> None:
    """Require a scalar or array to contain only finite values."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_monotone_increasing(name: str, values: Iterable[float]) -> None:
    """Require a strictly increasing sequence."""
    seq = list(values)
    for a, b in zip(seq, seq[1:]):
        if not b > a:
            raise ValueError(f"{name} must be strictly increasing, got {seq}")
