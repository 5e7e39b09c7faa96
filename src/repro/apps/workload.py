"""Client workload schedules (concurrency level over time).

The paper drives each RUBBoS instance with the Apache ``ab`` tool at a
fixed *concurrency level* — the number of closed-loop clients.  Its
stress experiment (Fig. 3) steps App5's concurrency from 40 to 80 during
t in [600 s, 1200 s].  A schedule maps simulated time to the integer
concurrency level the workload generator should hold.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "ConcurrencySchedule",
    "ConstantWorkload",
    "StepWorkload",
    "RampWorkload",
]


class ConcurrencySchedule(ABC):
    """Maps simulated time (s) to an integer concurrency level."""

    @abstractmethod
    def level(self, time_s: float) -> int:
        """Concurrency level in effect at *time_s*."""

    @property
    @abstractmethod
    def max_level(self) -> int:
        """Largest level the schedule can ever return (for sizing)."""


class ConstantWorkload(ConcurrencySchedule):
    """Fixed concurrency for the whole run."""

    def __init__(self, level: int):
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        self._level = int(level)

    def level(self, time_s: float) -> int:
        return self._level

    @property
    def max_level(self) -> int:
        return self._level

    def __repr__(self) -> str:
        return f"ConstantWorkload({self._level})"


class StepWorkload(ConcurrencySchedule):
    """Base level with a rectangular step to ``high`` on [t_start, t_end).

    ``StepWorkload(40, 80, 600, 1200)`` reproduces the paper's Fig. 3
    stress scenario.
    """

    def __init__(self, base: int, high: int, t_start_s: float, t_end_s: float):
        if base < 0 or high < 0:
            raise ValueError("levels must be >= 0")
        if not t_end_s > t_start_s:
            raise ValueError(
                f"t_end_s ({t_end_s}) must be after t_start_s ({t_start_s})"
            )
        self._base = int(base)
        self._high = int(high)
        self._t0 = float(t_start_s)
        self._t1 = float(t_end_s)

    def level(self, time_s: float) -> int:
        return self._high if self._t0 <= time_s < self._t1 else self._base

    @property
    def max_level(self) -> int:
        return max(self._base, self._high)

    def __repr__(self) -> str:
        return (
            f"StepWorkload(base={self._base}, high={self._high}, "
            f"t=[{self._t0}, {self._t1}))"
        )


class RampWorkload(ConcurrencySchedule):
    """Linear ramp from ``start`` to ``end`` over [t_start, t_end]."""

    def __init__(self, start: int, end: int, t_start_s: float, t_end_s: float):
        if start < 0 or end < 0:
            raise ValueError("levels must be >= 0")
        if not t_end_s > t_start_s:
            raise ValueError(
                f"t_end_s ({t_end_s}) must be after t_start_s ({t_start_s})"
            )
        self._a = int(start)
        self._b = int(end)
        self._t0 = float(t_start_s)
        self._t1 = float(t_end_s)

    def level(self, time_s: float) -> int:
        if time_s <= self._t0:
            return self._a
        if time_s >= self._t1:
            return self._b
        frac = (time_s - self._t0) / (self._t1 - self._t0)
        return int(round(self._a + frac * (self._b - self._a)))

    @property
    def max_level(self) -> int:
        return max(self._a, self._b)

    def __repr__(self) -> str:
        return (
            f"RampWorkload({self._a}->{self._b}, t=[{self._t0}, {self._t1}])"
        )
