"""Server power models.

The paper measured real servers with a power meter; we use the standard
parameterized family (linear in utilization, polynomial in frequency)
that such measurements are conventionally fit to:

``P(f, u) = P_idle(f) + (P_busy(f) - P_idle(f)) * u``

where ``u`` is the fraction of the *current-frequency* capacity in use,
and both endpoints scale with frequency:

``P_idle(f) = P_idle * (1 - k_idle * (1 - r^e))``,
``P_busy(f) = P_idle(f) + (P_busy - P_idle) * r^e``,  with ``r = f/f_max``.

The exponent ``e`` (default 3) models the cubic voltage-frequency
relation DVFS exploits; ``k_idle`` is the fraction of idle power that is
frequency-sensitive (clock tree, uncore).  A sleeping server draws a
small constant ``P_sleep``.  This family preserves the two facts the
paper's algorithms rely on: lower frequency at equal work saves power,
and sleeping saves far more than idling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.validation import check_in_range, check_non_negative, check_positive

__all__ = ["ServerPowerModel", "MeasuredPowerCurve"]


class _PowerModel:
    """Shared checks, scalar entry point and sleep draw.  Each family
    writes its one formula, ``power_w(freq_ratio, utilization)``, in
    plain operators: floats keep Python's ``**``, arrays take NumPy's.
    """

    def _check_dvfs(self) -> None:
        check_positive("dvfs_exponent", self.dvfs_exponent)
        check_in_range("idle_dvfs_fraction", self.idle_dvfs_fraction, 0.0, 1.0)

    def active_power_w(self, freq_ratio: float, utilization: float) -> float:
        """Power of an active server, range-checked: *freq_ratio* is the
        current over the maximum frequency, in (0, 1]; *utilization* the
        used fraction of the capacity *at the current frequency*, in [0, 1].
        """
        freq_ratio = check_in_range("freq_ratio", freq_ratio, 0.0, 1.0)
        utilization = check_in_range("utilization", utilization, 0.0, 1.0)
        return float(self.power_w(freq_ratio, utilization))

    def sleep_power_w(self) -> float:
        """Power of a sleeping server."""
        return self.sleep_w


@dataclass(frozen=True)
class ServerPowerModel(_PowerModel):
    """Power in watts as a function of DVFS frequency and utilization.

    Attributes
    ----------
    sleep_w:
        Draw in the sleep state (suspend-to-RAM class, a few watts).
    idle_w:
        Draw when active, 0% utilized, at maximum frequency.
    busy_w:
        Draw when active, 100% utilized, at maximum frequency.
    dvfs_exponent:
        Exponent ``e`` of the frequency scaling (3 = cubic).
    idle_dvfs_fraction:
        Fraction of idle power that scales with frequency.
    """

    sleep_w: float
    idle_w: float
    busy_w: float
    dvfs_exponent: float = 3.0
    idle_dvfs_fraction: float = 0.3

    def __post_init__(self):
        check_non_negative("sleep_w", self.sleep_w)
        check_positive("idle_w", self.idle_w)
        check_positive("busy_w", self.busy_w)
        if self.busy_w < self.idle_w:
            raise ValueError(
                f"busy_w ({self.busy_w}) must be >= idle_w ({self.idle_w})"
            )
        if self.sleep_w > self.idle_w:
            raise ValueError(
                f"sleep_w ({self.sleep_w}) must be <= idle_w ({self.idle_w})"
            )
        self._check_dvfs()

    def power_w(self, freq_ratio, utilization):
        """Active power, unchecked; floats or equal-shape arrays."""
        scale = freq_ratio ** self.dvfs_exponent
        idle = self.idle_w * (1.0 - self.idle_dvfs_fraction * (1.0 - scale))
        return idle + (self.busy_w - self.idle_w) * scale * utilization


@dataclass(frozen=True)
class MeasuredPowerCurve(_PowerModel):
    """A power model interpolated from measured load points.

    SPECpower_ssj-style characterizations publish watts at 0%, 10%, ...,
    100% load; real curves are concave (most of the dynamic power is
    spent by 50% load), which the linear model misses.  This class
    interpolates such a table behind the same interface as
    :class:`ServerPowerModel`.

    Attributes
    ----------
    load_points:
        Utilization grid in [0, 1], ascending, starting at 0 and ending
        at 1.
    watts:
        Measured draw at each grid point, at maximum frequency.
    sleep_w:
        Sleep-state draw.
    dvfs_exponent / idle_dvfs_fraction:
        Frequency scaling applied on top of the measured curve, with the
        same semantics (and checks) as :class:`ServerPowerModel`.
    """

    load_points: Tuple[float, ...]
    watts: Tuple[float, ...]
    sleep_w: float
    dvfs_exponent: float = 3.0
    idle_dvfs_fraction: float = 0.3

    def __post_init__(self):
        pts = tuple(float(p) for p in self.load_points)
        w = tuple(float(x) for x in self.watts)
        if len(pts) != len(w) or len(pts) < 2:
            raise ValueError("need matching load_points and watts (>= 2 points)")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError(f"load_points must span [0, 1], got {pts}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError(f"load_points must be strictly increasing, got {pts}")
        if any(x <= 0 for x in w):
            raise ValueError("watts must be positive")
        if any(b < a for a, b in zip(w, w[1:])):
            raise ValueError("watts must be non-decreasing in load")
        check_non_negative("sleep_w", self.sleep_w)
        if self.sleep_w > w[0]:
            raise ValueError(f"sleep_w ({self.sleep_w}) must be <= idle watts ({w[0]})")
        self._check_dvfs()
        object.__setattr__(self, "load_points", pts)
        object.__setattr__(self, "watts", w)

    @property
    def idle_w(self) -> float:
        """Draw at 0% load, maximum frequency (linear-model compatible)."""
        return self.watts[0]

    @property
    def busy_w(self) -> float:
        """Draw at 100% load, maximum frequency."""
        return self.watts[-1]

    def power_w(self, freq_ratio, utilization):
        """Interpolated active power, unchecked; floats or arrays."""
        measured = np.interp(utilization, self.load_points, self.watts)
        scale = freq_ratio ** self.dvfs_exponent
        idle = self.idle_w * (1.0 - self.idle_dvfs_fraction * (1.0 - scale))
        return idle + (measured - self.idle_w) * scale

    @staticmethod
    def spec2008_like(peak_w: float, sleep_w: float = 8.0) -> "MeasuredPowerCurve":
        """A representative 2008-class concave curve scaled to *peak_w*.

        Shape taken from typical SPECpower_ssj2008 submissions of the
        era: ~55% of peak at idle, steep initial slope.
        """
        shape = (0.55, 0.63, 0.70, 0.76, 0.82, 0.87, 0.91, 0.94, 0.97, 0.99, 1.0)
        loads = tuple(i / 10.0 for i in range(11))
        return MeasuredPowerCurve(
            load_points=loads,
            watts=tuple(peak_w * f for f in shape),
            sleep_w=sleep_w,
        )
