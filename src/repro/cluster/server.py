"""Physical server model: CPU with discrete DVFS levels, memory, states."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.cluster.power import ServerPowerModel
from repro.util.validation import check_monotone_increasing, check_positive

__all__ = ["CPUSpec", "ServerSpec", "Server"]


@dataclass(frozen=True)
class CPUSpec:
    """A processor model: core count and its discrete DVFS frequencies.

    ``freq_levels_ghz`` must be strictly increasing; the last entry is
    the nominal maximum frequency.  Total capacity at a level is
    ``freq * cores`` (all cores share one frequency domain, as on the
    paper's testbed hardware).
    """

    model: str
    cores: int
    freq_levels_ghz: Tuple[float, ...]

    def __post_init__(self):
        if self.cores < 1 or int(self.cores) != self.cores:
            raise ValueError(f"cores must be a positive integer, got {self.cores}")
        if not self.freq_levels_ghz:
            raise ValueError("freq_levels_ghz must be non-empty")
        for f in self.freq_levels_ghz:
            check_positive("frequency level", f)
        check_monotone_increasing("freq_levels_ghz", self.freq_levels_ghz)
        levels = np.asarray(self.freq_levels_ghz, dtype=float)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_level_caps", levels * self.cores)

    @property
    def max_freq_ghz(self) -> float:
        """Nominal maximum frequency."""
        return self.freq_levels_ghz[-1]

    @property
    def min_freq_ghz(self) -> float:
        """Lowest DVFS frequency."""
        return self.freq_levels_ghz[0]

    @property
    def max_capacity_ghz(self) -> float:
        """Total cycles/s across all cores at maximum frequency."""
        return self.max_freq_ghz * self.cores

    def capacity_at(self, freq_ghz: float) -> float:
        """Total capacity at a given per-core frequency."""
        return float(freq_ghz) * self.cores

    def lowest_level_for(self, demand_ghz):
        """Lowest frequency whose total capacity covers *demand_ghz*.

        Returns the maximum frequency if even that cannot cover the
        demand (the overloaded case — the arbitrator then rations).
        *demand_ghz* may be an array (one demand per server of this
        CPU); the result then is the array of chosen frequencies.
        """
        level = np.searchsorted(self._level_caps, demand_ghz - 1e-9)
        return self._levels[np.minimum(level, len(self._levels) - 1)]


@dataclass(frozen=True)
class ServerSpec:
    """A server model: CPU, memory, and power characteristics."""

    name: str
    cpu: CPUSpec
    memory_mb: int
    power: ServerPowerModel

    def __post_init__(self):
        if self.memory_mb <= 0:
            raise ValueError(f"memory_mb must be positive, got {self.memory_mb}")

    @property
    def max_capacity_ghz(self) -> float:
        """Total CPU capacity at maximum frequency."""
        return self.cpu.max_capacity_ghz

    @property
    def power_efficiency(self) -> float:
        """GHz of capacity per watt at full load — the paper's sort key
        ("ratio between the maximum CPU frequency and maximum power
        consumption", §V)."""
        return self.cpu.max_capacity_ghz / self.power.busy_w


class Server:
    """A physical server instance with runtime state.

    State is limited to what the paper's algorithms (and the fault
    subsystem) manipulate: the active/sleep flag, the current DVFS
    frequency, a crashed flag, and a thermal-throttle capacity fraction.
    VM placement is tracked by
    :class:`repro.cluster.datacenter.DataCenter` to keep a single source
    of truth.
    """

    __slots__ = ("server_id", "spec", "active", "freq_ghz", "failed", "capacity_fraction")

    def __init__(self, server_id: str, spec: ServerSpec, active: bool = True):
        self.server_id = server_id
        self.spec = spec
        self.active = bool(active)
        self.freq_ghz = spec.cpu.max_freq_ghz
        self.failed = False
        self.capacity_fraction = 1.0

    def capacity_at(self, freq_ghz: float) -> float:
        """Effective capacity at a frequency, throttle applied."""
        return self.spec.cpu.capacity_at(freq_ghz) * self.capacity_fraction

    @property
    def capacity_ghz(self) -> float:
        """Capacity at the *current* frequency (0 when sleeping)."""
        if not self.active:
            return 0.0
        return self.capacity_at(self.freq_ghz)

    @property
    def max_capacity_ghz(self) -> float:
        """Effective capacity at maximum frequency regardless of state.

        A thermal throttle scales this down, so overload detection and
        the optimizer's packing both see the degraded machine.
        """
        return self.spec.max_capacity_ghz * self.capacity_fraction

    def set_frequency(self, freq_ghz: float) -> None:
        """Switch to one of the spec's discrete DVFS levels."""
        levels = self.spec.cpu.freq_levels_ghz
        if not any(abs(freq_ghz - f) < 1e-9 for f in levels):
            raise ValueError(
                f"{freq_ghz} GHz is not a DVFS level of {self.spec.cpu.model} "
                f"(levels: {levels})"
            )
        self.freq_ghz = float(freq_ghz)

    def power_w(self, used_ghz: float) -> float:
        """Instantaneous power given average GHz actually consumed."""
        if self.failed:
            return 0.0  # a crashed server draws nothing
        if not self.active:
            return self.spec.power.sleep_power_w()
        cap = self.capacity_ghz
        util = 0.0 if cap <= 0 else min(max(used_ghz / cap, 0.0), 1.0)
        ratio = self.freq_ghz / self.spec.cpu.max_freq_ghz
        return self.spec.power.active_power_w(ratio, util)

    def sleep(self) -> None:
        """Enter the sleep state (caller must have evacuated VMs)."""
        self.active = False

    def wake(self) -> None:
        """Leave the sleep state at maximum frequency."""
        if self.failed:
            raise ValueError(f"cannot wake crashed server {self.server_id}")
        self.active = True
        self.freq_ghz = self.spec.cpu.max_freq_ghz

    # -- fault state ---------------------------------------------------

    def fail(self) -> None:
        """Crash: drop out of the active pool until :meth:`repair`."""
        self.failed = True
        self.active = False

    def repair(self) -> None:
        """Clear the crashed flag; the server rejoins the *sleeping*
        pool (a wake/optimizer decision brings it back into service)."""
        self.failed = False

    def throttle(self, fraction: float) -> None:
        """Clamp effective capacity to ``fraction`` of nominal (0, 1]."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"throttle fraction must be in (0, 1], got {fraction}")
        self.capacity_fraction = float(fraction)

    def unthrottle(self) -> None:
        """Restore nominal capacity."""
        self.capacity_fraction = 1.0

    def __repr__(self) -> str:
        state = "failed" if self.failed else ("active" if self.active else "sleeping")
        return f"Server({self.server_id}, {self.spec.name}, {state}, {self.freq_ghz}GHz)"
