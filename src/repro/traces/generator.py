"""Synthetic data-center utilization trace generator.

Reproduces the *structure* of the paper's proprietary trace (DESIGN.md
§5): 5,415 series, 7 days starting on a Monday, 15-minute averages, ten
companies spread over four sectors.  Each sector gets a characteristic
shape:

* **financial** — sharp business-hours peak, deep weekend trough;
* **retail** — evening-leaning peak, weekends *busier* than weekdays;
* **telecom** — broad day-long plateau, mild weekend effect;
* **manufacturing** — shift-driven double hump, moderate weekend drop.

On top of the deterministic shape every series carries AR(1)-correlated
noise and occasional load spikes (the "breaking news" events §VII-A
motivates).  Everything is vectorized and driven by a seeded generator,
so any trace is reproducible from its config + seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.traces.trace import UtilizationTrace
from repro.util.rng import RngLike, ensure_rng

__all__ = ["SECTORS", "SectorProfile", "TraceConfig", "generate_trace"]


@dataclass(frozen=True)
class SectorProfile:
    """Shape parameters of one industry sector.

    ``peak_hours`` are the centers of the daily load bumps (may be two,
    e.g. manufacturing shifts); ``weekend_factor`` multiplies the
    *daily-varying* load component on Saturday/Sunday.
    """

    name: str
    base_range: Tuple[float, float]
    amplitude_range: Tuple[float, float]
    peak_hours: Tuple[float, ...]
    peak_width_h: float
    weekend_factor: float


SECTORS: Tuple[SectorProfile, ...] = (
    SectorProfile("manufacturing", (0.10, 0.35), (0.15, 0.45), (9.0, 21.0), 4.5, 0.55),
    SectorProfile("telecom", (0.15, 0.40), (0.10, 0.30), (14.0,), 7.0, 0.85),
    SectorProfile("financial", (0.08, 0.30), (0.25, 0.60), (11.0,), 3.0, 0.30),
    SectorProfile("retail", (0.10, 0.30), (0.20, 0.50), (19.0,), 4.0, 1.25),
)


@dataclass(frozen=True)
class TraceConfig:
    """Dimensions and stochastic parameters of a generated trace."""

    n_servers: int = 5415
    n_days: int = 7
    interval_s: float = 900.0
    n_companies: int = 10
    noise_std: float = 0.03
    noise_ar1: float = 0.6
    spike_probability: float = 0.002
    spike_magnitude: float = 0.35
    spike_duration_samples: int = 8
    min_utilization: float = 0.02
    max_utilization: float = 1.0

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {self.n_servers}")
        if self.n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {self.n_days}")
        if not (self.interval_s > 0 and math.isfinite(self.interval_s)):
            raise ValueError(f"interval_s must be positive and finite, got {self.interval_s}")
        if self.samples_per_day < 1:
            raise ValueError(
                f"interval_s must leave at least one sample per day, got {self.interval_s}"
            )
        if self.n_companies < 1:
            raise ValueError(f"n_companies must be >= 1, got {self.n_companies}")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise ValueError(f"noise_std must be non-negative and finite, got {self.noise_std}")
        if not 0 <= self.noise_ar1 < 1:
            raise ValueError(f"noise_ar1 must be in [0, 1), got {self.noise_ar1}")
        if not 0 <= self.spike_probability <= 1:
            raise ValueError("spike_probability must be a probability")
        if not math.isfinite(self.spike_magnitude):
            raise ValueError(f"spike_magnitude must be finite, got {self.spike_magnitude}")
        if self.spike_duration_samples < 0:
            raise ValueError(
                f"spike_duration_samples must be >= 0, got {self.spike_duration_samples}"
            )
        if not 0 <= self.min_utilization <= self.max_utilization <= 1:
            raise ValueError(
                "min_utilization and max_utilization must satisfy "
                f"0 <= min_utilization <= max_utilization <= 1, got "
                f"{self.min_utilization} and {self.max_utilization}"
            )

    @property
    def samples_per_day(self) -> int:
        """Number of intervals per day (96 for 15-minute sampling)."""
        return int(round(86400.0 / self.interval_s))

    @property
    def n_samples(self) -> int:
        """Total samples per series."""
        return self.samples_per_day * self.n_days


def _daily_shape(hours: np.ndarray, profile: SectorProfile) -> np.ndarray:
    """Normalized daily bump pattern in [0, 1] for given hour-of-day values."""
    shape = np.zeros_like(hours)
    for peak in profile.peak_hours:
        # Circular distance in hours, Gaussian bump.
        delta = np.minimum(np.abs(hours - peak), 24.0 - np.abs(hours - peak))
        shape += np.exp(-0.5 * (delta / profile.peak_width_h) ** 2)
    top = shape.max()
    return shape / top if top > 0 else shape


def generate_trace(config: TraceConfig | None = None, rng: RngLike = None) -> UtilizationTrace:
    """Generate a synthetic utilization trace.

    Companies are assigned round-robin to sectors; servers are split
    evenly across companies; all randomness flows from *rng*.

    The noise and spike terms are built in place, so besides the result
    at most two full-size ``(n_servers, n_samples)`` arrays are alive at
    once: a draw and, for the spike decay, one product buffer.
    """
    config = config or TraceConfig()
    generator = ensure_rng(rng)
    n = config.n_servers
    k = config.n_samples

    # Hour-of-day and weekday for every sample (trace starts Monday 00:00).
    t_idx = np.arange(k)
    hours = (t_idx * config.interval_s / 3600.0) % 24.0
    day = (t_idx * config.interval_s // 86400).astype(int)
    is_weekend = (day % 7) >= 5  # days 5, 6 of each week = Sat, Sun

    # Assign servers -> companies -> sectors.
    company_of = generator.integers(config.n_companies, size=n)
    sector_of_company = np.arange(config.n_companies) % len(SECTORS)
    sector_of = sector_of_company[company_of]

    labels: List[str] = [
        f"{SECTORS[sector_of[i]].name}/company{company_of[i]}" for i in range(n)
    ]

    util = np.empty((n, k))
    # Per-company phase jitter so companies in the same sector differ.
    company_phase = generator.uniform(-1.5, 1.5, size=config.n_companies)

    for s_idx, profile in enumerate(SECTORS):
        members = np.flatnonzero(sector_of == s_idx)
        if members.size == 0:
            continue
        base = generator.uniform(*profile.base_range, size=members.size)
        amp = generator.uniform(*profile.amplitude_range, size=members.size)
        phase = company_phase[company_of[members]] + generator.uniform(
            -0.5, 0.5, size=members.size
        )
        # (members, k) daily shape with per-server phase shift.
        shifted_hours = (hours[None, :] - phase[:, None]) % 24.0
        shape = _daily_shape(shifted_hours, profile)
        weekend_scale = np.where(is_weekend, profile.weekend_factor, 1.0)
        util[members] = base[:, None] + amp[:, None] * shape * weekend_scale[None, :]
        del shifted_hours, shape

    # AR(1)-correlated noise, vectorized over series, built in the white
    # draw's own buffer: column j still holds its white sample when the
    # right-hand side is evaluated, and column j-1 already holds noise.
    noise = generator.normal(0.0, config.noise_std, size=(n, k))
    rho = config.noise_ar1
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, k):
        noise[:, j] = rho * noise[:, j - 1] + scale * noise[:, j]
    util += noise
    del noise

    # Sparse spikes with exponential-ish decay over a few samples.
    spikes = generator.random((n, k)) < config.spike_probability
    if spikes.any() and config.spike_duration_samples > 0:
        impulse = generator.uniform(
            0.5 * config.spike_magnitude, 1.5 * config.spike_magnitude, size=(n, k)
        )
        impulse[~spikes] = 0.0
        del spikes
        decay = np.exp(-np.arange(config.spike_duration_samples) / max(config.spike_duration_samples / 3.0, 1.0))
        # One product buffer for every lag; a lag of k or more adds nothing.
        product = np.empty_like(impulse)
        for d, w in enumerate(decay[:k]):
            np.multiply(impulse[:, : k - d], w, out=product[:, : k - d])
            util[:, d:] += product[:, : k - d]
        del impulse, product

    np.clip(util, config.min_utilization, config.max_utilization, out=util)
    return UtilizationTrace(util, interval_s=config.interval_s, labels=labels)
