"""Reference trace generator, preserved verbatim from before the in-place build.

:func:`repro.traces.generator.generate_trace` builds the AR(1) noise in
the ``normal`` draw's own buffer, zeroes the spike magnitudes in place
and runs the decay loop through one reused product buffer, so it keeps
about three full-size arrays alive.  This module keeps the body it
replaced, which held the white noise, the noise, the spike mask, the
magnitudes, the impulse and a product temporary all at once.
``tests/test_traces.py`` asserts that both return byte-identical traces.

Nothing here should be "improved" — it is the frozen baseline.  The
only departures from the source are this docstring and the imports
(the sector table and the config are the module's).  ``_daily_shape``
is the shape function as it was then, kept here because the module's
own now works in scratch buffers.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.traces.generator import SECTORS, SectorProfile, TraceConfig
from repro.traces.trace import UtilizationTrace
from repro.util.rng import RngLike, ensure_rng


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

    # AR(1)-correlated noise, vectorized over series.
    white = generator.normal(0.0, config.noise_std, size=(n, k))
    noise = np.empty_like(white)
    noise[:, 0] = white[:, 0]
    rho = config.noise_ar1
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, k):
        noise[:, j] = rho * noise[:, j - 1] + scale * white[:, j]
    util += noise

    # Sparse spikes with exponential-ish decay over a few samples.
    spikes = generator.random((n, k)) < config.spike_probability
    if spikes.any() and config.spike_duration_samples > 0:
        magnitudes = generator.uniform(
            0.5 * config.spike_magnitude, 1.5 * config.spike_magnitude, size=(n, k)
        )
        impulse = np.where(spikes, magnitudes, 0.0)
        decay = np.exp(-np.arange(config.spike_duration_samples) / max(config.spike_duration_samples / 3.0, 1.0))
        for d, w in enumerate(decay):
            if d == 0:
                util += impulse * w
            else:
                util[:, d:] += impulse[:, :-d] * w

    np.clip(util, config.min_utilization, config.max_utilization, out=util)
    return UtilizationTrace(util, interval_s=config.interval_s, labels=labels)
