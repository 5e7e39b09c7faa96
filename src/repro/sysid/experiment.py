"""Run an identification experiment against a simulated application.

This reproduces the paper's workflow end-to-end: drive the (simulated)
RUBBoS instance with an exciting CPU-allocation trajectory, record the
per-period 90-percentile response times, and fit the ARX model the MPC
controller will use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.rubbos import MultiTierApp
from repro.sysid.excitation import excitation_trajectory
from repro.sysid.fit import FitResult, fit_arx
from repro.util.rng import RngLike, ensure_rng
from repro.util.validation import check_positive

__all__ = ["IdentificationData", "run_identification_experiment", "identify_app_model"]

#: Simulated seconds the plant runs before the first recorded period.
_WARMUP_S = 60.0


@dataclass(frozen=True)
class IdentificationData:
    """Raw input/output data from an identification run.

    ``c`` has shape ``(K, m)`` (allocation applied during period k);
    ``t`` has shape ``(K,)`` (p90 response time measured over period k,
    ms; NaN where no request completed).
    """

    t: np.ndarray
    c: np.ndarray
    period_s: float


def run_identification_experiment(
    app: MultiTierApp,
    n_periods: int = 120,
    period_s: float = 15.0,
    alloc_lower: np.ndarray | None = None,
    alloc_upper: np.ndarray | None = None,
    rng: RngLike = None,
    metric: str = "p90",
) -> IdentificationData:
    """Excite *app*'s allocations and record its response times.

    The excitation is an independent APRBS per tier within
    ``[alloc_lower, alloc_upper]`` (defaults: the tier actuator ranges
    narrowed to their central 60%, keeping the plant inside the region
    where the local-linear model is a sensible fit).  ``metric`` picks
    the recorded SLA statistic (p90/p50/mean/max) — it must match the
    metric the controller will later consume.
    """
    check_positive("period_s", period_s)
    if n_periods < 10:
        raise ValueError(f"n_periods must be >= 10, got {n_periods}")
    generator = ensure_rng(rng)
    lo, hi = app.allocation_bounds()
    if alloc_lower is None:
        alloc_lower = lo + 0.2 * (hi - lo)
    if alloc_upper is None:
        alloc_upper = hi - 0.2 * (hi - lo)
    trajectory = excitation_trajectory(
        n_periods, np.asarray(alloc_lower), np.asarray(alloc_upper), generator
    )
    app.warmup(_WARMUP_S)
    t = np.empty(n_periods)
    for k in range(n_periods):
        app.set_allocations(trajectory[k])
        stats = app.run_period(period_s)
        t[k] = stats.metric(metric)
    return IdentificationData(t=t, c=trajectory, period_s=period_s)


def identify_app_model(
    app: MultiTierApp,
    n_periods: int = 120,
    period_s: float = 15.0,
    alloc_lower: np.ndarray | None = None,
    alloc_upper: np.ndarray | None = None,
    rng: RngLike = None,
    metric: str = "p90",
) -> FitResult:
    """Convenience wrapper: excite, record, and fit in one call.

    Fits the paper's model orders (na=1, nb=2); the excitation range
    and SLA metric pass through to :func:`run_identification_experiment`.
    """
    data = run_identification_experiment(
        app,
        n_periods=n_periods,
        period_s=period_s,
        alloc_lower=alloc_lower,
        alloc_upper=alloc_upper,
        rng=rng,
        metric=metric,
    )
    return fit_arx(data.t, data.c, na=1, nb=2)
