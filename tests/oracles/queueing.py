"""Analytic queueing model: exact MVA for closed networks, kept as a
test oracle.

The request-level plant (:class:`repro.apps.rubbos.MultiTierApp`) is
validated against it: a PS tier fed by a closed-loop client population
must agree with exact MVA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.validation import check_non_negative

__all__ = ["MVAResult", "mva_closed_network"]


@dataclass(frozen=True)
class MVAResult:
    """Output of exact Mean Value Analysis for a closed network.

    Attributes
    ----------
    response_time_s:
        Mean end-to-end response time (sum over stations), seconds.
    throughput_rps:
        System throughput in requests per second.
    station_response_s:
        Per-station mean residence times, seconds.
    station_queue_len:
        Per-station mean number of requests present.
    station_utilization:
        Per-station utilization in [0, 1).
    """

    response_time_s: float
    throughput_rps: float
    station_response_s: np.ndarray
    station_queue_len: np.ndarray
    station_utilization: np.ndarray


def mva_closed_network(
    service_times_s: Sequence[float],
    n_clients: int,
    think_time_s: float,
    visits: Sequence[float] | None = None,
) -> MVAResult:
    """Exact single-class MVA for a closed queueing network.

    Stations are queueing (PS or FCFS-exponential — MVA is identical for
    both) with per-visit mean service times ``service_times_s``; clients
    cycle through all stations then think for ``think_time_s``.
    ``visits`` optionally scales per-station visit counts (default 1).

    The classic exact recursion (Reiser & Lavenberg):
    ``R_m(n) = v_m s_m (1 + Q_m(n-1))``, ``X(n) = n / (Z + sum R)``,
    ``Q_m(n) = X(n) R_m(n)``.
    """
    s = np.asarray(service_times_s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("service_times_s must be a non-empty 1-D sequence")
    if np.any(s < 0):
        raise ValueError(f"service times must be >= 0, got {s}")
    if n_clients < 0 or int(n_clients) != n_clients:
        raise ValueError(f"n_clients must be a non-negative integer, got {n_clients}")
    check_non_negative("think_time_s", think_time_s)
    v = np.ones_like(s) if visits is None else np.asarray(visits, dtype=float)
    if v.shape != s.shape:
        raise ValueError("visits must match service_times_s in length")
    if np.any(v < 0):
        raise ValueError(f"visits must be >= 0, got {v}")

    demand = v * s  # per-pass service demand at each station
    q = np.zeros_like(s)
    x = 0.0
    r = np.zeros_like(s)
    for n in range(1, int(n_clients) + 1):
        r = demand * (1.0 + q)
        total_r = float(r.sum())
        x = n / (think_time_s + total_r) if (think_time_s + total_r) > 0 else math.inf
        q = x * r
    total_r = float(r.sum()) if n_clients > 0 else 0.0
    util = np.clip(x * demand, 0.0, 1.0)
    return MVAResult(
        response_time_s=total_r,
        throughput_rps=float(x),
        station_response_s=r.copy(),
        station_queue_len=q.copy(),
        station_utilization=util,
    )
