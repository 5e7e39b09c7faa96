"""Metrics containers shared by the testbed and large-scale simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class PeriodStats:
    """Measurements from one control period of one application.

    Attributes
    ----------
    rt_p90_ms:
        Empirical 90-percentile response time over the period (ms).
        ``nan`` when no request completed.
    rt_mean_ms:
        Mean response time over the period (ms); ``nan`` when empty.
    completed:
        Number of requests that completed during the period.
    throughput_rps:
        Completions per second.
    utilizations:
        Per-tier busy fraction of the *allocated* capacity in [0, 1].
    rt_p50_ms / rt_max_ms:
        Median and maximum response times — the alternative SLA metrics
        the paper's §III mentions ("average or maximum response times").
    """

    rt_p90_ms: float
    rt_mean_ms: float
    completed: int
    throughput_rps: float
    utilizations: tuple
    rt_p50_ms: float = float("nan")
    rt_max_ms: float = float("nan")

    def metric(self, name: str) -> float:
        """Look up an SLA metric by short name: p90, p50, mean, or max."""
        try:
            return {
                "p90": self.rt_p90_ms,
                "p50": self.rt_p50_ms,
                "mean": self.rt_mean_ms,
                "max": self.rt_max_ms,
            }[name]
        except KeyError:
            raise ValueError(
                f"unknown SLA metric {name!r}; pick p90, p50, mean, or max"
            ) from None


class SeriesRecorder:
    """Append-only named time series with NumPy export.

    One recorder per experiment run; benches read the arrays back to
    print the figure series.

    By default every sample is kept.  For long (multi-day simulated)
    runs pass ``max_points`` to bound memory: once a series reaches the
    cap it is decimated — every second retained sample is dropped and
    the sampling stride doubles, so the series stays evenly spaced over
    the whole run and never exceeds ``max_points`` entries.
    """

    def __init__(self, max_points: int | None = None) -> None:
        if max_points is not None and max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.max_points = max_points
        self._series: Dict[str, List[float]] = {}
        self._times: Dict[str, List[float]] = {}
        self._strides: Dict[str, int] = {}
        self._seen: Dict[str, int] = {}

    def record(self, name: str, time_s: float, value: float) -> None:
        """Append ``(time_s, value)`` to series *name*."""
        if self.max_points is None:
            self._series.setdefault(name, []).append(float(value))
            self._times.setdefault(name, []).append(float(time_s))
            return
        seen = self._seen.get(name, 0)
        stride = self._strides.setdefault(name, 1)
        self._seen[name] = seen + 1
        if seen % stride != 0:
            return
        vals = self._series.setdefault(name, [])
        times = self._times.setdefault(name, [])
        vals.append(float(value))
        times.append(float(time_s))
        if len(vals) >= self.max_points:
            self._series[name] = vals[::2]
            self._times[name] = times[::2]
            self._strides[name] = stride * 2

    def count(self, name: str) -> int:
        """Total samples *offered* to series *name* (before decimation)."""
        if self.max_points is None:
            return len(self._series.get(name, []))
        return self._seen.get(name, 0)

    def clear(self) -> None:
        """Drop all recorded series and reset decimation state."""
        self._series.clear()
        self._times.clear()
        self._strides.clear()
        self._seen.clear()

    def names(self) -> Sequence[str]:
        """Names of all recorded series, insertion-ordered."""
        return list(self._series.keys())

    def values(self, name: str) -> np.ndarray:
        """Values of series *name* as a float array."""
        return np.asarray(self._series.get(name, []), dtype=float)

    def times(self, name: str) -> np.ndarray:
        """Timestamps of series *name* as a float array."""
        return np.asarray(self._times.get(name, []), dtype=float)

    def last(self, name: str, default: float = float("nan")) -> float:
        """Most recent value of series *name* (or *default*)."""
        vals = self._series.get(name)
        return vals[-1] if vals else default

    def summary(self, name: str) -> dict:
        """Mean / std / min / max summary of a series (NaNs ignored)."""
        vals = self.values(name)
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            return {"mean": np.nan, "std": np.nan, "min": np.nan, "max": np.nan, "n": 0}
        return {
            "mean": float(finite.mean()),
            "std": float(finite.std(ddof=0)),
            "min": float(finite.min()),
            "max": float(finite.max()),
            "n": int(finite.size),
        }
