"""Container for multi-series CPU utilization traces."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = ["UtilizationTrace"]


@dataclass
class UtilizationTrace:
    """A matrix of CPU utilization series.

    Attributes
    ----------
    utilization:
        Shape ``(n_series, n_samples)``, values in [0, 1].  Row *i* is
        the average CPU utilization of source server *i* per interval.
    interval_s:
        Sampling interval in seconds (paper: 900 = 15 minutes).
    labels:
        Optional per-series labels (e.g. ``"financial/company3"``).
    """

    utilization: np.ndarray
    interval_s: float = 900.0
    labels: List[str] = field(default_factory=list)

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.utilization, dtype=float))
        if arr.ndim != 2:
            raise ValueError(f"utilization must be 2-D, got shape {arr.shape}")
        if np.any(~np.isfinite(arr)):
            raise ValueError("utilization contains non-finite values")
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("utilization values must lie in [0, 1]")
        if not self.interval_s > 0:  # NaN fails this too
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        self.utilization = arr
        if self.labels and len(self.labels) != arr.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {arr.shape[0]} series"
            )

    @property
    def n_series(self) -> int:
        """Number of utilization series (source servers / VMs)."""
        return self.utilization.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of samples per series."""
        return self.utilization.shape[1]

    @property
    def duration_s(self) -> float:
        """Covered wall-clock duration."""
        return self.n_samples * self.interval_s

    def subset(self, n: int, rng: np.random.Generator | None = None) -> "UtilizationTrace":
        """First *n* series (deterministic) or a random sample of *n*.

        The paper simulates "54 data centers with different number of
        VMs, ranging from 30 to 5,415" by taking subsets of the trace.
        """
        if not 0 < n <= self.n_series:
            raise ValueError(f"n must be in [1, {self.n_series}], got {n}")
        if rng is None:
            return UtilizationTrace(
                self.utilization[:n].copy(), self.interval_s, self.labels[:n]
            )
        idx = np.sort(rng.choice(self.n_series, size=n, replace=False))
        labels = [self.labels[i] for i in idx] if self.labels else []
        # Fancy indexing already copies.
        return UtilizationTrace(self.utilization[idx], self.interval_s, labels)

    def demands_ghz(self, peak_ghz: Sequence[float] | float) -> np.ndarray:
        """Convert utilization to absolute CPU demand.

        "We treat the utilization data of each server as the CPU demand
        of a VM" (§VI-B): demand = utilization × the VM's peak GHz.
        Returns shape ``(n_series, n_samples)``.
        """
        peak = np.asarray(peak_ghz, dtype=float)
        if peak.ndim == 0:
            peak = np.full(self.n_series, float(peak))
        if peak.shape != (self.n_series,):
            raise ValueError(
                f"peak_ghz must be scalar or length {self.n_series}, got {peak.shape}"
            )
        if np.any(peak < 0):
            raise ValueError("peak_ghz must be non-negative")
        return self.utilization * peak[:, None]

    # -- persistence ---------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write as CSV: header row of labels, one column per series."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            labels = self.labels or [f"series{i}" for i in range(self.n_series)]
            writer.writerow(["interval_s"] + labels)
            writer.writerow([self.interval_s] + [""] * self.n_series)
            for k in range(self.n_samples):
                writer.writerow([k] + [f"{u:.4f}" for u in self.utilization[:, k]])

    @classmethod
    def from_csv(cls, path: str) -> "UtilizationTrace":
        """Read a trace written by :meth:`to_csv`."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            labels = header[1:]
            meta = next(reader)
            interval_s = float(meta[0])
            rows = [[float(v) for v in row[1:]] for row in reader]
        data = np.asarray(rows, dtype=float).T
        return cls(utilization=data, interval_s=interval_s, labels=labels)
