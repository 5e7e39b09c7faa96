"""Metric primitives and the registry that owns them.

Two metric kinds, mirroring the Prometheus data model the rest of the
industry standardized on:

* :class:`Counter` — a monotonically increasing total (optimizer moves,
  MPC solves, DES events processed);
* :class:`Histogram` — a sample distribution with quantile summaries
  (span durations, per-period tracking error).  Sample storage is
  bounded: past ``max_samples`` retained points the histogram decimates
  deterministically (keeps every 2nd sample and doubles its stride), so
  quantiles stay representative while memory stays O(max_samples).
  ``count``/``sum``/``min``/``max`` remain exact over *all* observations.

A :class:`MetricsRegistry` creates metrics on demand by name and
snapshots them to plain dicts; :func:`prom_text` renders metric families
in the Prometheus text format (``/metrics``, ``repro obs watch --prom``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "prom_escape_label",
    "prom_line",
    "prom_text",
]


class Counter:
    """A monotonically increasing float total."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self._value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self._value = 0.0


class Histogram:
    """Bounded-memory sample distribution with quantile summaries.

    Observations are appended to a retained-sample list; once the list
    reaches ``max_samples`` it is decimated (every 2nd sample kept) and
    the sampling stride doubles, so only every ``stride``-th future
    observation is retained.  The decimation is deterministic — repeated
    runs of a seeded experiment produce identical snapshots.
    """

    __slots__ = (
        "name",
        "max_samples",
        "_samples",
        "_stride",
        "_seen",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, name: str, max_samples: int = 8192):
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.max_samples = int(max_samples)
        self._samples: List[float] = []
        self._stride = 1
        self._seen = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Exact number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        return self._sum

    @property
    def min(self) -> float:
        """Exact minimum (NaN when empty)."""
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        """Exact maximum (NaN when empty)."""
        return self._max if self._count else float("nan")

    @property
    def mean(self) -> float:
        """Exact mean (NaN when empty)."""
        return self._sum / self._count if self._count else float("nan")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if math.isnan(value):
            return
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._seen % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2
        self._seen += 1

    def quantile(self, q: float) -> float:
        """Empirical q-quantile over the retained samples (NaN if empty).

        Linear interpolation between order statistics, the same scheme
        as ``numpy.percentile``'s default.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return float("nan")
        xs = sorted(self._samples)
        pos = q * (len(xs) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return xs[lo]
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    def summary(self) -> Dict[str, float]:
        """count / sum / mean / min / max / p50 / p90 / p99 snapshot."""
        return {
            "count": float(self._count),
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        """Drop all state."""
        self._samples.clear()
        self._stride = 1
        self._seen = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus text format."""
    clean = _PROM_BAD.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def prom_escape_label(value: object) -> str:
    """Escape a label value per the Prometheus text-format rules.

    Backslash, double quote, and newline must be escaped inside the
    quoted label value; everything else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def prom_line(name: str, labels: Optional[Mapping[str, object]], value: float) -> str:
    """One Prometheus text-format sample line with escaped labels."""
    pname = _prom_name(name)
    if labels:
        body = ",".join(
            f'{_prom_name(str(k))}="{prom_escape_label(v)}"'
            for k, v in labels.items()
        )
        return f"{pname}{{{body}}} {value:g}"
    return f"{pname} {value:g}"


#: One metric family: ``(name, type, samples)``; a sample is
#: ``(suffix, labels, value)``, rendered as metric ``name + suffix``.
PromFamily = Tuple[str, str, Iterable[Tuple[str, Optional[Mapping[str, object]], float]]]


def prom_text(families: Iterable[PromFamily]) -> str:
    """Prometheus text exposition: per family a ``# TYPE`` line, then its samples."""
    lines: List[str] = []
    for name, kind, samples in families:
        lines.append(f"# TYPE {_prom_name(name)} {kind}")
        lines += [prom_line(name + suffix, labels, value)
                  for suffix, labels, value in samples]
    return "\n".join(lines) + ("\n" if lines else "")


class MetricsRegistry:
    """Create-on-demand registry of named counters and histograms.

    A name belongs to exactly one metric kind for the registry's
    lifetime; asking for the same name as a different kind raises.
    """

    def __init__(self, histogram_max_samples: int = 8192):
        self.histogram_max_samples = histogram_max_samples
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created on first use."""
        c = self._counters.get(name)
        if c is None:
            if name in self._histograms:
                raise ValueError(f"metric {name!r} already registered as a histogram")
            c = self._counters[name] = Counter(name)
        return c

    def histogram(self, name: str, max_samples: Optional[int] = None) -> Histogram:
        """The histogram named *name*, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            if name in self._counters:
                raise ValueError(f"metric {name!r} already registered as a counter")
            h = self._histograms[name] = Histogram(
                name, max_samples or self.histogram_max_samples
            )
        return h

    # -- convenience ---------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram *name*."""
        self.histogram(name).observe(value)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(list(self._counters) + list(self._histograms))

    def reset(self) -> None:
        """Reset every registered metric in place."""
        for table in (self._counters, self._histograms):
            for metric in table.values():
                metric.reset()

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot: {counters: {...}, histograms: {...}}."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }
