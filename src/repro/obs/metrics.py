"""Counters and the registry that owns them.

A :class:`Counter` is a monotonically increasing total (optimizer moves,
MPC solves, DES events processed), the Prometheus counter kind.  Timing
lives in span records, not here: a span's duration is stored once, in
its ``{"kind": "span"}`` record, and the reports fold those records.

A :class:`MetricsRegistry` creates counters on demand by name and
snapshots them to a plain dict; :func:`prom_text` renders metric families
in the Prometheus text format (``/metrics``, ``repro obs watch --prom``).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
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
    """Create-on-demand registry of named counters."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* by *amount*."""
        self.counter(name).inc(amount)

    def names(self) -> List[str]:
        """All registered counter names, sorted."""
        return sorted(self._counters)

    def reset(self) -> None:
        """Zero every registered counter in place."""
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot: ``{"counters": {name: value}}``."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
        }
