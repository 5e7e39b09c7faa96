"""Lightweight span tracing: wall-time + nesting for hot paths.

Usage (via the :class:`~repro.obs.telemetry.Telemetry` facade)::

    with tel.span("mpc.solve", app="app3") as sp:
        ...
        sp.annotate(softened=True)

On exit an enabled span (a) observes its duration into the histogram
``span.<name>`` of the telemetry's metrics registry and (b) emits a
``{"kind": "span", ...}`` record to the backend, carrying name, start
attributes plus annotations, wall-clock duration, nesting depth, and
the enclosing span's name.

When telemetry is disabled the facade returns the shared
:data:`NOOP_SPAN` instead — no clock reads, no allocation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Span", "NoopSpan", "NOOP_SPAN", "Tracer"]


class NoopSpan:
    """Shared do-nothing span returned when telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        """Ignored."""


NOOP_SPAN = NoopSpan()


class Span:
    """One timed, nestable region of execution."""

    __slots__ = ("tracer", "name", "attrs", "depth", "parent", "start_s", "duration_s")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.parent: Optional[str] = None
        self.start_s = 0.0
        self.duration_s = float("nan")

    def annotate(self, **attrs) -> None:
        """Attach extra attributes discovered while the span runs."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        self.depth = len(stack)
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order exits
            stack.remove(self)
        self.tracer._finish(self, error=exc_type is not None)
        return False


class Tracer:
    """Creates spans and routes finished ones to a registry + backend.

    ``sample_every`` keeps only every Nth finished span *record* per
    span name (the first is always kept); durations still feed the
    ``span.<name>`` histograms for **every** span, so aggregate timing
    stays exact while backend/serialization cost drops by ~N.  The
    counter is per name and deterministic — no RNG is consulted, so
    sampling can never perturb a seeded run.
    """

    def __init__(
        self,
        registry,
        backend,
        record_spans: bool = True,
        sample_every: int = 1,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.registry = registry
        self.backend = backend
        self.record_spans = record_spans
        self.sample_every = int(sample_every)
        self._finished_counts: Dict[str, int] = {}
        self._stack: List[Span] = []

    def span(self, name: str, **attrs) -> Span:
        """Open a new span nested under whatever span is active."""
        return Span(self, name, attrs)

    def _finish(self, span: Span, error: bool) -> None:
        self.registry.histogram(f"span.{span.name}").observe(span.duration_s)
        if not self.record_spans:
            return
        if self.sample_every > 1:
            seen = self._finished_counts.get(span.name, 0)
            self._finished_counts[span.name] = seen + 1
            if seen % self.sample_every != 0 and not error:
                return
        record: Dict[str, object] = {
            "kind": "span",
            "name": span.name,
            "duration_s": span.duration_s,
            "depth": span.depth,
        }
        if span.parent is not None:
            record["parent"] = span.parent
        if error:
            record["error"] = True
        if span.attrs:
            record.update(span.attrs)
        self.backend.emit(record)
