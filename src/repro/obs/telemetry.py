"""The telemetry facade and the (thread-local) current instance.

:class:`Telemetry` bundles a :class:`~repro.obs.metrics.MetricsRegistry`,
a :class:`~repro.obs.trace.Tracer`, and a backend into the single object
instrumentation sites talk to.  The current instance is **per thread**
(so concurrent runs — e.g. experiment-runner workers — each keep their
own event log); the default in every thread is a disabled
instance over :class:`~repro.obs.backends.NullBackend`; every
instrumented call site first checks ``tel.enabled``, so the disabled
path costs one global lookup and one attribute check.

Enable telemetry for a region of code with :func:`use_telemetry`::

    from repro import run_testbed
    from repro.obs import JsonlBackend, Telemetry, use_telemetry

    with use_telemetry(Telemetry(JsonlBackend("run.jsonl"))):
        run_testbed(config)

On scope exit the telemetry is closed: a final ``{"kind": "metrics"}``
record carrying the registry snapshot is emitted, then the backend is
flushed and released.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.backends import NullBackend, TelemetryBackend
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = ["Telemetry", "get_telemetry", "set_telemetry", "use_telemetry"]


class Telemetry:
    """Registry + tracer + backend behind one enabled/disabled switch."""

    def __init__(
        self,
        backend: Optional[TelemetryBackend] = None,
        registry: Optional[MetricsRegistry] = None,
        record_spans: bool = True,
        span_sample_every: int = 1,
    ):
        self.backend = backend or NullBackend()
        self.registry = registry or MetricsRegistry()
        self.enabled = bool(self.backend.enabled)
        self.tracer = Tracer(
            self.registry,
            self.backend,
            record_spans=record_spans,
            sample_every=span_sample_every,
        )
        self._closed = False

    # -- spans ---------------------------------------------------------

    def span(self, name: str, **attrs):
        """A timed span context manager (no-op singleton when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    # -- events --------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        """Emit one structured event record."""
        if not self.enabled:
            return
        self.backend.emit({"kind": kind, **fields})

    # -- metrics -------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter *name* (no-op when disabled)."""
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Observe *value* into histogram *name* (no-op when disabled)."""
        if self.enabled:
            self.registry.histogram(name).observe(value)

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        """Flush the backend without closing it."""
        self.backend.flush()

    def close(self) -> None:
        """Emit the final metrics snapshot and close the backend."""
        if self._closed:
            return
        self._closed = True
        if self.enabled:
            self.backend.emit({"kind": "metrics", "metrics": self.registry.snapshot()})
        self.backend.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


_NULL_TELEMETRY = Telemetry(NullBackend())


class _TelemetryState(threading.local):
    """Per-thread current telemetry.

    The class attribute is the default every thread starts from; an
    assignment in :func:`set_telemetry` shadows it for that thread only.
    Thread-locality is what lets the experiment runner
    (:mod:`repro.service.runner`) drive several instrumented runs
    concurrently, each writing its own event log, without the workers
    seeing each other's backends.
    """

    current: Telemetry = _NULL_TELEMETRY


_state = _TelemetryState()


def get_telemetry() -> Telemetry:
    """The current telemetry for this thread (disabled null by default)."""
    return _state.current


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install *telemetry* as current for this thread (None restores
    the disabled null).

    Returns the previously current instance so callers can restore it.
    """
    previous = _state.current
    _state.current = telemetry if telemetry is not None else _NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry, close: bool = True) -> Iterator[Telemetry]:
    """Make *telemetry* current for the scope; close it on exit.

    Pass ``close=False`` to keep the backend open (e.g. to inspect an
    in-memory backend after several scoped runs).
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
        if close:
            telemetry.close()
