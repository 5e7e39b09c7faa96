"""Observability for the two-level power manager: metrics, spans, events.

The package gives every layer of the stack a common measurement
substrate:

* :class:`MetricsRegistry` — named counters (:func:`prom_text` renders
  Prometheus text families);
* span tracing — ``with get_telemetry().span("mpc.solve", app="app3"):``
  captures wall time and nesting for the hot paths (MPC QP solve,
  arbitrator pass, Minimum-Slack search, IPAC planning, DES stepping),
  one ``span`` record per span;
* a structured JSONL event log — one record per control period,
  optimizer invocation, migration, and server power transition — with
  pluggable backends (:class:`JsonlBackend`, :class:`InMemoryBackend`)
  and a :class:`NullBackend` default whose overhead is a single
  attribute check.

Telemetry is **off by default**: the process-wide instance wraps
:class:`NullBackend`.  Enable it per run::

    from repro import run_testbed
    from repro.obs import JsonlBackend, Telemetry, use_telemetry

    with use_telemetry(Telemetry(JsonlBackend("run.jsonl"))):
        result = run_testbed(config)

then inspect the file with ``repro obs summarize run.jsonl`` (or
``profile`` / ``audit`` / ``watch`` — see ``docs/OBSERVABILITY.md``).
Each of those reports is a function of one :class:`RunLog`, the run's
event log folded record by record (:mod:`repro.obs.runlog`).

Request-path tracing and energy attribution (:mod:`repro.obs.reqtrace`,
:mod:`repro.obs.attribution`) turn the same event log into
PowerTracer-style per-tier, per-application energy figures; the
:mod:`repro.obs.audit` pipeline evaluates SLO compliance and power
savings over a finished (or still-growing) run file.
"""

from repro.obs.attribution import EnergyAttributor
from repro.obs.audit import AuditConfig, audit_run, render_audit
from repro.obs.backends import (
    InMemoryBackend,
    JsonlBackend,
    NullBackend,
    TelemetryBackend,
    close_open_backends,
    install_sigterm_flush,
)
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    prom_escape_label,
    prom_line,
    prom_text,
)
from repro.obs.profile import profile_run, render_profile
from repro.obs.reqtrace import RequestTrace, RequestTracer, TierVisit
from repro.obs.runlog import JsonlFollower, RunLog, read_jsonl_lenient
from repro.obs.summarize import render_summary, summarize_run
from repro.obs.telemetry import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer
from repro.obs.watch import render_watch, watch, watch_prometheus, watch_view

__all__ = [
    "Counter",
    "MetricsRegistry",
    "TelemetryBackend",
    "NullBackend",
    "InMemoryBackend",
    "JsonlBackend",
    "close_open_backends",
    "install_sigterm_flush",
    "Span",
    "NoopSpan",
    "NOOP_SPAN",
    "Tracer",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "prom_escape_label",
    "prom_line",
    "prom_text",
    "TierVisit",
    "RequestTrace",
    "RequestTracer",
    "EnergyAttributor",
    "JsonlFollower",
    "read_jsonl_lenient",
    "RunLog",
    "summarize_run",
    "render_summary",
    "profile_run",
    "render_profile",
    "AuditConfig",
    "audit_run",
    "render_audit",
    "watch_view",
    "render_watch",
    "watch_prometheus",
    "watch",
]
