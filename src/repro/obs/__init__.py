"""Observability for the two-level power manager: metrics, spans, events.

The package gives every layer of the stack a common measurement
substrate:

* :class:`MetricsRegistry` — counters, gauges, and histograms with
  p50/p90/p99 summaries and a Prometheus-style text dump;
* span tracing — ``with get_telemetry().span("mpc.solve", app="app3"):``
  captures wall time and nesting for the hot paths (MPC QP solve,
  RLS update, arbitrator pass, Minimum-Slack search, IPAC planning,
  DES stepping);
* a structured JSONL event log — one record per control period,
  optimizer invocation, migration, and server power transition — with
  pluggable backends (:class:`JsonlBackend`, :class:`InMemoryBackend`,
  :class:`PrometheusTextBackend`) and a :class:`NullBackend` default
  whose overhead is a single attribute check.

Telemetry is **off by default**: the process-wide instance wraps
:class:`NullBackend`.  Enable it per run::

    from repro import run_testbed
    from repro.obs import JsonlBackend, Telemetry, use_telemetry

    with use_telemetry(Telemetry(JsonlBackend("run.jsonl"))):
        result = run_testbed(config)

then inspect the file with ``repro obs summarize run.jsonl`` (or
``profile`` / ``audit`` / ``watch`` — see ``docs/OBSERVABILITY.md``).

Request-path tracing and energy attribution (:mod:`repro.obs.reqtrace`,
:mod:`repro.obs.attribution`) turn the same event log into
PowerTracer-style per-tier, per-application energy figures; the
:mod:`repro.obs.audit` pipeline evaluates SLO compliance and power
savings over a finished (or still-growing) run file.
"""

from repro.obs.attribution import EnergyAttributor
from repro.obs.audit import (
    AuditConfig,
    AuditPipeline,
    audit_events,
    audit_jsonl,
    render_audit,
)
from repro.obs.backends import (
    InMemoryBackend,
    JsonlBackend,
    NullBackend,
    PrometheusTextBackend,
    TelemetryBackend,
    close_open_backends,
    install_sigterm_flush,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prom_escape_label,
    prom_line,
)
from repro.obs.profile import profile_events, profile_jsonl, render_profile
from repro.obs.reqtrace import RequestTrace, RequestTracer, TierVisit
from repro.obs.summarize import (
    read_jsonl,
    read_jsonl_lenient,
    render_summary,
    summarize_events,
    summarize_jsonl,
)
from repro.obs.telemetry import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer
from repro.obs.watch import JsonlFollower, LiveDashboard, watch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetryBackend",
    "NullBackend",
    "InMemoryBackend",
    "JsonlBackend",
    "PrometheusTextBackend",
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
    "read_jsonl",
    "read_jsonl_lenient",
    "summarize_events",
    "summarize_jsonl",
    "render_summary",
    "prom_escape_label",
    "prom_line",
    "TierVisit",
    "RequestTrace",
    "RequestTracer",
    "EnergyAttributor",
    "AuditConfig",
    "AuditPipeline",
    "audit_events",
    "audit_jsonl",
    "render_audit",
    "profile_events",
    "profile_jsonl",
    "render_profile",
    "LiveDashboard",
    "JsonlFollower",
    "watch",
]
