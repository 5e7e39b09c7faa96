"""Telemetry subsystem: registry math, spans, backends, summarize."""

import io
import json
import math

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Histogram,
    InMemoryBackend,
    JsonlBackend,
    MetricsRegistry,
    NullBackend,
    RunLog,
    Telemetry,
    get_telemetry,
    render_summary,
    set_telemetry,
    summarize_run,
    use_telemetry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1.0)

    def test_reset(self):
        c = Counter("x")
        c.inc(5)
        c.reset()
        assert c.value == 0.0


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5
        assert h.min == 1.0
        assert h.max == 4.0

    def test_quantiles_match_numpy(self):
        h = Histogram("h")
        values = list(range(101))
        for v in values:
            h.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(np.percentile(values, 100 * q))

    def test_empty_quantile_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_nan_observations_ignored(self):
        h = Histogram("h")
        h.observe(float("nan"))
        assert h.count == 0

    def test_decimation_bounds_memory_but_keeps_exact_count(self):
        h = Histogram("h", max_samples=64)
        n = 10_000
        for v in range(n):
            h.observe(v)
        assert len(h._samples) < 64
        assert h.count == n
        assert h.sum == sum(range(n))
        assert h.min == 0 and h.max == n - 1
        # retained samples span the full range, so the median stays close
        assert h.quantile(0.5) == pytest.approx(n / 2, rel=0.1)

    def test_summary_keys(self):
        h = Histogram("h")
        h.observe(1.0)
        assert set(h.summary()) == {
            "count", "sum", "mean", "min", "max", "p50", "p90", "p99",
        }


class TestMetricsRegistry:
    def test_create_on_demand_and_reuse(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")

    def test_name_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")
        reg.histogram("y")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("y")

    def test_convenience_helpers(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1.0


class TestSpans:
    def test_nesting_depth_and_parent(self):
        backend = InMemoryBackend()
        tel = Telemetry(backend)
        with tel.span("outer"):
            with tel.span("inner", app=3):
                pass
        spans = backend.of_kind("span")
        inner, outer = spans[0], spans[1]  # inner closes first
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert inner["app"] == 3
        assert outer["name"] == "outer"
        assert outer["depth"] == 0
        assert "parent" not in outer

    def test_duration_feeds_span_histogram(self):
        tel = Telemetry(InMemoryBackend())
        with tel.span("work"):
            pass
        h = tel.registry.histogram("span.work")
        assert h.count == 1
        assert h.sum >= 0.0

    def test_annotate_lands_in_record(self):
        backend = InMemoryBackend()
        tel = Telemetry(backend)
        with tel.span("s") as sp:
            sp.annotate(nodes=42)
        assert backend.of_kind("span")[0]["nodes"] == 42

    def test_exception_marks_error_and_propagates(self):
        backend = InMemoryBackend()
        tel = Telemetry(backend)
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert backend.of_kind("span")[0]["error"] is True


class TestNullBackend:
    def test_disabled_telemetry_is_inert(self):
        tel = Telemetry(NullBackend())
        assert tel.enabled is False
        span = tel.span("anything")
        with span:
            pass
        # disabled spans are the shared no-op singleton: no allocation
        assert tel.span("other") is span
        tel.count("c")
        tel.observe("h", 1.0)
        tel.event("e", x=1)
        assert tel.registry.names() == []

    def test_default_process_telemetry_is_disabled(self):
        assert get_telemetry().enabled is False


class TestTelemetryScope:
    def test_use_telemetry_installs_and_restores(self):
        before = get_telemetry()
        tel = Telemetry(InMemoryBackend())
        with use_telemetry(tel, close=False):
            assert get_telemetry() is tel
        assert get_telemetry() is before

    def test_set_telemetry_none_restores_null(self):
        prev = set_telemetry(Telemetry(InMemoryBackend()))
        try:
            assert get_telemetry().enabled
        finally:
            set_telemetry(None)
        assert get_telemetry().enabled is False
        assert prev.enabled is False

    def test_close_emits_metrics_snapshot_once(self):
        backend = InMemoryBackend()
        tel = Telemetry(backend)
        tel.count("c", 5)
        tel.close()
        tel.close()  # idempotent
        finals = backend.of_kind("metrics")
        assert len(finals) == 1
        assert finals[0]["metrics"]["counters"]["c"] == 5.0


class TestJsonlBackend:
    def test_round_trip_including_numpy(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with use_telemetry(Telemetry(JsonlBackend(path))) as tel:
            tel.event("control_period", rts=np.array([1.0, 2.0]), n=np.int64(3))
            with tel.span("mpc.solve"):
                pass
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = [r["kind"] for r in records]
        assert kinds == ["control_period", "span", "metrics"]
        assert records[0]["rts"] == [1.0, 2.0]
        assert records[0]["n"] == 3

    def test_stream_target_left_open(self):
        buf = io.StringIO()
        backend = JsonlBackend(buf)
        backend.emit({"kind": "e"})
        backend.close()
        assert not buf.closed
        assert json.loads(buf.getvalue()) == {"kind": "e"}


class TestSummarize:
    def _records(self):
        return [
            {"kind": "run_config", "harness": "testbed", "n_apps": 2},
            {
                "kind": "control_period",
                "time_s": 30.0,
                "apps": {
                    "0": {"rt_ms": 900.0, "setpoint_ms": 1000.0},
                    "1": {"rt_ms": 1200.0, "setpoint_ms": 1000.0},
                },
            },
            {"kind": "span", "name": "mpc.solve", "duration_s": 0.01, "depth": 1},
            {"kind": "span", "name": "mpc.solve", "duration_s": 0.03, "depth": 1},
            {
                "kind": "optimizer_invocation",
                "time_s": 30.0, "moves": 2, "wake": 0, "sleep": 1, "unplaced": 0,
                "info": {"drain_rounds_accepted": 1},
            },
            {"kind": "migration", "vm": 1, "source": 0, "target": 1},
            {"kind": "server_power", "server": 3, "state": "off"},
            {"kind": "testbed.period", "time_s": 30.0, "power_w": 400.0,
             "active_servers": 3},
        ]

    def test_summarize_events(self):
        log = RunLog()
        for record in self._records():
            log.feed(record)
        s = summarize_run(log)
        app0 = s["apps"]["0"]
        assert app0["rt_mean_ms"] == pytest.approx(900.0)
        assert app0["mean_abs_error_ms"] == pytest.approx(100.0)
        span = s["spans"]["mpc.solve"]
        assert span["count"] == 2
        assert span["total_s"] == pytest.approx(0.04)
        opt = s["optimizer"]
        assert opt["invocations"] == 1
        assert opt["migrations"] == 2
        assert opt["info_totals"]["drain_rounds_accepted"] == 1
        assert s["server_transitions"]["off"] == 1
        assert s["migration_events"] == 1
        assert s["power"]["samples"] == 1
        assert s["power"]["mean_w"] == pytest.approx(400.0)

    def test_jsonl_file_round_trip_and_render(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with path.open("w") as fh:
            for r in self._records():
                fh.write(json.dumps(r) + "\n")
        summary = summarize_run(RunLog.read(path))
        text = render_summary(summary, title="t")
        assert "mpc.solve" in text
        assert "app" in text

    def test_summarize_skips_and_counts_malformed_lines(self, tmp_path):
        # A run killed mid-write truncates the last record; mid-file
        # corruption (here: a cut-off record and a bare scalar) must be
        # skipped and counted, not abort the analysis.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "testbed.period", "time_s": 15.0, "power_w": 400.0}\n'
            'not json\n'
            '42\n'
            '{"kind": "testbed.period", "time_s": 30.0, "power_w": 500.0}\n'
            '{"kind": "testbed.per'
        )
        summary = summarize_run(RunLog.read(path))
        assert summary["n_malformed"] == 3
        assert summary["n_records"] == 2
        assert summary["power"]["samples"] == 2
        assert summary["power"]["mean_w"] == pytest.approx(450.0)

    def test_lenient_reader_counts_nothing_on_clean_file(self, tmp_path):
        from repro.obs import read_jsonl_lenient

        path = tmp_path / "ok.jsonl"
        path.write_text('{"kind": "metrics"}\n\n{"kind": "span"}\n')
        records, n_malformed = read_jsonl_lenient(path)
        assert n_malformed == 0
        assert [r["kind"] for r in records] == ["metrics", "span"]


class TestInstrumentationIntegration:
    """The instrumented hot paths emit real events end to end."""

    def test_testbed_run_emits_periods_and_spans(self):
        from repro.engine.testbed_backend import run_testbed
        from repro.sim.testbed import TestbedConfig

        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend), close=False):
            run_testbed(
                TestbedConfig(n_apps=2, duration_s=60.0, seed=1)
            )
        kinds = {r["kind"] for r in backend.records}
        assert "run_config" in kinds
        assert "control_period" in kinds
        assert "span" in kinds
        span_names = {r["name"] for r in backend.of_kind("span")}
        # The default (fleet) control path batches MPC solves under its
        # own span; scalar mode would emit per-app "mpc.solve" instead.
        assert "manager.fleet_control" in span_names
        assert "manager.control_step" in span_names

    def test_disabled_run_leaves_no_trace(self):
        from repro.engine.testbed_backend import run_testbed
        from repro.sim.testbed import TestbedConfig

        assert get_telemetry().enabled is False
        run_testbed(TestbedConfig(n_apps=2, duration_s=30.0, seed=1))
        assert get_telemetry().registry.names() == []
