"""The offline observability tools: audit, profile, watch, Prometheus.

These run against synthetic record streams (fast, fully controlled),
the event logs of three small real runs, and a couple of CLI-level
smokes pinning exit-code semantics.
"""

import dataclasses
import json
import math

import pytest

from repro.engine.scenario import builtin_registry
from repro.obs import (
    AuditConfig,
    JsonlBackend,
    JsonlFollower,
    RunLog,
    Telemetry,
    audit_run,
    profile_run,
    prom_escape_label,
    prom_line,
    render_audit,
    render_profile,
    render_watch,
    use_telemetry,
    watch,
    watch_prometheus,
    watch_view,
)
from repro.util.fold import left_sum


def _log(records, window=None):
    log = RunLog(window=window)
    for record in records:
        log.feed(record)
    return log


def _control_period(time_s, rts, setpoint=1000.0):
    return {
        "kind": "control_period",
        "time_s": time_s,
        "apps": {
            str(i): {"rt_ms": rt, "setpoint_ms": setpoint}
            for i, rt in enumerate(rts)
        },
    }


def _power(time_s, watts, active=2):
    return {
        "kind": "testbed.period", "time_s": time_s, "power_w": watts,
        "active_servers": active,
    }


class TestAuditConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="baseline_rule"):
            AuditConfig(baseline_rule="median")
        with pytest.raises(ValueError, match="violation_budget"):
            AuditConfig(violation_budget=1.5)
        with pytest.raises(ValueError, match="rolling_window"):
            AuditConfig(rolling_window=0)


class TestAuditPipeline:
    def _records(self):
        # app 0: clean run; app 1: one 2-period episode, then recovers.
        return [
            {"kind": "run_config", "harness": "testbed", "control_period_s": 30.0},
            _control_period(30.0, [900.0, 950.0]),
            _power(30.0, 500.0),
            _control_period(60.0, [950.0, 1200.0]),
            _power(60.0, 400.0),
            _control_period(90.0, [980.0, 1100.0]),
            _power(90.0, 300.0),
            _control_period(120.0, [920.0, 990.0]),
            _power(120.0, 300.0),
        ]

    def test_episode_detection(self):
        report = audit_run(_log(self._records()))
        app1 = report["apps"]["1"]
        assert app1["violations"] == 2
        assert app1["n_episodes"] == 1
        (episode,) = app1["episodes"]
        assert episode["start_s"] == 60.0
        assert episode["end_s"] == 90.0
        assert episode["periods"] == 2
        assert episode["worst_rt_ms"] == 1200.0
        assert episode["worst_excess_ms"] == pytest.approx(200.0)
        assert episode["open_at_end"] is False
        assert report["apps"]["0"]["n_episodes"] == 0

    def test_episode_open_at_end(self):
        records = self._records()[:4]  # run dies inside app 1's episode
        report = audit_run(_log(records))
        (episode,) = report["apps"]["1"]["episodes"]
        assert episode["open_at_end"] is True

    def test_nan_rt_neither_opens_nor_closes(self):
        records = [
            {"kind": "run_config", "harness": "testbed", "control_period_s": 30.0},
            _control_period(30.0, [1500.0]),
            _control_period(60.0, [float("nan")]),
            _control_period(90.0, [1400.0]),
            _control_period(120.0, [800.0]),
        ]
        report = audit_run(_log(records))
        app = report["apps"]["0"]
        # The unmeasured period bridges the episode: one episode, not two.
        assert app["n_episodes"] == 1
        assert app["measured"] == 3
        assert app["periods"] == 4

    def test_budget_pass_fail(self):
        records = self._records()
        lenient = audit_run(_log(records), AuditConfig(violation_budget=0.5))
        assert lenient["slo"]["passed"] is True
        strict = audit_run(_log(records), AuditConfig(violation_budget=0.1))
        assert strict["slo"]["passed"] is False
        assert strict["slo"]["n_failing"] == 1

    def test_power_savings_vs_peak_baseline(self):
        report = audit_run(_log(self._records()))
        power = report["power"]
        assert power["samples"] == 4
        assert power["baseline_rule"] == "peak"
        assert power["baseline_w"] == 500.0
        hours = 30.0 / 3600.0
        assert power["energy_wh"] == pytest.approx(1500.0 * hours)
        assert power["baseline_energy_wh"] == pytest.approx(2000.0 * hours)
        assert power["savings_fraction"] == pytest.approx(0.25)

    def test_baseline_rules(self):
        first = audit_run(_log(self._records()), AuditConfig(baseline_rule="first"))
        assert first["power"]["baseline_w"] == 500.0
        fixed = audit_run(_log(self._records()), AuditConfig(baseline_power_w=600.0))
        assert fixed["power"]["baseline_rule"] == "fixed"
        assert fixed["power"]["baseline_w"] == 600.0

    def test_rolling_power_is_decimated(self):
        records = [{"kind": "run_config", "harness": "ls", "step_s": 60.0}]
        records += [_power(float(i), 300.0 + i) for i in range(1000)]
        report = audit_run(
            _log(records), AuditConfig(rolling_window=10, max_rolling_points=50)
        )
        rolling = report["rolling_power"]
        assert len(rolling) <= 51
        assert rolling[-1]["time_s"] == 999.0  # last point always kept
        assert "savings_fraction" in rolling[-1]

    def test_counts_faults(self):
        records = self._records() + [
            {"kind": "fault_injected", "time_s": 50.0},
            {"kind": "fault_recovered", "time_s": 80.0},
        ]
        report = audit_run(_log(records))
        assert report["faults"] == {"injected": 1, "recovered": 1}

    def test_jsonl_is_lenient(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [json.dumps(r) for r in self._records()]
        lines.insert(2, "garbage")
        path.write_text("\n".join(lines) + '\n{"kind": "trunc')
        report = audit_run(RunLog.read(path))
        assert report["n_malformed"] == 2
        assert report["power"]["samples"] == 4

    def test_render_contains_verdict_and_tables(self):
        report = audit_run(_log(self._records()), AuditConfig(violation_budget=0.1))
        text = render_audit(report)
        assert "SLO FAIL" in text
        assert "Per-app SLO compliance" in text
        assert "Violation episodes" in text
        assert "Power audit" in text
        passing = audit_run(_log(self._records()), AuditConfig(violation_budget=0.9))
        assert "SLO PASS" in render_audit(passing)

    def test_empty_stream_reports_gracefully(self):
        report = audit_run(_log([]))
        assert report["slo"]["passed"] is True  # nothing measured, nothing failed
        assert math.isnan(report["power"]["mean_w"])
        assert "Power audit" in render_audit(report)


class TestProfile:
    def _span(self, phase, dur, cpu=0.0, alloc=0):
        return {
            "kind": "span", "name": f"phase.{phase}", "duration_s": dur,
            "depth": 0, "cpu_s": cpu, "alloc_blocks": alloc,
        }

    def test_aggregates_phase_spans(self):
        records = [
            self._span("sense", 0.01, cpu=0.008, alloc=100),
            self._span("sense", 0.03, cpu=0.02, alloc=50),
            self._span("control", 0.06, cpu=0.05, alloc=10),
            {"kind": "span", "name": "mpc.solve", "duration_s": 9.0},  # not a phase
        ]
        profile = profile_run(_log(records))
        assert set(profile["phases"]) == {"sense", "control"}
        sense = profile["phases"]["sense"]
        assert sense["count"] == 2
        assert sense["wall_s"] == pytest.approx(0.04)
        assert sense["max_ms"] == pytest.approx(30.0)
        assert sense["cpu_s"] == pytest.approx(0.028)
        assert sense["alloc_blocks"] == 150
        assert profile["total_wall_s"] == pytest.approx(0.10)
        # sorted by wall time, heaviest first
        assert list(profile["phases"]) == ["control", "sense"]
        assert set(sense) == {"count", "wall_s", "max_ms", "cpu_s",
                              "alloc_blocks", "mean_ms", "wall_fraction"}

    def test_empty_profile_renders_hint(self):
        text = render_profile(profile_run(_log([])))
        assert "was telemetry enabled" in text

    def test_fleet_grouping_section(self):
        def fleet_span(sizes):
            return {"kind": "span", "name": "manager.fleet_control",
                    "duration_s": 0.01, "depth": 1,
                    "batch_groups": len(sizes), "batch_group_sizes": sizes}

        records = [
            self._span("control", 0.02),
            fleet_span([3, 3]),
            fleet_span([4, 1, 1]),
            {"kind": "metrics", "metrics": {
                "counters": {"controller.batch_groups": 5.0},
            }},
        ]
        profile = profile_run(_log(records))
        assert profile["fleet"] == {
            "spans": 2,
            "group_size": {"count": 5, "sum": 12, "mean": 2.4, "max": 4},
        }
        text = render_profile(profile)
        assert "Fleet control grouping" in text
        assert "mean size" in text

    def test_no_fleet_section_without_batch_metrics(self):
        profile = profile_run(_log([self._span("control", 0.02)]))
        assert profile["fleet"] is None
        assert "Fleet control grouping" not in render_profile(profile)

    def test_jsonl_is_lenient(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(self._span("actuate", 0.02)) + "\nnot json\n"
        )
        profile = profile_run(RunLog.read(path))
        assert profile["n_malformed"] == 1
        assert "actuate" in profile["phases"]


class TestProfileOnRealLogs:
    """Every span is recorded, so a real run's profile is exact."""

    @pytest.mark.parametrize("name, params", [
        ("testbed-small", {"control_mode": "fleet"}),
        ("largescale-small", {}),
        ("sharded-small", {}),
    ])
    def test_phase_rows_and_fleet_table_are_exact(self, tmp_path, name, params):
        spec = builtin_registry().get(name)
        spec = dataclasses.replace(spec, params={**spec.params, **params})
        path = tmp_path / "run.jsonl"
        with use_telemetry(Telemetry(JsonlBackend(path))):
            engine, backend = spec.build()
            try:
                backend.start()
                engine.run()
                backend.result()
            finally:
                closer = getattr(backend, "close", None)
                if closer is not None:
                    closer()
        log = RunLog.read(path)
        profile = profile_run(log)

        records = [json.loads(line) for line in path.read_text().splitlines()]
        durations = {}
        for r in records:
            if (r["kind"] == "span" and r["name"].startswith("phase.")
                    and "pod" not in r):
                durations.setdefault(r["name"][len("phase."):], []).append(
                    r["duration_s"]
                )
        assert set(profile["phases"]) == set(durations)
        for phase, entry in profile["phases"].items():
            assert entry["count"] == engine.n_periods
            assert entry["wall_s"] == left_sum(durations[phase])
            assert entry["max_ms"] == max(durations[phase]) * 1000.0

        counters = log.metrics["counters"]
        if params.get("control_mode") == "fleet":
            fleet = profile["fleet"]
            assert fleet["group_size"]["count"] == counters["controller.batch_groups"]
            assert fleet["spans"] == engine.n_periods
        else:
            assert profile["fleet"] is None


class TestPrometheusRendering:
    def test_label_escaping_golden(self):
        assert prom_escape_label('he said "hi"\n\\x') == (
            'he said \\"hi\\"\\n\\\\x'
        )
        line = prom_line("rt_ms", {"app": 'a"b\nc'}, 1.5)
        assert line == 'rt_ms{app="a\\"b\\nc"} 1.5'

    def test_prom_line_sanitizes_metric_names(self):
        assert prom_line("des.events", None, 3.0) == "des_events 3"
        assert prom_line("9lives", {}, 1.0) == "_9lives 1"


class TestJsonlFollower:
    def test_partial_final_line_stays_buffered(self, tmp_path):
        path = tmp_path / "run.jsonl"
        follower = JsonlFollower(path)
        assert follower.poll() == []  # file may not exist yet
        path.write_text('{"kind": "a"}\n{"kind": "b')
        records = follower.poll()
        assert [r["kind"] for r in records] == ["a"]
        # Writer finishes the line: the buffered prefix joins the tail.
        with open(path, "a") as fh:
            fh.write('2"}\n')
        records = follower.poll()
        assert [r["kind"] for r in records] == ["b2"]
        assert follower.n_malformed == 0

    def test_malformed_counted_not_raised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n[1, 2]\n')
        follower = JsonlFollower(path)
        records = follower.poll()
        assert [r["kind"] for r in records] == ["ok"]
        assert follower.n_malformed == 2


class TestLiveDashboard:
    def _run(self, window=240):
        return _log([
            {"kind": "run_config", "harness": "testbed"},
            _power(30.0, 450.0, active=2),
            _control_period(30.0, [900.0, 1200.0]),
            {"kind": "request_trace", "trace_id": "app0/0"},
            {"kind": "fault_injected", "time_s": 40.0},
        ], window=window)

    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            RunLog(window=1)

    def test_feed_and_render(self):
        log = self._run(window=8)
        view = watch_view(log)
        assert view["power_w"][-1] == 450.0
        assert view["rt_ratio"][-1] == pytest.approx(1.2)
        assert view["active_faults"] == 1
        text = render_watch(view)
        assert "run[testbed]" in text
        assert "SLO VIOLATING" in text
        assert "datacenter power (W)" in text
        assert "<-- over" in text
        log.feed({"kind": "fault_recovered", "time_s": 50.0})
        assert watch_view(log)["active_faults"] == 0

    def test_rolling_window_bounds_memory(self):
        log = _log([_power(float(i), 300.0 + i) for i in range(50)], window=4)
        assert len(log.power_w) == 4
        assert watch_view(log)["power_w"] == [346.0, 347.0, 348.0, 349.0]

    def test_metrics_record_ends_run(self):
        log = RunLog()
        assert watch_view(log)["ended"] is False
        log.feed({"kind": "metrics", "metrics": {}})
        assert watch_view(log)["ended"] is True
        assert "ended" in render_watch(watch_view(log))

    def test_prometheus_snapshot(self):
        text = watch_prometheus(watch_view(self._run()))
        assert "repro_watch_power_watts 450" in text
        assert 'repro_watch_rt_ms{app="1"} 1200' in text
        assert "repro_watch_active_faults 1" in text
        assert text.endswith("\n")


class TestWatchDriver:
    def test_follows_growing_file_and_stops_at_run_end(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(_power(30.0, 400.0)) + "\n")
        outputs = []

        def fake_sleep(_):
            # The "run" finishes while the watcher sleeps.
            with open(path, "a") as fh:
                fh.write(json.dumps({"kind": "metrics", "metrics": {}}) + "\n")

        log = watch(
            path, interval_s=0.0, out=outputs.append, sleep=fake_sleep
        )
        assert log.ended is True
        assert len(outputs) == 2
        assert watch_view(log)["power_w"][-1] == 400.0

    def test_once_writes_prom_snapshot(self, tmp_path):
        path = tmp_path / "run.jsonl"
        prom = tmp_path / "metrics.prom"
        path.write_text(json.dumps(_power(30.0, 420.0)) + "\n")
        log = watch(path, once=True, prom_path=prom, out=lambda s: None)
        assert log.n_records == 1
        assert "repro_watch_power_watts 420" in prom.read_text()


class TestObsCli:
    def _write_run(self, tmp_path, rts=(900.0, 950.0)):
        path = tmp_path / "run.jsonl"
        records = [
            {"kind": "run_config", "harness": "testbed", "control_period_s": 30.0},
            _control_period(30.0, list(rts)),
            _power(30.0, 450.0),
            {"kind": "metrics", "metrics": {"counters": {}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_audit_exit_codes_follow_slo(self, tmp_path, capsys):
        from repro.cli import main

        ok = self._write_run(tmp_path)
        assert main(["obs", "audit", str(ok)]) == 0
        bad = self._write_run(tmp_path, rts=(1500.0, 900.0))
        assert main(["obs", "audit", str(bad)]) == 1
        assert "SLO FAIL" in capsys.readouterr().out

    def test_audit_writes_report_file(self, tmp_path, capsys):
        from repro.cli import main

        run = self._write_run(tmp_path)
        out = tmp_path / "audit.json"
        main(["obs", "audit", str(run), "--output", str(out), "--json"])
        report = json.loads(out.read_text())
        assert report["power"]["samples"] == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["slo"]["passed"] is True

    def test_profile_and_summarize_run(self, tmp_path, capsys):
        from repro.cli import main

        run = self._write_run(tmp_path)
        assert main(["obs", "summarize", str(run)]) == 0
        assert main(["obs", "profile", str(run)]) == 0
        out = capsys.readouterr().out
        assert "was telemetry enabled" in out  # no phase spans in this file

    def test_watch_once_empty_file_fails(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "missing.jsonl"
        assert main(["obs", "watch", str(empty), "--once"]) == 1
        run = self._write_run(tmp_path)
        assert main(["obs", "watch", str(run), "--once"]) == 0
