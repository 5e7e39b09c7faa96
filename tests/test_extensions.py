"""Extension features: SLA metrics, CLI."""

import numpy as np
import pytest

from repro.sim.metrics import PeriodStats


class TestSLAMetrics:
    def test_period_stats_metric_lookup(self):
        s = PeriodStats(900.0, 400.0, 10, 2.0, (0.5,), rt_p50_ms=350.0, rt_max_ms=2000.0)
        assert s.metric("p90") == 900.0
        assert s.metric("p50") == 350.0
        assert s.metric("mean") == 400.0
        assert s.metric("max") == 2000.0
        with pytest.raises(ValueError):
            s.metric("p99")

    def test_plant_reports_ordered_metrics(self):
        from repro.apps import AppSpec, MultiTierApp

        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=30, rng=3)
        app.warmup(60)
        stats = app.run_period(120.0)
        assert stats.rt_p50_ms <= stats.rt_p90_ms <= stats.rt_max_ms
        assert stats.rt_p50_ms <= stats.rt_mean_ms <= stats.rt_max_ms

    def test_testbed_config_rejects_unknown_metric(self):
        from repro.sim.testbed import TestbedConfig

        with pytest.raises(ValueError):
            TestbedConfig(sla_metric="p99")

    def test_mean_rt_control_tracks(self):
        """Paper §III: 'can be extended to control other SLAs such as
        average ... response times.'"""
        from repro.engine.testbed_backend import run_testbed
        from repro.sim.testbed import TestbedConfig

        config = TestbedConfig(
            n_apps=2, duration_s=450.0, sla_metric="mean", setpoint_ms=500.0
        )
        result = run_testbed(config)
        for i in range(2):
            tail = result.recorder.values(f"rt/app{i}")[12:]
            assert np.nanmean(tail) == pytest.approx(500.0, rel=0.2)


class TestCLI:
    def test_testbed_cli(self, capsys):
        # The testbed report comes from the one run command, sized
        # with --set (there is no dedicated testbed command any more).
        from repro.cli import main

        rc = main(
            ["sim", "--scenario", "testbed-small", "--set", "params.duration_s=120"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Response-time tracking" in out
        assert "Cluster power" in out

    def test_largescale_cli(self, capsys):
        # repro sim prints the report module's large-scale table (DVFS,
        # unplaced VM-steps, power sketch), not a hand-built one.
        from repro.cli import main

        rc = main(["sim", "--scenario", "largescale-small"])
        out = capsys.readouterr().out
        assert rc == 0
        for needle in ("Large-scale run", "energy per VM (Wh)", "DVFS",
                       "unplaced VM-steps", "total power (W)"):
            assert needle in out
        assert "pods on" not in out

    def test_trace_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.traces import UtilizationTrace

        path = str(tmp_path / "t.csv")
        rc = main(["trace", path, "--servers", "12", "--days", "1"])
        assert rc == 0
        assert "Wrote" in capsys.readouterr().out
        back = UtilizationTrace.from_csv(path)
        assert back.n_series == 12
        assert back.n_samples == 96
