"""Hybrid plant: switching policy, reconciliation, and MVA accuracy."""

import math

import numpy as np
import pytest

from repro.apps.rubbos import AppSpec, MultiTierApp, TierSpec
from repro.apps.demand import Exponential
from repro.engine.testbed_backend import run_testbed
from repro.sim.hybrid import HybridConfig, HybridPlant
from repro.sim.testbed import TestbedConfig

#: Documented accuracy bound for pure-MVA segments (docs/PERFORMANCE.md):
#: per-period mean response times within 10% of an exact-DES run of the
#: same scenario, power within 5%.
MVA_RT_TOLERANCE = 0.10


def _plant(concurrency=40, alloc=(1.0, 1.0), config=None, seed=5):
    app = MultiTierApp(
        AppSpec.rubbos(),
        initial_allocations_ghz=list(alloc),
        concurrency=concurrency,
        rng=np.random.default_rng(seed),
    )
    return HybridPlant(app, config)


class TestHybridConfig:
    def test_defaults_valid(self):
        cfg = HybridConfig()
        assert cfg.alloc_tolerance == 0.10
        assert cfg.settle_periods == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alloc_tolerance": -0.1},
            {"settle_periods": 0},
            {"min_reconcile_samples": 0},
            {"max_population_exact_mva": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HybridConfig(**kwargs)

    def test_testbed_coerces_dict(self):
        cfg = TestbedConfig(
            plant_mode="hybrid", hybrid={"alloc_tolerance": 0.2}
        )
        assert isinstance(cfg.hybrid, HybridConfig)
        assert cfg.hybrid.alloc_tolerance == 0.2

    def test_testbed_rejects_unknown_plant_mode(self):
        with pytest.raises(ValueError):
            TestbedConfig(plant_mode="analytic")


class TestSwitchingPolicy:
    def test_startup_then_settle_then_mva(self):
        plant = _plant(config=HybridConfig(settle_periods=2))
        plant.warmup(5.0)
        for _ in range(4):
            plant.run_period(15.0)
        assert plant.mode_log[0] == (0, "exact", "startup")
        assert plant.mode_log[1] == (1, "exact", "settling")
        assert plant.mode_log[2][1] == "mva"
        assert plant.mode_log[3][1] == "mva"
        assert plant.switches == 1

    def test_concurrency_step_forces_exact(self):
        plant = _plant()
        plant.warmup(5.0)
        for _ in range(3):
            plant.run_period(15.0)
        assert plant.mode_log[-1][1] == "mva"
        plant.set_concurrency(60)  # transient: client population step
        plant.run_period(15.0)
        assert plant.mode_log[-1] == (3, "exact", "concurrency_step")
        # ...and the streak restarts: settling again before MVA resumes.
        plant.run_period(15.0)
        assert plant.mode_log[-1][1] == "exact"

    def test_fault_forces_exact_until_restored(self):
        plant = _plant()
        plant.warmup(5.0)
        for _ in range(3):
            plant.run_period(15.0)
        plant.degrade_tier(1, 0.4)
        plant.run_period(15.0)
        assert plant.mode_log[-1] == (3, "exact", "fault")
        # Still degraded: every period stays exact regardless of streak.
        plant.run_period(15.0)
        assert plant.mode_log[-1][1] == "exact"
        plant.degrade_tier(1, 1.0)  # recovery is itself a transient
        plant.run_period(15.0)
        assert plant.mode_log[-1] == (5, "exact", "fault")

    def test_small_alloc_drift_stays_mva(self):
        plant = _plant(config=HybridConfig(alloc_tolerance=0.10))
        plant.warmup(5.0)
        for _ in range(3):
            plant.run_period(15.0)
        plant.set_allocations([1.05, 1.05])  # 5% < tolerance
        plant.run_period(15.0)
        assert plant.mode_log[-1][1] == "mva"

    def test_large_alloc_step_forces_exact(self):
        plant = _plant(config=HybridConfig(alloc_tolerance=0.10))
        plant.warmup(5.0)
        for _ in range(3):
            plant.run_period(15.0)
        plant.set_allocations([1.5, 1.0])  # 50% step on tier 0
        plant.run_period(15.0)
        assert plant.mode_log[-1] == (3, "exact", "alloc_step")

    def test_admission_capped_app_never_fast_forwards(self):
        spec = AppSpec(
            name="capped",
            tiers=(
                TierSpec("web", Exponential(0.02), 0.1, 4.0, max_concurrency=8),
                TierSpec("db", Exponential(0.015), 0.1, 4.0),
            ),
        )
        app = MultiTierApp(spec, concurrency=20, rng=np.random.default_rng(3))
        plant = HybridPlant(app)
        plant.warmup(5.0)
        for _ in range(5):
            plant.run_period(15.0)
        assert plant.mva_periods == 0
        assert all(m == "exact" for _, m, _ in plant.mode_log)
        assert plant.mode_log[-1][2] == "admission_gate"

    def test_zero_concurrency_mva_period_is_empty(self):
        plant = _plant(concurrency=0)
        for _ in range(3):
            plant.run_period(15.0)
        stats = plant.run_period(15.0)
        assert plant.mode_log[-1][1] == "mva"
        assert stats.completed == 0
        assert math.isnan(stats.rt_mean_ms)


    def test_closed_plant_refuses_to_run_in_either_mode(self):
        plant = _plant(config=HybridConfig(settle_periods=1))
        while plant.run_period(10.0) and plant.mode_log[-1][1] != "mva":
            pass
        plant.close()
        # The next period would have fast-forwarded without touching
        # the (closed) DES.
        with pytest.raises(RuntimeError, match="app is closed"):
            plant.run_period(10.0)
        with pytest.raises(RuntimeError, match="app is closed"):
            plant.warmup(10.0)
        with pytest.raises(RuntimeError, match="app is closed"):
            plant.set_concurrency(10)


class TestReconciliation:
    def test_moment_ratios_from_exact_period(self):
        plant = _plant()
        plant.warmup(10.0)
        plant.run_period(30.0)
        exact = plant.run_period(30.0)  # most recent exact period wins
        mva = plant.run_period(30.0)
        assert plant.mode_log[-1][1] == "mva"
        # Synthesized percentiles inherit the exact period's moment
        # ratios, so p90/mean is continuous across the switch.
        assert mva.rt_p90_ms / mva.rt_mean_ms == pytest.approx(
            exact.rt_p90_ms / exact.rt_mean_ms
        )
        assert mva.rt_p50_ms / mva.rt_mean_ms == pytest.approx(
            exact.rt_p50_ms / exact.rt_mean_ms
        )

    def test_completed_count_carries_fraction(self):
        plant = _plant()
        plant.warmup(5.0)
        for _ in range(2):
            plant.run_period(15.0)
        stats = [plant.run_period(15.0) for _ in range(20)]
        assert all(m == "mva" for _, m, _ in plant.mode_log[2:])
        total = sum(s.completed for s in stats)
        fluid = sum(s.throughput_rps * 15.0 for s in stats)
        # floor() per period would drift by up to one request per period;
        # the carry keeps the cumulative count within one of the fluid sum.
        assert abs(total - fluid) <= 1.0

    def test_used_ghz_reflects_mva_throughput(self):
        plant = _plant()
        plant.warmup(5.0)
        for _ in range(2):
            plant.run_period(15.0)
        stats = plant.run_period(15.0)
        used = plant.used_ghz(15.0)
        demands = [t.demand.mean for t in plant.spec.tiers]
        for u, d in zip(used, demands):
            assert u == pytest.approx(stats.throughput_rps * d)


class TestMVAAccuracy:
    def test_mva_segment_mean_rt_within_tolerance(self):
        """Pure-MVA means stay within the documented bound of exact DES.

        A single 60 s exact period's mean wanders ±10% at this load, so
        each synthesized period is judged against the *aggregate*
        (completion-weighted) mean of the exact run's quasi-static
        segment — the stationary quantity MVA actually predicts.
        """

        def run(use_hybrid):
            app = MultiTierApp(
                AppSpec.rubbos(),
                initial_allocations_ghz=[1.0, 0.8],
                concurrency=40,
                rng=np.random.default_rng(11),
            )
            plant = HybridPlant(app) if use_hybrid else app
            plant.warmup(30.0)
            return plant, [plant.run_period(60.0) for _ in range(6)]

        hybrid_plant, hybrid_stats = run(True)
        _, exact_stats = run(False)
        mva_idx = [i for i, (_, m, _) in enumerate(hybrid_plant.mode_log) if m == "mva"]
        assert len(mva_idx) >= 3
        exact_mean = sum(
            s.rt_mean_ms * s.completed for s in exact_stats
        ) / sum(s.completed for s in exact_stats)
        for i in mva_idx:
            rel = abs(hybrid_stats[i].rt_mean_ms - exact_mean) / exact_mean
            assert rel < MVA_RT_TOLERANCE, (
                f"period {i}: MVA mean {hybrid_stats[i].rt_mean_ms:.1f} ms vs "
                f"exact segment mean {exact_mean:.1f} ms ({rel:.1%})"
            )


class TestTestbedIntegration:
    def test_hybrid_summary_in_result(self):
        cfg = TestbedConfig(
            n_servers=2,
            n_apps=2,
            duration_s=120,
            warmup_s=10,
            concurrency=30,
            controlled=False,
            plant_mode="hybrid",
            seed=9,
        )
        from repro.control.arx import ARXModel

        model = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
        result = run_testbed(cfg, model=model)
        assert result.hybrid is not None
        assert set(result.hybrid) == {"app0", "app1"}
        summary = result.hybrid["app0"]
        assert summary["mva_periods"] + summary["exact_periods"] == len(
            summary["mode_log"]
        )
        assert summary["mva_periods"] > 0

    def test_des_mode_has_no_hybrid_summary(self):
        cfg = TestbedConfig(
            n_servers=1,
            n_apps=1,
            duration_s=60,
            warmup_s=5,
            concurrency=10,
            controlled=False,
            plant_mode="des",
            seed=9,
        )
        from repro.control.arx import ARXModel

        model = ARXModel(a=[0.4], b=[[-800.0], [-100.0]], g=1800.0)
        result = run_testbed(cfg, model=model)
        assert result.hybrid is None
