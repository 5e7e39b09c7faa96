"""Application substrate: demands, MVA, workloads, the RUBBoS plant."""

import gc
import math
import signal
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    AppSpec,
    ConstantWorkload,
    MultiTierApp,
    RampWorkload,
    StepWorkload,
    TierSpec,
)
from repro.apps.rubbos import _p90_p50
from tests.oracles.queueing import mva_closed_network


@contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in the block once *seconds* have passed, so
    a run that would never return fails instead of hanging the suite."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDemandDistributions:
    def test_visit_demands_are_exponential_with_the_tier_mean(self):
        # Each visit draws an exponential demand (coefficient of
        # variation 1) with its tier's mean; traces record every draw.
        app = MultiTierApp(AppSpec.rubbos(), [3.0, 3.0], concurrency=40, rng=5)
        app.enable_request_tracing(1)
        app.run_period(300.0)
        traces = app.drain_traces()
        for j, tier in enumerate(app.spec.tiers):
            work = np.asarray([t.tiers[j].work_ghz_s for t in traces])
            assert work.size > 5000 and np.all(work > 0)
            assert work.mean() == pytest.approx(tier.demand_ghz_s, rel=0.05)
            assert work.std() / work.mean() == pytest.approx(1.0, rel=0.05)

    def test_invalid_params_rejected(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="demand_ghz_s"):
                TierSpec("t", bad)


class TestMVA:
    def test_single_station_no_think(self):
        # One station, 1 client, no think time: R = s.
        res = mva_closed_network([0.1], 1, 0.0)
        assert res.response_time_s == pytest.approx(0.1)
        assert res.throughput_rps == pytest.approx(10.0)

    def test_zero_clients(self):
        res = mva_closed_network([0.1, 0.2], 0, 1.0)
        assert res.response_time_s == 0.0
        assert res.throughput_rps == 0.0

    def test_utilization_below_one(self):
        res = mva_closed_network([0.02, 0.015], 100, 1.0)
        assert np.all(res.station_utilization <= 1.0)

    def test_throughput_bounded_by_bottleneck(self):
        s = [0.02, 0.015]
        res = mva_closed_network(s, 500, 1.0)
        assert res.throughput_rps <= 1.0 / max(s) + 1e-9

    def test_response_time_monotone_in_population(self):
        rts = [
            mva_closed_network([0.02, 0.015], n, 1.0).response_time_s
            for n in [1, 10, 40, 80, 160]
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rts, rts[1:]))

    def test_little_law_consistency(self):
        res = mva_closed_network([0.05, 0.03], 20, 0.5)
        # N = X * (R + Z)
        assert res.throughput_rps * (res.response_time_s + 0.5) == pytest.approx(20.0)

    def test_queue_lengths_sum_little(self):
        res = mva_closed_network([0.05, 0.03], 20, 0.5)
        assert res.station_queue_len.sum() == pytest.approx(
            res.throughput_rps * res.response_time_s
        )

    def test_visits_scale_demand(self):
        base = mva_closed_network([0.02], 10, 1.0)
        doubled = mva_closed_network([0.01], 10, 1.0, visits=[2.0])
        assert doubled.response_time_s == pytest.approx(base.response_time_s)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            mva_closed_network([], 10, 1.0)
        with pytest.raises(ValueError):
            mva_closed_network([-0.1], 10, 1.0)
        with pytest.raises(ValueError):
            mva_closed_network([0.1], -1, 1.0)
        with pytest.raises(ValueError):
            mva_closed_network([0.1], 10, 1.0, visits=[1.0, 2.0])

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.lists(st.floats(0.001, 0.2), min_size=1, max_size=4),
        n=st.integers(1, 60),
        z=st.floats(0.0, 5.0),
    )
    def test_mva_invariants(self, s, n, z):
        res = mva_closed_network(s, n, z)
        assert res.response_time_s >= sum(s) - 1e-9  # at least the raw demand
        assert res.throughput_rps >= 0
        assert np.all(res.station_utilization <= 1.0 + 1e-9)
        # Little's law over the full loop.
        assert res.throughput_rps * (res.response_time_s + z) == pytest.approx(n, rel=1e-6)


class TestWorkloads:
    def test_constant(self):
        w = ConstantWorkload(40)
        assert w.level(0) == 40
        assert w.level(1e6) == 40
        assert w.max_level == 40

    def test_step_window(self):
        w = StepWorkload(40, 80, 600.0, 1200.0)
        assert w.level(599.9) == 40
        assert w.level(600.0) == 80
        assert w.level(1199.9) == 80
        assert w.level(1200.0) == 40
        assert w.max_level == 80

    def test_step_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            StepWorkload(40, 80, 1200.0, 600.0)

    def test_ramp_endpoints(self):
        w = RampWorkload(10, 50, 0.0, 100.0)
        assert w.level(0.0) == 10
        assert w.level(100.0) == 50
        assert w.level(50.0) == 30

    def test_ramp_clamps_outside(self):
        w = RampWorkload(10, 50, 100.0, 200.0)
        assert w.level(0.0) == 10
        assert w.level(500.0) == 50

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            ConstantWorkload(-1)


class TestMultiTierApp:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AppSpec(name="x", tiers=())
        with pytest.raises(ValueError):
            TierSpec("t", 0.02, min_alloc_ghz=2.0, max_alloc_ghz=1.0)

    def test_rubbos_spec_shape(self):
        spec = AppSpec.rubbos()
        assert spec.n_tiers == 2
        assert spec.tiers[0].name == "web"
        assert spec.tiers[1].name == "db"

    def test_allocations_clipped_to_tier_bounds(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], rng=0)
        app.set_allocations([100.0, 0.0001])
        alloc = app.allocations_ghz
        assert alloc[0] == pytest.approx(4.0)  # default max
        assert alloc[1] == pytest.approx(0.1)  # default min

    @pytest.mark.parametrize(
        "alloc, match",
        [
            ([1.0], "expected 2 allocations"),
            # Used to be accepted and fail at the next run_period, far
            # from the call that caused it.
            ([math.nan, 1.0], "tier 0"),
            ([1.0, math.inf], "tier 1"),
        ],
        ids=["length", "nan", "inf"],
    )
    def test_wrong_allocation_length_rejected(self, alloc, match):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], rng=0)
        with pytest.raises(ValueError, match=match):
            app.set_allocations(alloc)
        assert list(app.allocations_ghz) == [1.0, 1.0]

    def test_run_period_produces_stats(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=20, rng=1)
        app.warmup(30)
        stats = app.run_period(60.0)
        assert stats.completed > 0
        assert stats.rt_p90_ms > stats.rt_mean_ms > 0
        assert all(0 <= u <= 1 for u in stats.utilizations)

    def test_zero_concurrency_no_requests(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=0, rng=1)
        stats = app.run_period(30.0)
        assert stats.completed == 0
        assert math.isnan(stats.rt_p90_ms)

    def test_concurrency_increase_raises_throughput(self):
        app = MultiTierApp(AppSpec.rubbos(), [2.0, 2.0], concurrency=5, rng=2)
        app.warmup(50)
        low = app.run_period(100.0)
        app.set_concurrency(20)
        app.warmup(50)
        high = app.run_period(100.0)
        assert high.throughput_rps > low.throughput_rps

    def test_concurrency_decrease_parks_clients(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=20, rng=3)
        app.warmup(30)
        app.set_concurrency(2)
        app.warmup(60)  # drain
        stats = app.run_period(100.0)
        # Throughput bounded by 2 clients cycling.
        assert stats.throughput_rps <= 2.1

    def test_closed_app_refuses_to_run(self):
        # Used to return all-NaN PeriodStats with completed=0: close()
        # drops every client, so "running" simulated an empty app.
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=10, rng=3)
        assert app.run_period(10.0).completed > 0
        assert not app.closed
        app.close()
        app.close()  # idempotent
        assert app.closed
        for call in (
            lambda: app.run_period(10.0),
            lambda: app.warmup(10.0),
            lambda: app.set_concurrency(5),
            lambda: app.set_allocations([2.0, 2.0]),
            lambda: app.degrade_tier(0, 0.5),
            lambda: app.restart_tier(0, 1.0, 1.0),
        ):
            with pytest.raises(RuntimeError, match="app is closed"):
                call()
        assert app.queue_lengths() == [0, 0]

    def test_close_leaves_no_reference_cycle(self):
        # Requests in service, pending think-overs and request traces:
        # reference counting alone frees a closed app.
        spec = AppSpec.rubbos("cycle", think_time_s=0.1)
        gc.collect()
        gc.disable()
        try:
            app = MultiTierApp(spec, [0.3, 0.3], concurrency=15, rng=8)
            app.enable_request_tracing(3)
            app.warmup(5.0)
            assert sum(app.queue_lengths()) > 0
            app_alive = weakref.ref(app)
            app.close()
            del app
            assert app_alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "run",
        [
            lambda app: app.warmup(math.nan),
            lambda app: app.warmup(math.inf),
            lambda app: app.run_period(math.inf),
        ],
        ids=["warmup-nan", "warmup-inf", "run_period-inf"],
    )
    def test_a_non_finite_run_length_is_refused(self, run):
        app = MultiTierApp(AppSpec.rubbos(), concurrency=5, rng=1)
        with _deadline(10.0), pytest.raises(ValueError, match="non-finite"):
            run(app)
        assert app.run_period(5.0).completed > 0

    def test_restart_tier_serves_nothing_until_the_downtime_ends(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=20, rng=2)
        app.warmup(10.0)
        app.restart_tier(1, 4.0, 0.5)
        assert app.tier_degrade_fraction(1) == 0.0
        app.run_period(2.0)
        assert app.tier_degrade_fraction(1) == 0.0
        assert app.used_ghz(2.0)[1] == 0.0
        app.run_period(4.0)  # the restore fires 2 s into this period
        assert app.tier_degrade_fraction(1) == 0.5
        for bad in ((1, -1.0, 0.5), (1, math.nan, 0.5), (1, 1.0, 1.5)):
            with pytest.raises(ValueError):
                app.restart_tier(*bad)
        assert app.tier_degrade_fraction(1) == 0.5

    def test_more_allocation_reduces_response_time(self):
        app = MultiTierApp(AppSpec.rubbos(), [0.5, 0.5], concurrency=40, rng=4)
        app.warmup(60)
        slow = app.run_period(120.0)
        app.set_allocations([2.0, 2.0])
        app.warmup(60)
        fast = app.run_period(120.0)
        assert fast.rt_p90_ms < slow.rt_p90_ms

    def test_des_matches_mva_mean(self):
        """The request-level simulator agrees with exact MVA within noise."""
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=5)
        app.warmup(120)
        stats = app.run_period(400.0)
        mva = mva_closed_network([0.020, 0.015], 40, 1.0)
        assert stats.rt_mean_ms == pytest.approx(mva.response_time_s * 1000, rel=0.15)
        assert stats.throughput_rps == pytest.approx(mva.throughput_rps, rel=0.1)

    def test_used_ghz_bounded_by_allocation(self):
        app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=40, rng=6)
        app.warmup(30)
        app.run_period(60.0)
        used = app.used_ghz(60.0)
        assert np.all(used <= app.allocations_ghz + 1e-9)

    def test_deterministic_with_seed(self):
        def run(seed):
            app = MultiTierApp(AppSpec.rubbos(), [1.0, 1.0], concurrency=10, rng=seed)
            app.warmup(20)
            return app.run_period(50.0).rt_mean_ms
        assert run(42) == run(42)
        assert run(42) != run(43)

    def test_queue_lengths_accessible(self):
        app = MultiTierApp(AppSpec.rubbos(), [0.3, 0.3], concurrency=30, rng=7)
        app.warmup(30)
        qs = app.queue_lengths()
        assert len(qs) == 2
        assert all(q >= 0 for q in qs)

    @settings(max_examples=200, deadline=None)
    @given(rts=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 250.0, 5e-324, 1e-300, 1e300]),  # ties
            st.floats(0.0, 1e308),
            st.floats(0.0, 1e-300),
        ),
        min_size=1, max_size=400,
    ))
    def test_period_quantiles_are_two_percentile_calls(self, rts):
        # run_period takes p90 and p50 from one np.percentile call.
        rts = np.asarray(rts, dtype=float)
        want = [float(np.percentile(rts, 90.0)), float(np.percentile(rts, 50.0))]
        assert np.array(_p90_p50(rts)).tobytes() == np.array(want).tobytes()
