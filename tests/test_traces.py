"""Trace container and synthetic generator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import SECTORS, TraceConfig, UtilizationTrace, generate_trace
from tests.oracles.trace_reference import generate_trace as reference_trace

_NAN, _INF = float("nan"), float("inf")


class TestUtilizationTrace:
    def test_basic_properties(self):
        u = np.random.default_rng(0).uniform(0, 1, size=(5, 96))
        tr = UtilizationTrace(u, interval_s=900.0)
        assert tr.n_series == 5
        assert tr.n_samples == 96
        assert tr.duration_s == pytest.approx(96 * 900.0)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            UtilizationTrace(np.array([[1.2]]))
        with pytest.raises(ValueError):
            UtilizationTrace(np.array([[-0.1]]))
        with pytest.raises(ValueError):
            UtilizationTrace(np.array([[np.nan]]))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            UtilizationTrace(np.zeros((2, 4)), labels=["only-one"])

    def test_subset_deterministic(self):
        u = np.random.default_rng(0).uniform(0, 1, size=(10, 8))
        tr = UtilizationTrace(u, labels=[f"s{i}" for i in range(10)])
        sub = tr.subset(3)
        assert sub.n_series == 3
        np.testing.assert_array_equal(sub.utilization, u[:3])
        assert sub.labels == ["s0", "s1", "s2"]

    @pytest.mark.parametrize("n", [1, 6, 10], ids=lambda n: f"first-{n}")
    @pytest.mark.parametrize("labelled", [True, False])
    def test_subset_copies_what_the_index_formula_selects(self, n, labelled):
        u = np.random.default_rng(0).uniform(0, 1, size=(10, 8))
        labels = [f"s{i}" for i in range(10)] if labelled else []
        tr = UtilizationTrace(u, labels=labels)
        sub = tr.subset(n)
        assert sub.utilization.tobytes() == u[:n].copy().tobytes()
        assert sub.labels == labels[:n]
        assert not np.shares_memory(sub.utilization, tr.utilization)

    def test_nan_interval_rejected(self):
        with pytest.raises(ValueError, match="interval_s"):
            UtilizationTrace(np.zeros((1, 4)), interval_s=_NAN)

    def test_infinite_interval_rejected(self):
        # An infinite interval would make duration_s infinite.
        with pytest.raises(ValueError, match="interval_s must be finite"):
            UtilizationTrace(np.zeros((1, 4)), interval_s=_INF)

    def test_subset_bounds(self):
        tr = UtilizationTrace(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            tr.subset(0)
        with pytest.raises(ValueError):
            tr.subset(4)

    def test_demands_scalar_peak(self):
        u = np.full((2, 3), 0.5)
        tr = UtilizationTrace(u)
        d = tr.demands_ghz(2.0)
        np.testing.assert_allclose(d, 1.0)

    def test_demands_vector_peak(self):
        u = np.full((2, 3), 0.5)
        tr = UtilizationTrace(u)
        d = tr.demands_ghz([2.0, 4.0])
        np.testing.assert_allclose(d[0], 1.0)
        np.testing.assert_allclose(d[1], 2.0)

    def test_demands_bad_peak(self):
        tr = UtilizationTrace(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            tr.demands_ghz([1.0])
        with pytest.raises(ValueError):
            tr.demands_ghz([-1.0, 1.0])

    def test_csv_roundtrip(self, tmp_path):
        u = np.round(np.random.default_rng(0).uniform(0, 1, size=(4, 12)), 4)
        tr = UtilizationTrace(u, interval_s=600.0, labels=[f"x{i}" for i in range(4)])
        path = str(tmp_path / "trace.csv")
        tr.to_csv(path)
        back = UtilizationTrace.from_csv(path)
        assert back.interval_s == 600.0
        assert back.labels == tr.labels
        np.testing.assert_allclose(back.utilization, u, atol=1e-4)


class TestGenerator:
    def test_dimensions_match_paper(self):
        tr = generate_trace(TraceConfig(n_servers=50), rng=1)
        assert tr.n_series == 50
        assert tr.n_samples == 7 * 96  # 7 days of 15-minute samples
        assert tr.interval_s == 900.0

    def test_values_in_bounds(self):
        tr = generate_trace(TraceConfig(n_servers=100), rng=2)
        assert tr.utilization.min() >= 0.02 - 1e-12
        assert tr.utilization.max() <= 1.0 + 1e-12

    def test_deterministic_from_seed(self):
        a = generate_trace(TraceConfig(n_servers=20), rng=3)
        b = generate_trace(TraceConfig(n_servers=20), rng=3)
        np.testing.assert_array_equal(a.utilization, b.utilization)

    def test_different_seeds_differ(self):
        a = generate_trace(TraceConfig(n_servers=20), rng=3)
        b = generate_trace(TraceConfig(n_servers=20), rng=4)
        assert not np.array_equal(a.utilization, b.utilization)

    def test_labels_carry_sector_and_company(self):
        tr = generate_trace(TraceConfig(n_servers=30), rng=5)
        assert len(tr.labels) == 30
        sector_names = {s.name for s in SECTORS}
        for label in tr.labels:
            sector, company = label.split("/")
            assert sector in sector_names
            assert company.startswith("company")

    def test_diurnal_variation_present(self):
        """Average across servers must vary substantially over the day."""
        tr = generate_trace(TraceConfig(n_servers=300), rng=6)
        daily = tr.utilization.mean(axis=0).reshape(7, 96).mean(axis=0)
        assert daily.max() - daily.min() > 0.05

    def test_financial_weekend_trough(self):
        """Financial-sector servers drop on the weekend (days 6-7)."""
        tr = generate_trace(TraceConfig(n_servers=400), rng=7)
        fin = np.asarray([l.startswith("financial") for l in tr.labels])
        assert fin.any()
        util = tr.utilization[fin]
        weekday = util[:, : 5 * 96].mean()
        weekend = util[:, 5 * 96 :].mean()
        assert weekend < weekday

    def test_retail_weekend_boost(self):
        tr = generate_trace(TraceConfig(n_servers=400), rng=8)
        retail = np.asarray([l.startswith("retail") for l in tr.labels])
        util = tr.utilization[retail]
        weekday = util[:, : 5 * 96].mean()
        weekend = util[:, 5 * 96 :].mean()
        assert weekend > weekday

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_servers=0)
        with pytest.raises(ValueError):
            TraceConfig(n_days=0)
        with pytest.raises(ValueError):
            TraceConfig(noise_ar1=1.0)
        with pytest.raises(ValueError):
            TraceConfig(spike_probability=2.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"min_utilization": 0.9, "max_utilization": 0.1}, "min_utilization"),
            ({"max_utilization": 1.5}, "max_utilization"),
            ({"spike_duration_samples": -2}, "spike_duration_samples"),
            ({"spike_magnitude": _NAN}, "spike_magnitude"),
            ({"spike_magnitude": _INF}, "spike_magnitude"),
            ({"interval_s": _NAN}, "interval_s"),
            ({"interval_s": _INF}, "interval_s"),
            ({"interval_s": 1e6}, "interval_s"),
            ({"noise_std": -0.1}, "noise_std"),
            ({"noise_std": _NAN}, "noise_std"),
        ],
        ids=["min-above-max", "max-above-one", "negative-spike-duration",
             "nan-spike-magnitude", "inf-spike-magnitude", "nan-interval",
             "inf-interval", "no-sample-per-day", "negative-noise-std",
             "nan-noise-std"],
    )
    def test_bad_config_is_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TraceConfig(**kwargs)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 40), days=st.integers(1, 3))
    def test_arbitrary_dimensions(self, n, days):
        tr = generate_trace(TraceConfig(n_servers=n, n_days=days), rng=9)
        assert tr.utilization.shape == (n, days * 96)
        assert np.all((tr.utilization >= 0) & (tr.utilization <= 1))


def _same_trace(config, seed):
    got, want = generate_trace(config, rng=seed), reference_trace(config, rng=seed)
    assert got.utilization.tobytes() == want.utilization.tobytes()
    assert got.labels == want.labels and got.interval_s == want.interval_s


class TestInPlaceBuildMatchesReference:
    """The in-place generator against the body it replaced
    (``tests/oracles/trace_reference.py``): same bytes, fewer arrays."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        days=st.integers(1, 3),
        # 600 / 3600 / 7200 s: 144 / 24 / 12 samples a day, not 96.
        interval_s=st.sampled_from([900.0, 600.0, 3600.0, 7200.0]),
        # Fewer than four companies leave sectors without members.
        n_companies=st.integers(1, 12),
        spike_probability=st.sampled_from([0.0, 0.002, 0.5, 1.0]),
        # 200 samples outlast k at 3600 / 7200 s and one day at 600 / 900 s.
        spike_duration=st.sampled_from([0, 1, 8, 200]),
        noise_std=st.sampled_from([0.0, 0.03]),
        ar1=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_byte_identical_to_reference(self, n, days, interval_s, n_companies,
                                         spike_probability, spike_duration,
                                         noise_std, ar1, seed):
        _same_trace(TraceConfig(
            n_servers=n, n_days=days, interval_s=interval_s,
            n_companies=n_companies, noise_std=noise_std, noise_ar1=ar1,
            spike_probability=spike_probability,
            spike_duration_samples=spike_duration,
        ), seed)

    def test_benchmark_trace_is_byte_identical(self):
        # The largescale-ipac benchmark trace: 5,415 series, 1 day, at
        # trace seed 2010 + 1000003 (benchmarks/e2e/run.py's default).
        _same_trace(TraceConfig(n_servers=5415, n_days=1), 1002013)

    @pytest.mark.parametrize("n, days", [(5415, 1), (1000, 7)])
    def test_peak_memory_stays_under_four_trace_arrays(self, n, days):
        # The reference body peaks at about 6.7 arrays of (n, k) float64;
        # this one at about 2.4 (the result, the spike draw and its mask).
        config = TraceConfig(n_servers=n, n_days=days)
        tracemalloc.start()
        try:
            generate_trace(config, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * config.n_samples * 8
