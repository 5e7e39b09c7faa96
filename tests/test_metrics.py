"""Metrics containers: recorder, period stats."""

import math

import numpy as np
import pytest

from repro.sim.metrics import PeriodStats, SeriesRecorder


class TestSeriesRecorder:
    def test_record_and_read_back(self):
        r = SeriesRecorder()
        r.record("x", 0.0, 1.0)
        r.record("x", 1.0, 2.0)
        np.testing.assert_array_equal(r.values("x"), [1.0, 2.0])
        np.testing.assert_array_equal(r.times("x"), [0.0, 1.0])

    def test_names_insertion_ordered(self):
        r = SeriesRecorder()
        r.record("b", 0, 1)
        r.record("a", 0, 1)
        assert list(r.names()) == ["b", "a"]

    def test_missing_series_empty(self):
        r = SeriesRecorder()
        assert r.values("nope").shape == (0,)
        assert math.isnan(r.last("nope"))
        assert r.last("nope", default=7.0) == 7.0

    def test_summary_ignores_nan(self):
        r = SeriesRecorder()
        for v in [1.0, float("nan"), 3.0]:
            r.record("x", 0, v)
        s = r.summary("x")
        assert s["mean"] == pytest.approx(2.0)
        assert s["n"] == 2
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_summary_empty(self):
        s = SeriesRecorder().summary("void")
        assert math.isnan(s["mean"])
        assert s["n"] == 0

    def test_max_points_bounds_memory(self):
        r = SeriesRecorder(max_points=16)
        for i in range(10_000):
            r.record("x", float(i), float(i))
        assert len(r.values("x")) < 16
        assert r.count("x") == 10_000

    def test_max_points_keeps_even_spacing(self):
        r = SeriesRecorder(max_points=16)
        for i in range(1024):
            r.record("x", float(i), float(i))
        t = r.times("x")
        # decimation keeps a uniform stride, so gaps are all equal
        gaps = np.diff(t)
        assert len(set(gaps.tolist())) == 1
        assert t[0] == 0.0

    def test_max_points_below_cap_is_lossless(self):
        r = SeriesRecorder(max_points=100)
        for i in range(50):
            r.record("x", float(i), float(i) * 2)
        np.testing.assert_array_equal(r.values("x"), np.arange(50) * 2.0)

    def test_max_points_validation(self):
        with pytest.raises(ValueError):
            SeriesRecorder(max_points=1)
        with pytest.raises(ValueError):
            SeriesRecorder(max_points=0)

    def test_max_points_two_is_the_smallest_cap(self):
        r = SeriesRecorder(max_points=2)
        for i in range(1000):
            r.record("x", float(i), float(i))
        assert len(r.values("x")) < 2
        assert r.count("x") == 1000
        # The retained sample is the series start, never a random point.
        assert r.times("x")[0] == 0.0

    def test_decimated_recorder_with_no_samples_is_empty(self):
        r = SeriesRecorder(max_points=8)
        assert r.values("void").shape == (0,)
        assert r.count("void") == 0
        assert math.isnan(r.summary("void")["mean"])

    def test_clear(self):
        r = SeriesRecorder(max_points=8)
        for i in range(100):
            r.record("x", float(i), float(i))
        r.clear()
        assert r.values("x").shape == (0,)
        assert r.count("x") == 0
        assert list(r.names()) == []


class TestPeriodStats:
    def test_frozen(self):
        s = PeriodStats(1.0, 0.5, 10, 2.0, (0.5, 0.6))
        with pytest.raises(Exception):
            s.rt_p90_ms = 2.0

    def test_metric_lookup(self):
        s = PeriodStats(90.0, 50.0, 10, 2.0, (0.5,), rt_p50_ms=45.0, rt_max_ms=99.0)
        assert s.metric("p90") == 90.0
        assert s.metric("p50") == 45.0
        assert s.metric("mean") == 50.0
        assert s.metric("max") == 99.0

    def test_metric_unknown_name_raises(self):
        s = PeriodStats(90.0, 50.0, 10, 2.0, (0.5,))
        with pytest.raises(ValueError, match="unknown SLA metric"):
            s.metric("p95")
