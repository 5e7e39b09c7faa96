"""Tracking metrics and packing lower bounds."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import minimum_bin_slack
from tests.oracles.packing_bounds import capacity_bound_servers, l1_bound, l2_bound
from tests.oracles.tracking import settling_time_s, tracking_metrics, violation_ratio


class TestTrackingMetrics:
    def test_settling_detects_convergence(self):
        values = [3000, 2000, 1400, 1100, 1000, 990, 1010, 1005, 995, 1000]
        assert settling_time_s(values, 1000.0, 15.0) == pytest.approx(2 * 15.0)

    def test_settling_nan_when_never(self):
        assert math.isnan(settling_time_s([5000] * 10, 1000.0, 15.0))

    def test_violation_ratio_counts_upward_only(self):
        values = [500, 900, 1100, 2000]  # two above the set point
        assert violation_ratio(values, 1000.0) == pytest.approx(0.5)
        assert violation_ratio(values, 1000.0, tolerance=0.5) == pytest.approx(0.25)

    def test_violation_counts_nan_as_violation(self):
        assert violation_ratio([float("nan"), 500.0], 1000.0) == pytest.approx(0.5)

    def test_tracking_metrics_composite(self):
        values = [2500, 1800, 1300, 1050, 1000, 980, 1020, 990, 1010, 1000]
        m = tracking_metrics(values, 1000.0, 15.0)
        assert m.steady_state_error_frac < 0.05
        assert m.settling_s <= 4 * 15.0
        assert m.overshoot_frac < 0.31  # 1300 reached after entering band? no: first inside at idx 3
        assert 0.0 <= m.violation_ratio <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tracking_metrics([], 1000.0, 15.0)


class TestPackingBounds:
    def test_l1_simple(self):
        assert l1_bound([0.5, 0.5, 0.5, 0.5], 1.0) == 2
        assert l1_bound([], 1.0) == 0

    def test_l2_beats_l1_on_big_items(self):
        # Four items of 0.6: L1 = ceil(2.4) = 3, but none can share: L2 = 4.
        sizes = [0.6, 0.6, 0.6, 0.6]
        assert l1_bound(sizes, 1.0) == 3
        assert l2_bound(sizes, 1.0) == 4

    def test_item_too_big_rejected(self):
        with pytest.raises(ValueError):
            l1_bound([1.5], 1.0)

    def test_capacity_bound_heterogeneous(self):
        # Demand 10 with servers 8, 4, 2: biggest-first needs 2 servers.
        assert capacity_bound_servers([10.0], [8.0, 4.0, 2.0]) == 2
        assert capacity_bound_servers([1.0], [8.0, 4.0]) == 1
        assert capacity_bound_servers([], [8.0]) == 0

    def test_capacity_bound_infeasible(self):
        with pytest.raises(ValueError):
            capacity_bound_servers([100.0], [8.0, 4.0])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bounds_never_exceed_bins_used(self, data):
        """L1 <= L2 <= bins used by a feasible packing: bins filled one
        at a time with Minimum Bin Slack."""
        n = data.draw(st.integers(1, 15))
        sizes = [data.draw(st.floats(0.05, 1.0)) for _ in range(n)]
        remaining, used = list(sizes), 0
        while remaining:
            chosen = set(minimum_bin_slack(remaining, 1.0).selected)
            assert chosen  # every item fits an empty bin
            remaining = [s for i, s in enumerate(remaining) if i not in chosen]
            used += 1
        lb1 = l1_bound(sizes, 1.0)
        lb2 = l2_bound(sizes, 1.0)
        assert lb1 <= lb2 <= used

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_l2_matches_bruteforce_optimum_lower(self, data):
        """L2 never exceeds the true optimum (brute force on tiny sets)."""
        n = data.draw(st.integers(1, 6))
        sizes = [data.draw(st.floats(0.05, 1.0)) for _ in range(n)]
        lb2 = l2_bound(sizes, 1.0)
        # Brute force: try all partitions via assignment vectors.
        best = n
        for combo in itertools.product(range(n), repeat=n):
            loads = {}
            ok = True
            for s, b in zip(sizes, combo):
                loads[b] = loads.get(b, 0.0) + s
                if loads[b] > 1.0 + 1e-9:
                    ok = False
                    break
            if ok:
                best = min(best, len(loads))
        assert lb2 <= best
