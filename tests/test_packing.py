"""Bin-packing substrate: Minimum Bin Slack."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packing import minimum_bin_slack
from repro.packing.mbs import search_fitting_nothing, search_sorted, sort_items
from tests.oracles.mbs_reference import MemoryConstraint
from tests.oracles.mbs_reference import minimum_bin_slack as stepwise_minimum_bin_slack


class TestMinimumBinSlack:
    def test_exact_fill_found(self):
        res = minimum_bin_slack([3.0, 2.0, 1.0, 5.0], capacity=6.0)
        assert res.slack == pytest.approx(0.0)
        chosen = sum([3.0, 2.0, 1.0, 5.0][i] for i in res.selected)
        assert chosen == pytest.approx(6.0)

    def test_better_than_greedy(self):
        """Greedy decreasing picks 5 then nothing fits (slack 1); MBS finds
        4 + 2 (slack 0)."""
        res = minimum_bin_slack([5.0, 4.0, 2.0], capacity=6.0)
        assert res.slack == pytest.approx(0.0)
        assert sorted([5.0, 4.0, 2.0][i] for i in res.selected) == [2.0, 4.0]

    def test_empty_items(self):
        res = minimum_bin_slack([], capacity=5.0)
        assert res.selected == ()
        assert res.slack == 5.0

    def test_zero_capacity(self):
        res = minimum_bin_slack([1.0, 2.0], capacity=0.0)
        assert res.selected == ()
        assert res.slack == 0.0
        assert res.early_exit

    def test_epsilon_early_exit(self):
        res = minimum_bin_slack([3.0, 2.0, 1.0], capacity=6.0, epsilon=1.5)
        assert res.slack <= 1.5
        assert res.early_exit

    def test_memory_constraint_blocks_items(self):
        sizes = [4.0, 3.0, 3.0]
        mems = [3000.0, 500.0, 500.0]
        res = minimum_bin_slack(sizes, capacity=7.0, memory_sizes=mems, memory_capacity=1500.0)
        # Item 0 never fits memory; best CPU fill is 3 + 3 = 6.
        assert 0 not in res.selected
        assert res.slack == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "sizes, memory_sizes, memory_capacity",
        [
            ([1.0, 2.0], [10.0, 20.0, 30.0], 100.0),
            ([1.0, 2.0, 3.0], [10.0, 20.0], 100.0),
            ([1.0, 2.0], [10.0, math.nan], 100.0),
            ([1.0, 2.0], [10.0, math.inf], 100.0),
            ([1.0, 2.0], [10.0, -1.0], 100.0),
            ([1.0, 2.0], [10.0, 20.0], math.nan),
            ([1.0, 2.0], [10.0, 20.0], math.inf),
            ([1.0, 2.0], [10.0, 20.0], -1.0),
        ],
        ids=["more-memory-entries", "fewer-memory-entries", "nan-entry", "inf-entry",
             "negative-entry", "nan-capacity", "inf-capacity", "negative-capacity"],
    )
    def test_memory_arguments_rejected(self, sizes, memory_sizes, memory_capacity):
        # Memory is read by position: a list of the wrong length would
        # have its extra entries ignored or run out mid-search.
        with pytest.raises(ValueError, match="shape|finite|non-negative"):
            minimum_bin_slack(
                sizes, 6.0, memory_sizes=memory_sizes, memory_capacity=memory_capacity
            )

    def test_step_budget_epsilon_escalation(self):
        """With a 1-step budget, epsilon escalates and the search still
        terminates with a feasible answer."""
        sizes = list(np.linspace(0.1, 1.0, 12))
        res = minimum_bin_slack(sizes, capacity=3.0, max_steps=1, epsilon_step=0.5)
        assert res.epsilon_used > 0.0
        assert res.slack <= 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            minimum_bin_slack([-1.0], 5.0)
        with pytest.raises(ValueError):
            minimum_bin_slack([1.0], -5.0)
        with pytest.raises(ValueError):
            minimum_bin_slack([1.0], 5.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            minimum_bin_slack([1.0], 5.0, max_steps=0)

    def test_non_finite_sizes_and_capacity_rejected(self):
        # NaN passes a `< 0` check and makes the sort order undefined:
        # the search used to return selected=(0,), slack=1.0 here (the
        # true minimum is 0.5), and slack=nan for a NaN capacity.
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack([1.0, float("nan"), 0.5], 2.0)
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack([1.0, float("inf")], 2.0)
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack([1.0, 0.5], float("nan"))
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack([1.0, 0.5], float("inf"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=math.nan),
            dict(epsilon=math.inf),
            dict(epsilon_step=math.nan),
            dict(epsilon_step=math.inf),
            dict(epsilon_step=-0.1),
            dict(memory_capacity=math.nan),
            dict(memory_capacity=math.inf),
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_non_finite_search_knobs_rejected(self, kwargs):
        # A NaN epsilon switches the early exit off for good, a negative
        # step shrinks epsilon, and with a NaN memory capacity every
        # memory test is False: two 2 GiB items "fit" the bin.
        _, sizes, suffix, memory, min_memory = sort_items(
            np.array([1.0, 1.0]), np.array([2048.0, 2048.0])
        )
        search = dict(memory=memory, min_memory=min_memory, memory_capacity=2048.0)
        with pytest.raises(ValueError, match="finite"):
            search_sorted(sizes, suffix, 2.0, **{**search, **kwargs})
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack([1.0, 1.0], 2.0, **kwargs)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_bruteforce_on_small_instances(self, data):
        n = data.draw(st.integers(1, 8))
        sizes = [data.draw(st.floats(0.1, 4.0)) for _ in range(n)]
        capacity = data.draw(st.floats(1.0, 8.0))
        res = minimum_bin_slack(sizes, capacity, epsilon=0.0, max_steps=10**6)
        # Brute force over all subsets.
        best = capacity
        for mask in itertools.product([0, 1], repeat=n):
            total = sum(s for s, b in zip(sizes, mask) if b)
            if total <= capacity + 1e-9:
                best = min(best, capacity - total)
        assert res.slack == pytest.approx(best, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_selection_always_feasible(self, data):
        n = data.draw(st.integers(1, 10))
        sizes = [data.draw(st.floats(0.1, 4.0)) for _ in range(n)]
        mems = [data.draw(st.floats(100, 2000)) for _ in range(n)]
        capacity = data.draw(st.floats(0.5, 6.0))
        mem_cap = data.draw(st.floats(500, 4000))
        res = minimum_bin_slack(
            sizes, capacity, memory_sizes=mems, memory_capacity=mem_cap,
            epsilon=0.05, max_steps=2000,
        )
        total = sum(sizes[i] for i in res.selected)
        total_mem = sum(mems[i] for i in res.selected)
        assert total <= capacity + 1e-9
        assert total_mem <= mem_cap + 1e-9
        assert res.slack == pytest.approx(capacity - total)
        assert len(set(res.selected)) == len(res.selected)  # no duplicates


def _result_fields(res):
    return (res.selected, res.slack, res.steps, res.epsilon_used, res.early_exit)


@st.composite
def _mbs_instances(draw):
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        size = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])  # ties, zeros
    else:
        size = st.floats(0.0, 3.0)
    sizes = draw(st.lists(size, min_size=n, max_size=n))
    capacity = draw(st.one_of(st.sampled_from([0.0, 1.0, 2.5, 6.0]), st.floats(0.0, 12.0)))
    if draw(st.booleans()):
        levels = draw(st.sampled_from([[512.0, 1024.0], [256.0, 512.0, 1024.0],
                                       [256.0, 512.0, 1024.0, 2048.0]]))
        mem = st.sampled_from(levels)
    else:
        mem = st.floats(0.0, 2048.0)
    mems = draw(st.lists(mem, min_size=n, max_size=n))
    # Saturated caps (nothing or one item fits) make every later
    # candidate a rejection: the runs the search jumps.
    mem_cap = draw(st.one_of(st.sampled_from([0.0, 256.0, 1024.0, 3000.0, 1e9]),
                             st.floats(0.0, 6000.0)))
    kwargs = dict(
        epsilon=draw(st.sampled_from([0.0, 0.05, 0.5])),
        max_steps=draw(st.integers(1, 50)),  # escalation boundaries inside runs
        epsilon_step=draw(st.sampled_from([None, 0.01, 1.0 / 3.0])),
        hard_step_cap=draw(st.one_of(st.none(), st.integers(1, 400))),
    )
    if draw(st.booleans()):
        mems = None
    return sizes, capacity, mems, mem_cap, kwargs


@st.composite
def _run_path_instances(draw):
    """The shape of a large-scale PAC search: many small distinct VM
    demands, memory for only a handful of them, and usually far more
    free CPU than any memory-feasible selection can use — so most takes
    are leaves and only escalation ends the search."""
    kind = draw(st.sampled_from(["memory", "memory", "cpu", "cpu", "none"]))
    if kind == "memory":
        # 16 VMs of at most 0.3 GHz use at most 4.8 GHz.
        n = draw(st.integers(0, 150))
        smallest = 0.02
        mem_cap = 512.0 * draw(st.integers(1, 16))
        capacity = draw(st.one_of(st.floats(5.0, 40.0), st.floats(0.0, 2.0)))
        epsilon = draw(st.sampled_from([0.0, 0.01, 0.1]))
    else:
        # CPU leaves: a capacity of a few sizes, memory (if any) that
        # does not always run out first, and too few items for a near
        # fill to end the search at once.
        n = draw(st.integers(0, 40))
        smallest = 0.1
        mem_cap = 512.0 * draw(st.integers(4, 16))
        capacity = draw(st.floats(0.0, 1.2))
        epsilon = 0.0
    sizes = draw(st.lists(st.floats(smallest, 0.3), min_size=n, max_size=n, unique=True))
    mems = draw(st.lists(st.sampled_from([512.0, 1024.0, 1536.0, 2048.0]),
                         min_size=n, max_size=n))
    kwargs = dict(
        epsilon=epsilon,
        max_steps=draw(st.integers(1, 120)),  # escalations inside settled runs
        epsilon_step=draw(st.sampled_from([None, 0.001, 0.02])),
        hard_step_cap=draw(st.one_of(st.none(), st.integers(1, 3000))),
    )
    if kind == "none":
        mems = None
    return sizes, capacity, mems, mem_cap, kwargs


def _assert_matches_stepwise_oracle(instance):
    sizes, capacity, mems, mem_cap, kwargs = instance
    res = minimum_bin_slack(sizes, capacity, mems, mem_cap, **kwargs)
    constraint = None if mems is None else MemoryConstraint(mems, mem_cap)
    ref = stepwise_minimum_bin_slack(sizes, capacity, constraint, **kwargs)
    assert _result_fields(res) == _result_fields(ref)


class _ReadLog(list):
    """A list that records every position read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, pos):
        self.reads.append(pos)
        return super().__getitem__(pos)


class TestJumpsMatchStepwiseSearch:
    """Run-length jumps and settled leaves are an accounting change
    only: every field of the result — step count and escalated epsilon
    included — equals the stepwise oracle's
    (``tests/oracles/mbs_reference.py``)."""

    @settings(max_examples=400, deadline=None)
    @given(instance=_mbs_instances())
    def test_result_equals_stepwise_oracle(self, instance):
        _assert_matches_stepwise_oracle(instance)

    @settings(max_examples=300, deadline=None)
    @given(instance=_run_path_instances())
    def test_run_path_regime_equals_stepwise_oracle(self, instance):
        _assert_matches_stepwise_oracle(instance)

    def test_leaves_are_settled_without_descending(self):
        # Memory admits one item, so every take is a leaf.  Item 0 alone
        # leaves room for another of its own size but for none of the
        # later, larger ones.  A settled leaf never looks at the level
        # below, so memory is read in position order: test, take, release.
        n = 40
        sizes = np.linspace(1.0, 0.5, n)
        mems = [700.0] + [900.0] * (n - 1)
        _, sorted_sizes, suffix, memory, min_memory = sort_items(sizes, np.array(mems))
        memory = _ReadLog(memory)
        res = search_sorted(sorted_sizes, suffix, 1e4, memory=memory, min_memory=min_memory,
                            memory_capacity=1500.0)
        ref = stepwise_minimum_bin_slack(sizes, 1e4, constraint=MemoryConstraint(mems, 1500.0))
        assert _result_fields(res) == _result_fields(ref)
        assert memory.reads == sorted(memory.reads)
        assert memory.reads.count(0) == 3

    def test_saturated_memory_is_jumped_not_walked(self):
        # Memory admits three items; below depth three every remaining
        # candidate is a rejection, and only escalation ends the search.
        n = 2000
        sizes = np.linspace(1.0, 0.5, n)
        mems = [1024.0] * n
        res = minimum_bin_slack(sizes, 1e4, memory_sizes=mems, memory_capacity=3 * 1024.0)
        ref = stepwise_minimum_bin_slack(
            sizes, 1e4, constraint=MemoryConstraint(mems, 3 * 1024.0)
        )
        assert _result_fields(res) == _result_fields(ref)
        assert res.steps > 20 * 20000 and res.early_exit
        assert res.evaluated < 0.05 * res.steps
        assert ref.evaluated == ref.steps

    def test_evaluated_equals_steps_when_nothing_is_rejected(self):
        sizes = np.linspace(1.0, 0.5, 200)
        res = minimum_bin_slack(sizes, 1e4)
        assert res.selected == tuple(range(200))
        assert res.evaluated == res.steps == 200


@st.composite
def _instances_fitting_nothing(draw):
    """Sorted items none of which fits the bin alone: by size, by memory
    or both; capacities at or below epsilon, zero-size tails (memory
    misfits only) and step budgets small enough to escalate and cap."""
    tol = 1e-9
    misfit = draw(st.sampled_from(["cpu", "memory", "both"]))
    n = draw(st.integers(0, 60))
    capacity = draw(st.one_of(st.sampled_from([0.0, 0.05, 1.0, 2.0]), st.floats(0.0, 4.0)))
    mem_cap = draw(st.one_of(st.sampled_from([0.0, 512.0, 1024.0]), st.floats(0.0, 2048.0)))
    if misfit == "memory":
        size = st.one_of(st.just(0.0), st.floats(0.0, capacity + 1.0))
    else:
        size = st.floats(capacity + tol, capacity + 3.0, exclude_min=True)
    if misfit == "cpu":
        mem = st.one_of(st.just(0.0), st.floats(0.0, 4096.0))
    else:
        mem = st.floats(mem_cap + tol, mem_cap + 2048.0, exclude_min=True)
    sizes = np.array(draw(st.lists(size, min_size=n, max_size=n)), dtype=float)
    mems = np.array(draw(st.lists(mem, min_size=n, max_size=n)), dtype=float)
    if misfit == "cpu" and draw(st.booleans()):
        mems = None
    kwargs = dict(
        epsilon=draw(st.sampled_from([0.0, 0.05, 0.5, 5.0])),
        # max_steps=1 on more than 50 items reaches the hard cap.
        max_steps=draw(st.one_of(st.just(1), st.integers(1, 30))),
    )
    return sizes, capacity, mems, mem_cap, kwargs


class TestSearchFittingNothing:
    """``search_fitting_nothing`` is the search's result, field for field,
    whenever no item fits the bin alone — what PAC's server walk reports
    for the servers it answers without searching."""

    @staticmethod
    def _both(sizes, capacity, mems, mem_cap, kwargs):
        _, sorted_sizes, suffix, memory, min_memory = sort_items(sizes, mems)
        searched = search_sorted(sorted_sizes, suffix, capacity, memory=memory,
                                 min_memory=min_memory, memory_capacity=mem_cap, **kwargs)
        return search_fitting_nothing(suffix, capacity, **kwargs), searched

    @settings(max_examples=500, deadline=None)
    @given(instance=_instances_fitting_nothing())
    def test_equals_the_search(self, instance):
        got, searched = self._both(*instance)
        assert searched.selected == ()
        assert got == searched

    @pytest.mark.parametrize("case, want", [
        # The empty selection already meets epsilon.
        (dict(capacity=0.5, epsilon=0.5), (0.5, 0, 0.5, True, 0)),
        # Zero sizes after the first item: the dominance cut ends the run.
        (dict(sizes=[2.0, 0.0, 0.0], mems=[900.0] * 3), (1.0, 1, 0.0, False, 1)),
        (dict(sizes=[0.0, 0.0], mems=[900.0] * 2), (1.0, 0, 0.0, False, 0)),
        # 40 rejected candidates cross max_steps four times (5 % each).
        (dict(sizes=[3.0] * 40, max_steps=10), (1.0, 40, 0.2, False, 1)),
        # The hard cap, 50 * max_steps, stops the run on it.
        (dict(sizes=[3.0] * 60, max_steps=1), (1.0, 50, 2.5, False, 1)),
    ])
    def test_each_exit(self, case, want):
        case = {"sizes": [3.0], "capacity": 1.0, "mems": None, **case}
        kwargs = {k: v for k, v in case.items() if k not in ("sizes", "capacity", "mems")}
        mems = None if case["mems"] is None else np.array(case["mems"])
        got, searched = self._both(np.array(case["sizes"]), case["capacity"], mems,
                                   512.0, kwargs)
        assert got == searched
        assert (got.slack, got.steps, got.epsilon_used, got.early_exit, got.evaluated) \
            == pytest.approx(want)
