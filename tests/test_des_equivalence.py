"""Fast DES kernel vs the preserved reference: bit-for-bit equivalence.

The optimized :class:`repro.sim.des.PSResource` (remaining work as a
Python list up to 64 jobs and a float64 slot array above, a
min-remaining cache, one re-armable completion timer instead of
cancel-and-reschedule) claims *bit-identical* results to
:class:`tests.oracles.des_reference.ReferencePSResource` (the original
per-job dict implementation).  These tests drive both kernels through
the same operation sequences — random arrivals, capacity changes,
degradations, idle gaps, ramps across the representation switch — and
compare every observable float with ``==``, never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import rubbos
from repro.apps.demand import Exponential
from repro.apps.rubbos import AppSpec, MultiTierApp, TierSpec
from repro.sim.des import _LIST_MAX, PSResource, Simulator
from tests.oracles import des_reference
from tests.oracles.des_reference import ReferenceSimulator


class ReferencePSResource(des_reference.ReferencePSResource):
    """The frozen oracle behind the callback form of ``submit``.

    The oracle predates ``submit(work, on_done, token)``; this adapts
    it onto the completion event the oracle fires at the same point.
    """

    __slots__ = ()

    def submit(self, work_ghz_seconds, on_done=None, token=None):
        ev = super().submit(work_ghz_seconds)
        if on_done is None:
            return ev
        ev.on_success(lambda sojourn: on_done(token, sojourn))
        return None


def _apply(sim, res, kind, value):
    """The ops every driver shares."""
    if kind == "advance":
        sim.run_until(sim.now + value)
    elif kind == "capacity":
        res.set_capacity(value)
    elif kind == "degrade":
        res.degrade(value)
    else:
        raise AssertionError(f"unknown op {kind!r}")


def _drain(sim, res, n_submitted):
    """Lift any stall and run the queue empty, so sequences that stall
    the resource (zero capacity, zero share) still produce comparable
    departure times for every job."""
    res.degrade(1.0)
    res.set_capacity(max(res.nominal_capacity_ghz, 1.0))
    sim.run_until(sim.now + 1e6)
    assert res.queue_length == 0, "drain must complete every job"
    assert res.completed_jobs == n_submitted


def _drive(sim_cls, res_cls, capacity, ops):
    """Run one op sequence; return every observable as exact floats.

    Completions are recorded as ``(completion_time, sojourn)`` pairs in
    firing order — the full event log of the resource — through the
    event form of ``submit``.
    """
    sim = sim_cls()
    res = res_cls(sim, capacity)
    completions = []
    n_submitted = 0
    for kind, value in ops:
        if kind == "submit":
            ev = res.submit(value)
            ev.on_success(lambda rt: completions.append((sim.now, rt)))
            n_submitted += 1
        else:
            _apply(sim, res, kind, value)
    _drain(sim, res, n_submitted)
    return completions, res.busy_time, res.work_done, sim.now


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
        ),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        ),
        # Capacity/degrade are exactly zero (the stall path) or far
        # enough from zero that completion delays stay finite; both
        # kernels reject subnormal capacities the same way, but that
        # raise would abort the sequence before any comparison.
        st.tuples(
            st.just("capacity"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.01, max_value=4.0, allow_nan=False),
            ),
        ),
        st.tuples(
            st.just("degrade"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
        ),
    ),
    min_size=1,
    max_size=50,
)


def _drive_levels(sim_cls, res_cls, works, ops):
    """Steer one queue's length up and down; return every observable.

    ``("level", (target, step))`` submits jobs (cycling through *works*,
    callback form of ``submit``) until the queue holds *target*, or
    advances in *step*-second slices until it has drained to *target* —
    lifting a stall first, since a stalled queue never drains.  Both
    kernels are deterministic, so they take the same number of slices.
    """
    sim = sim_cls()
    res = res_cls(sim, 2.0)
    completions = []
    lengths = []
    n_submitted = 0
    for kind, value in ops:
        if kind == "level":
            target, step = value
            if res.queue_length > target and res.capacity_ghz <= 0:
                res.degrade(1.0)
                res.set_capacity(max(res.nominal_capacity_ghz, 1.0))
            while res.queue_length < target:
                work = works[n_submitted % len(works)]
                res.submit(work, lambda _t, rt: completions.append((sim.now, rt)))
                n_submitted += 1
                # Arrivals 10 us apart: every submit advances the whole
                # queue, yet far too briefly to out-drain the arrivals.
                sim.run_until(sim.now + 1e-5)
            while res.queue_length > target:
                sim.run_until(sim.now + step)
        else:
            _apply(sim, res, kind, value)
        lengths.append(res.queue_length)
    _drain(sim, res, n_submitted)
    return completions, lengths, res.busy_time, res.work_done, sim.now


_STEP = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
_NOISE = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=0.5)),
        st.tuples(
            st.just("capacity"),
            st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=4.0)),
        ),
        st.tuples(st.just("degrade"), st.sampled_from([0.0, 0.5, 1.0])),
    ),
    max_size=4,
)


@st.composite
def _switch_crossing_ops(draw):
    """Up past the switch, down below it, up again, then anywhere."""
    above = st.integers(min_value=_LIST_MAX + 1, max_value=_LIST_MAX + 40)
    below = st.integers(min_value=_LIST_MAX - 40, max_value=_LIST_MAX)
    targets = [draw(above), draw(below), draw(above)]
    targets += draw(st.lists(st.one_of(above, below), max_size=3))
    ops = []
    for target in targets:
        ops.append(("level", (target, draw(_STEP))))
        ops.extend(draw(_NOISE))
    return ops


class TestPSBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.floats(min_value=0.1, max_value=4.0), ops=_OPS)
    def test_random_sequences(self, capacity, ops):
        fast = _drive(Simulator, PSResource, capacity, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, capacity, ops)
        assert fast == ref  # exact float equality, element by element

    def test_single_job(self):
        ops = [("submit", 0.75), ("advance", 0.1)]
        assert _drive(Simulator, PSResource, 1.5, ops) == _drive(
            ReferenceSimulator, ReferencePSResource, 1.5, ops
        )

    def test_zero_share_stall_and_resume(self):
        # Capacity drops to zero mid-service: jobs hold their remaining
        # work through the stall, then finish after capacity returns.
        ops = [
            ("submit", 1.0),
            ("submit", 2.0),
            ("advance", 0.5),
            ("capacity", 0.0),
            ("advance", 3.0),
            ("submit", 0.25),
            ("capacity", 2.0),
        ]
        fast = _drive(Simulator, PSResource, 1.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 1.0, ops)
        assert fast == ref

    def test_full_degrade_is_zero_share(self):
        ops = [
            ("submit", 1.0),
            ("advance", 0.25),
            ("degrade", 0.0),
            ("advance", 5.0),
            ("degrade", 0.5),
            ("advance", 0.5),
        ]
        fast = _drive(Simulator, PSResource, 1.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 1.0, ops)
        assert fast == ref

    @settings(max_examples=50, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
            min_size=65,
            max_size=80,
        )
    )
    def test_large_batch_vectorized_sweep(self, works):
        # More than 64 concurrent jobs takes the numpy completion-sweep
        # path in the fast kernel; the scalar path covers n <= 64.
        ops = [("submit", w) for w in works] + [("advance", 0.01)]
        fast = _drive(Simulator, PSResource, 2.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 2.0, ops)
        assert fast == ref


    @settings(max_examples=60, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=1e-3, max_value=3.0, allow_nan=False),
            min_size=4,
            max_size=40,
        ),
        ops=_switch_crossing_ops(),
    )
    def test_ramps_across_the_representation_switch(self, works, ops):
        # `_OPS` sequences are at most 50 ops long and never reach 65
        # queued jobs; these cross the list <-> array switch in both
        # directions, with stalls and capacity changes on either side.
        fast = _drive_levels(Simulator, PSResource, works, ops)
        lengths = fast[1]
        assert max(lengths) > _LIST_MAX >= min(lengths[1:])
        assert fast == _drive_levels(
            ReferenceSimulator, ReferencePSResource, works, ops
        )

    def test_slot_array_grows_past_its_first_allocation(self):
        # 300 queued jobs: the array made at the switch (128 slots)
        # doubles twice, then the queue drains back through the list.
        rng = np.random.default_rng(1)
        ops = []
        for w in rng.uniform(0.05, 2.0, size=300):
            ops += [("submit", float(w)), ("advance", 1e-3)]
        ops += [("advance", 20.0), ("capacity", 3.0), ("advance", 20.0)]
        fast = _drive(Simulator, PSResource, 2.0, ops)
        assert fast == _drive(ReferenceSimulator, ReferencePSResource, 2.0, ops)

    @pytest.mark.parametrize(
        "n_equal, n_other",
        [
            (3, 0),  # list, everyone ties
            (_LIST_MAX, 0),  # the largest list
            (_LIST_MAX + 1, 0),  # the smallest array, emptied at once
            (10, _LIST_MAX - 4),  # array -> list through one tie sweep
            (5, 20),  # list, ties among survivors
            (30, _LIST_MAX + 10),  # array before and after
        ],
    )
    def test_equal_work_jobs_finish_in_the_same_advance(self, n_equal, n_other):
        # Ties take the general sweep, not the single-finisher shortcut;
        # the tied jobs are interleaved with longer ones so the sweep
        # has to keep arrival order on both sides.
        works = [0.5] * n_equal + [0.7 + 0.01 * i for i in range(n_other)]
        works = works[::2] + works[1::2]
        ops = [("submit", w) for w in works] + [("advance", 0.25), ("capacity", 3.0)]
        fast = _drive(Simulator, PSResource, 2.0, ops)
        assert fast == _drive(ReferenceSimulator, ReferencePSResource, 2.0, ops)
        first = fast[0][:n_equal]
        assert len({t for t, _ in first}) == 1, "the ties complete at one instant"


def _same_instant_log(sim_cls, res_cls, drive):
    """A PS completion between two heap events, all due at t = 1.0."""
    sim = sim_cls()
    res = res_cls(sim, 1.0)
    log = []
    sim.schedule(1.0, log.append, "booked before the job")
    res.submit(1.0).on_success(lambda _rt: log.append("completion"))
    sim.schedule(1.0, log.append, "booked after the job")
    # A re-book at t = 0.5 (same capacity, so the completion stays due
    # at exactly 0.5 + 0.5) moves it behind everything booked earlier.
    rebook = drive.endswith("rebooked")
    if rebook:
        sim.schedule(0.5, res.set_capacity, 1.0)
    if drive.startswith("run_until"):
        sim.run_until(1.0)
    elif drive.startswith("step"):
        while sim.step():
            pass
    else:
        sim.run()
    return log, sim.now


class TestSameInstantOrder:
    """A timer firing and a heap event at one float time fire in the
    order they were booked, exactly as one heap holding both would."""

    @pytest.mark.parametrize("drive", ["run_until", "step", "run"])
    def test_completion_between_heap_events(self, drive):
        log, now = _same_instant_log(Simulator, PSResource, drive)
        assert log == ["booked before the job", "completion", "booked after the job"]
        assert now == 1.0
        assert (log, now) == _same_instant_log(
            ReferenceSimulator, ReferencePSResource, drive
        )

    @pytest.mark.parametrize(
        "drive", ["run_until-rebooked", "step-rebooked", "run-rebooked"]
    )
    def test_rebooked_completion_goes_to_the_back(self, drive):
        log, now = _same_instant_log(Simulator, PSResource, drive)
        assert log == ["booked before the job", "booked after the job", "completion"]
        assert (log, now) == _same_instant_log(
            ReferenceSimulator, ReferencePSResource, drive
        )


def _stats_tuple(stats):
    return (
        stats.completed,
        stats.rt_mean_ms,
        stats.rt_p50_ms,
        stats.rt_p90_ms,
        stats.rt_max_ms,
        tuple(stats.utilizations),
    )


class TestAppBitIdentity:
    """Same app workload on both kernels: identical period statistics.

    ``MultiTierApp`` has no kernel seam; the oracle run swaps the
    classes :mod:`repro.apps.rubbos` looks up at construction time.
    """

    @pytest.fixture
    def on_both_kernels(self, monkeypatch):
        def compare(run):
            fast = run()
            monkeypatch.setattr(rubbos, "Simulator", ReferenceSimulator)
            monkeypatch.setattr(rubbos, "PSResource", ReferencePSResource)
            probe = MultiTierApp(AppSpec.rubbos())
            assert type(probe.sim) is ReferenceSimulator
            assert type(probe._tiers[0].resource) is ReferencePSResource
            assert fast == run()

        return compare

    def test_period_stats_identical(self, on_both_kernels):
        def run():
            app = MultiTierApp(
                AppSpec.rubbos(),
                initial_allocations_ghz=[0.8, 0.6],
                concurrency=25,
                rng=np.random.default_rng(42),
            )
            app.warmup(10.0)
            out = []
            for alloc in ([0.8, 0.6], [1.2, 0.9], [0.5, 0.4]):
                app.set_allocations(alloc)
                stats = app.run_period(30.0)
                out.append(
                    (
                        stats.completed,
                        stats.rt_mean_ms,
                        stats.rt_p50_ms,
                        stats.rt_p90_ms,
                        tuple(stats.utilizations),
                    )
                )
            return out

        on_both_kernels(run)

    def test_fault_path_identical(self, on_both_kernels):
        def run():
            app = MultiTierApp(
                AppSpec.rubbos(),
                concurrency=20,
                rng=np.random.default_rng(7),
            )
            app.warmup(5.0)
            app.degrade_tier(1, 0.3)
            s1 = app.run_period(20.0)
            app.degrade_tier(1, 1.0)
            s2 = app.run_period(20.0)
            return (s1.completed, s1.rt_mean_ms, s2.completed, s2.rt_mean_ms)

        on_both_kernels(run)

    def test_gated_app_identical(self, on_both_kernels):
        # Admission gates route completions through _Tier._complete and
        # its FIFO hand-off instead of straight to the client.
        spec = AppSpec(
            name="gated",
            tiers=(
                TierSpec("web", Exponential(0.020), max_concurrency=3),
                TierSpec("db", Exponential(0.015), max_concurrency=1),
            ),
            think_time_s=0.2,
        )

        def run():
            app = MultiTierApp(
                spec, [0.8, 0.6], concurrency=20, rng=np.random.default_rng(5)
            )
            app.warmup(5.0)
            out = [_stats_tuple(app.run_period(20.0))]
            app.set_allocations([0.4, 0.9])
            out.append(_stats_tuple(app.run_period(20.0)))
            return out, app.queue_lengths()

        on_both_kernels(run)

    def test_concurrency_step_down_then_up_identical(self, on_both_kernels):
        # Down: clients above the level park after their request in
        # flight.  Up: parked clients resume in index order, new ones
        # spawn after them.
        def run():
            app = MultiTierApp(
                AppSpec.rubbos(), [0.8, 0.6], concurrency=30,
                rng=np.random.default_rng(11),
            )
            app.warmup(5.0)
            out = []
            for level in (30, 8, 8, 45, 0, 12):
                app.set_concurrency(level)
                out.append(_stats_tuple(app.run_period(15.0)))
            return out, app.queue_lengths()

        on_both_kernels(run)

    def test_request_tracing_changes_nothing_but_the_record(self, on_both_kernels):
        def run(sample_every=None):
            app = MultiTierApp(
                AppSpec.rubbos(), [0.7, 0.5], concurrency=15,
                rng=np.random.default_rng(3),
            )
            if sample_every:
                app.enable_request_tracing(sample_every)
            app.warmup(5.0)
            stats = [_stats_tuple(app.run_period(20.0)) for _ in range(2)]
            return stats, app.drain_traces()

        dark_stats, no_traces = run()
        traced_stats, traces = run(sample_every=3)
        assert no_traces == [] and traces
        assert traced_stats == dark_stats
        assert all(
            [v.tier for v in trace.tiers] == ["web", "db"] for trace in traces
        )
        on_both_kernels(lambda: run(sample_every=3))
