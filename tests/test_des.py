"""The oracle discrete-event kernel (``tests/oracles/des.py``): scheduling,
processes, PS and FCFS queues.

The plant no longer runs on this kernel; it is the building block of the
preserved plant the fused loop is checked against, so its own contract
stays pinned here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.des import FCFSResource, PSResource, Simulator, Timer


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(1.0, log.append, 2)
        sim.run()
        assert log == [1, 2]

    def test_cancel(self):
        sim = Simulator()
        log = []
        h = sim.schedule(1.0, log.append, "x")
        h.cancel()
        sim.run()
        assert log == []

    def test_run_until_advances_clock_exactly(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_run_until_does_not_run_future_events(self):
        sim = Simulator()
        log = []
        sim.schedule(10.0, log.append, "late")
        sim.run_until(5.0)
        assert log == []
        sim.run_until(10.0)
        assert log == ["late"]

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(4.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_clear_drops_pending_events_and_unlinks_their_handles(self):
        sim = Simulator()
        log = []
        handles = [sim.schedule(t, log.append, t) for t in (1.0, 2.0)]
        sim.run_until(1.5)
        sim.clear()
        assert sim.heap_size == 0 and sim.live_event_count == 0
        sim.run()
        assert log == [1.0] and sim.now == 1.5
        # A handle someone still holds is inert and points nowhere, so
        # it keeps neither the simulator nor its callback's owner alive.
        pending = handles[1]
        assert pending.cancelled and pending.fn is None and pending.sim is None
        pending.cancel()
        assert sim.live_event_count == 0

    def test_clear_disarms_and_unlinks_timers(self):
        sim = Simulator()
        log = []
        ps = PSResource(sim, 1.0)
        ps.submit(1.0, lambda token, rt: log.append(token), "job")
        timer = sim.timer(lambda: log.append("timer"))
        timer.arm(0.5)
        assert sim.live_event_count == 2
        sim.clear()
        assert sim.live_event_count == 0 and sim.peek() == math.inf
        sim.run()
        assert log == [] and sim.now == 0.0
        # Unlinked like a cleared handle: neither the simulator nor the
        # callback's owner is kept alive through a timer someone holds,
        # and a dead timer refuses work instead of silently never firing.
        for dropped in (timer, ps._timer):
            assert not dropped.armed
            assert dropped.fn is None and dropped.sim is None
            dropped.disarm()
            with pytest.raises(RuntimeError):
                dropped.arm(1.0)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == math.inf
        sim.schedule(3.0, lambda: None)
        assert sim.peek() == 3.0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []
        def outer():
            log.append(sim.now)
            sim.schedule(1.0, inner)
        def inner():
            log.append(sim.now)
        sim.schedule(1.0, outer)
        sim.run()
        assert log == [1.0, 2.0]


class TestEventsAndProcesses:
    def test_event_succeed_delivers_value(self):
        sim = Simulator()
        got = []
        ev = sim.event()
        ev.on_success(got.append)
        ev.succeed(42)
        assert got == [42]

    def test_event_double_succeed_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_late_subscriber_fires_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("v")
        got = []
        ev.on_success(got.append)
        assert got == ["v"]

    def test_process_yields_delays(self):
        sim = Simulator()
        log = []
        def proc():
            yield 1.5
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)
        sim.process(proc())
        sim.run()
        assert log == [1.5, 4.0]

    def test_process_waits_on_event(self):
        sim = Simulator()
        ev = sim.event()
        log = []
        def waiter():
            value = yield ev
            log.append((sim.now, value))
        sim.process(waiter())
        sim.schedule(3.0, ev.succeed, "hello")
        sim.run()
        assert log == [(3.0, "hello")]

    def test_process_finished_event(self):
        sim = Simulator()
        def proc():
            yield 1.0
            return "done"
        p = sim.process(proc())
        sim.run()
        assert p.finished.triggered
        assert p.finished.value == "done"

    def test_process_invalid_delay_raises(self):
        sim = Simulator()
        def proc():
            yield -1.0
        with pytest.raises(ValueError):
            sim.process(proc())

    def test_timeout_event(self):
        sim = Simulator()
        ev = sim.timeout(2.0)
        sim.run()
        assert ev.triggered


class TestTimer:
    def test_fires_once_after_delay(self):
        sim = Simulator()
        log = []
        timer = sim.timer(lambda: log.append(sim.now))
        assert isinstance(timer, Timer) and not timer.armed
        sim.run_until(1.0)
        timer.arm(2.0)
        assert timer.armed
        sim.run_until(10.0)
        assert log == [3.0] and not timer.armed

    def test_rearm_replaces_the_pending_firing(self):
        sim = Simulator()
        log = []
        timer = sim.timer(lambda: log.append(sim.now))
        timer.arm(5.0)
        timer.arm(2.0)  # earlier
        sim.run_until(3.0)
        timer.arm(4.0)  # later, from t=3
        timer.arm(1.0)
        sim.run()
        assert log == [2.0, 4.0]

    def test_callback_may_rearm(self):
        sim = Simulator()
        log = []

        def tick():
            log.append(sim.now)
            if len(log) < 3:
                timer.arm(1.0)

        timer = sim.timer(tick)
        timer.arm(1.0)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_disarm_is_idempotent(self):
        sim = Simulator()
        log = []
        timer = sim.timer(lambda: log.append("fired"))
        timer.disarm()  # never armed
        timer.arm(1.0)
        timer.disarm()
        timer.disarm()
        sim.run()
        assert log == [] and sim.now == 0.0

    def test_peek_reports_a_timer_earlier_than_the_heap_top(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        timer = sim.timer(lambda: None)
        assert sim.peek() == 3.0
        timer.arm(1.0)
        assert sim.peek() == 1.0
        timer.arm(4.0)
        assert sim.peek() == 3.0
        timer.disarm()
        assert sim.peek() == 3.0

    def test_run_without_until_drains_timers(self):
        # run() with no horizon drains the heap and the timers alike.
        sim = Simulator()
        ps = PSResource(sim, 2.0)
        done = []
        for i in range(5):
            sim.schedule_at(float(i), lambda: ps.submit(1.0).on_success(done.append))
        sim.run()
        assert len(done) == 5 and ps.queue_length == 0
        assert sim.live_event_count == 0

    def test_step_fires_timers_and_heap_events_in_time_order(self):
        sim = Simulator()
        log = []
        timer = sim.timer(lambda: log.append(("timer", sim.now)))
        sim.schedule(2.0, lambda: log.append(("heap", sim.now)))
        timer.arm(1.0)
        assert sim.step() and log == [("timer", 1.0)]
        assert sim.step() and log[-1] == ("heap", 2.0)
        assert not sim.step()

    def test_same_instant_fires_in_booking_order(self):
        sim = Simulator()
        log = []
        a = sim.timer(lambda: log.append("a"))
        b = sim.timer(lambda: log.append("b"))
        b.arm(1.0)
        sim.schedule(1.0, log.append, "heap")
        a.arm(1.0)
        sim.run_until(1.0)
        assert log == ["b", "heap", "a"]

    def test_timer_beyond_until_stays_armed(self):
        sim = Simulator()
        log = []
        timer = sim.timer(lambda: log.append(sim.now))
        timer.arm(5.0)
        sim.run_until(4.0)
        assert log == [] and timer.armed and sim.now == 4.0
        sim.run_until(5.0)
        assert log == [5.0]

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_invalid_delay_rejected(self, delay):
        sim = Simulator()
        timer = sim.timer(lambda: None)
        with pytest.raises(ValueError):
            timer.arm(delay)
        with pytest.raises(ValueError):
            sim.schedule(delay, lambda: None)

    @pytest.mark.parametrize(
        "resource_cls, capacity",
        [
            (PSResource, 5e-324),
            (PSResource, math.nan),
            (FCFSResource, 5e-324),
            (FCFSResource, math.nan),
        ],
    )
    def test_rebook_with_non_finite_delay_raises_value_error(
        self, resource_cls, capacity
    ):
        # work / subnormal capacity overflows to inf, x / nan is nan:
        # the completion re-book rejects both exactly as schedule() did.
        sim = Simulator()
        res = resource_cls(sim, 1.0)
        res.submit(1.0)
        with pytest.raises(ValueError):
            res.set_capacity(capacity)


class TestPSResource:
    def test_single_job_service_time(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=2.0)
        ev = ps.submit(4.0)  # 4 GHz-s at 2 GHz -> 2 s
        sim.run()
        assert ev.triggered
        assert ev.value == pytest.approx(2.0)

    def test_two_equal_jobs_share(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=1.0)
        e1 = ps.submit(1.0)
        e2 = ps.submit(1.0)
        sim.run()
        # Each progresses at 0.5 GHz; both finish at t=2.
        assert e1.value == pytest.approx(2.0)
        assert e2.value == pytest.approx(2.0)

    def test_unequal_jobs_ps_order(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=1.0)
        small = ps.submit(1.0)
        big = ps.submit(3.0)
        sim.run()
        # Shared until small departs at t=2; big then has 2 left alone.
        assert small.value == pytest.approx(2.0)
        assert big.value == pytest.approx(4.0)

    def test_capacity_change_midstream(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=1.0)
        ev = ps.submit(2.0)
        sim.run_until(1.0)  # 1 GHz-s done
        ps.set_capacity(2.0)
        sim.run()
        assert ev.value == pytest.approx(1.5)  # remaining 1 at 2 GHz

    def test_zero_capacity_stalls(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=0.0)
        ev = ps.submit(1.0)
        sim.run_until(10.0)
        assert not ev.triggered
        ps.set_capacity(1.0)
        sim.run()
        assert ev.triggered
        assert ev.value == pytest.approx(11.0)  # stalled 10 s + 1 s service

    def test_busy_time_accounting(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=2.0)
        ps.submit(4.0)
        sim.run()
        assert ps.busy_time == pytest.approx(2.0)
        assert ps.work_done == pytest.approx(4.0)
        assert ps.completed_jobs == 1

    def test_reset_counters(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=2.0)
        ps.submit(4.0)
        sim.run()
        ps.reset_counters()
        assert ps.busy_time == 0.0
        assert ps.work_done == 0.0
        assert ps.completed_jobs == 0

    def test_queue_length(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=1.0)
        ps.submit(5.0)
        ps.submit(5.0)
        assert ps.queue_length == 2

    def test_invalid_work_rejected(self):
        sim = Simulator()
        ps = PSResource(sim, capacity_ghz=1.0)
        with pytest.raises(ValueError):
            ps.submit(0.0)
        with pytest.raises(ValueError):
            ps.submit(math.inf)

    @settings(max_examples=20, deadline=None)
    @given(works=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=8),
           capacity=st.floats(0.5, 4.0))
    def test_work_conservation(self, works, capacity):
        """Total work processed equals total work submitted."""
        sim = Simulator()
        ps = PSResource(sim, capacity)
        for w in works:
            ps.submit(w)
        sim.run()
        assert ps.work_done == pytest.approx(sum(works), rel=1e-6)
        assert ps.completed_jobs == len(works)

    @settings(max_examples=20, deadline=None)
    @given(works=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=6))
    def test_ps_completion_order_by_size(self, works):
        """With simultaneous arrival, smaller jobs never finish later."""
        sim = Simulator()
        ps = PSResource(sim, 1.0)
        events = [ps.submit(w) for w in works]
        sim.run()
        finish = [ev.value for ev in events]
        order = np.argsort(works)
        sorted_finish = np.asarray(finish)[order]
        assert np.all(np.diff(sorted_finish) >= -1e-9)


class TestFCFSResource:
    def test_sequential_service(self):
        sim = Simulator()
        q = FCFSResource(sim, capacity_ghz=1.0)
        e1 = q.submit(2.0)
        e2 = q.submit(1.0)
        sim.run()
        assert e1.value == pytest.approx(2.0)
        assert e2.value == pytest.approx(3.0)  # waits 2, serves 1

    def test_capacity_change_affects_in_service_job(self):
        sim = Simulator()
        q = FCFSResource(sim, capacity_ghz=1.0)
        ev = q.submit(4.0)
        sim.run_until(2.0)
        q.set_capacity(2.0)
        sim.run()
        assert ev.value == pytest.approx(3.0)  # 2s at 1GHz + 1s at 2GHz

    def test_queue_length_counts_in_service(self):
        sim = Simulator()
        q = FCFSResource(sim, capacity_ghz=1.0)
        q.submit(5.0)
        q.submit(5.0)
        assert q.queue_length == 2

    def test_work_conservation(self):
        sim = Simulator()
        q = FCFSResource(sim, 1.5)
        works = [1.0, 2.0, 0.5]
        for w in works:
            q.submit(w)
        sim.run()
        assert q.work_done == pytest.approx(sum(works))
        assert q.completed_jobs == 3

    def test_mm1_mean_sojourn_close_to_theory(self):
        """M/M/1 at rho=0.7: mean sojourn ~ s/(1-rho)."""
        sim = Simulator()
        rng = np.random.default_rng(9)
        service_mean = 0.7  # GHz-s at 1 GHz
        q = FCFSResource(sim, capacity_ghz=1.0)
        sojourns = []
        n = 4000
        t = 0.0
        for _ in range(n):
            t += rng.exponential(1.0)  # lambda = 1
            sim.schedule_at(t, lambda: sojourns.append(
                q.submit(rng.exponential(service_mean))))
        sim.run()
        values = [ev.value for ev in sojourns if ev.triggered]
        mean = np.mean(values)
        theory = service_mean / (1 - 0.7)
        assert mean == pytest.approx(theory, rel=0.15)


class TestProcessInterrupt:
    def test_interrupt_stops_process(self):
        sim = Simulator()
        log = []

        def proc():
            yield 1.0
            log.append("a")
            yield 1.0
            log.append("b")

        p = sim.process(proc())
        sim.run_until(1.5)
        p.interrupt()
        sim.run()
        assert log == ["a"]
        assert not p.finished.triggered

    def test_interrupted_process_never_finishes(self):
        sim = Simulator()

        def proc():
            yield 10.0
            return "done"

        p = sim.process(proc())
        p.interrupt()
        sim.run()
        assert not p.finished.triggered

    def test_two_processes_share_clock(self):
        sim = Simulator()
        log = []

        def maker(tag, delay):
            def proc():
                for _ in range(3):
                    yield delay
                    log.append((tag, sim.now))
            return proc

        sim.process(maker("fast", 1.0)())
        sim.process(maker("slow", 2.5)())
        sim.run()
        assert log == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
            ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
        ]

    def test_capacity_change_during_empty_queue(self):
        sim = Simulator()
        ps = PSResource(sim, 1.0)
        ps.set_capacity(2.0)  # no jobs: must not schedule anything
        assert sim.peek() == math.inf
        ev = ps.submit(2.0)
        sim.run()
        assert ev.value == pytest.approx(1.0)

    def test_many_simultaneous_submissions(self):
        sim = Simulator()
        ps = PSResource(sim, 10.0)
        events = [ps.submit(1.0) for _ in range(100)]
        sim.run()
        # All equal jobs sharing 10 GHz: each sees rate 0.1 GHz -> 10 s.
        for ev in events:
            assert ev.value == pytest.approx(10.0, rel=1e-6)


class TestHeapCompaction:
    """Lazy cancellation: stale handles are counted, then purged in bulk."""

    def test_live_and_total_counts(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
        assert sim.heap_size == 10
        assert sim.live_event_count == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.heap_size == 10  # lazy: entries linger until compaction
        assert sim.live_event_count == 6

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.live_event_count == 1

    def test_compaction_purges_stale_entries(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(200)]
        for h in handles[:150]:
            h.cancel()
        assert sim.heap_size == 200  # threshold only checked on schedule
        sim.schedule(500.0, lambda: None)  # 201st push triggers compaction
        assert sim.live_event_count == 51
        assert sim.heap_size == 51  # stale entries physically removed

    def test_compaction_deferred_while_live_majority(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i, lambda: None) for i in range(200)]
        # More than COMPACT_MIN cancelled, but live entries still dominate:
        # compaction would be wasted work and must not run.
        for h in handles[: Simulator.COMPACT_MIN + 6]:
            h.cancel()
        sim.schedule(500.0, lambda: None)
        assert sim.heap_size == 201
        assert sim.live_event_count == 201 - (Simulator.COMPACT_MIN + 6)

    def test_dispatch_order_survives_compaction(self):
        sim = Simulator()
        log = []
        survivors = []
        handles = [sim.schedule(1.0 + i, log.append, i) for i in range(200)]
        for i, h in enumerate(handles):
            if i % 4 == 0:
                survivors.append(i)
            else:
                h.cancel()  # 150 of 200 cancelled
        sim.schedule(500.0, log.append, "last")  # compacts here
        assert sim.heap_size == sim.live_event_count
        sim.run()
        assert log == survivors + ["last"]

    def test_pop_of_cancelled_entry_decrements_counter(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        sim.run()
        assert sim.heap_size == 0
        assert sim.live_event_count == 0

    @pytest.mark.parametrize("drive", ["run_until", "step", "run"])
    def test_cancel_after_firing_is_a_no_op(self, drive):
        # Used to leave live_event_count at -1: the count of pending
        # cancellations must only cover entries still in the heap.
        sim = Simulator()
        log = []
        fired = sim.schedule(1.0, log.append, "x")
        later = sim.schedule(5.0, log.append, "y")
        if drive == "run_until":
            sim.run_until(2.0)
        elif drive == "step":
            assert sim.step()
        else:
            later.cancel()
            sim.run()
        fired.cancel()
        fired.cancel()
        expected_live = 0 if drive == "run" else 1
        assert sim.live_event_count == expected_live
        assert sim.heap_size == expected_live
        assert log == ["x"]

    def test_live_count_includes_armed_timers_heap_size_does_not(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        first, second = sim.timer(lambda: None), sim.timer(lambda: None)
        assert (sim.live_event_count, sim.heap_size) == (1, 1)
        first.arm(2.0)
        second.arm(3.0)
        first.arm(2.5)  # re-arming is still one pending firing
        assert (sim.live_event_count, sim.heap_size) == (3, 1)
        second.disarm()
        assert (sim.live_event_count, sim.heap_size) == (2, 1)
        sim.run()
        assert (sim.live_event_count, sim.heap_size) == (0, 0)

    def test_ps_queue_books_nothing_on_the_heap(self):
        sim = Simulator()
        ps = PSResource(sim, 1.0)
        for work in (1.0, 2.0, 3.0):
            ps.submit(work)
        ps.set_capacity(2.0)
        assert sim.heap_size == 0
        assert sim.live_event_count == 1  # the queue's one completion
        sim.run()
        assert ps.completed_jobs == 3 and sim.live_event_count == 0


class TestBatchDispatch:
    """Same-timestamp runs are dispatched as a batch inside run_until."""

    def test_nested_zero_delay_fires_in_same_batch(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.0, nested)

        def second():
            log.append(("second", sim.now))

        def nested():
            log.append(("nested", sim.now))

        sim.schedule(1.0, first)
        sim.schedule(1.0, second)
        sim.run_until(1.0)
        # FIFO within the timestamp; the zero-delay cascade still lands
        # at t=1.0 and runs before run_until returns.
        assert log == [("first", 1.0), ("second", 1.0), ("nested", 1.0)]
        assert sim.now == 1.0

    def test_cancel_within_batch_respected(self):
        sim = Simulator()
        log = []
        handles = {}

        def first():
            log.append("first")
            handles["b"].cancel()

        sim.schedule(1.0, first)
        handles["b"] = sim.schedule(1.0, log.append, "b")
        sim.schedule(1.0, log.append, "c")
        sim.run_until(2.0)
        assert log == ["first", "c"]

    def test_batch_does_not_cross_timestamps(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run_until(5.0)
        assert seen == [1.0, 1.0, 2.0]
