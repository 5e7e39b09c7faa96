"""Bit-for-bit equivalence of the request-level plant and its oracles.

The plant (:class:`repro.apps.rubbos.MultiTierApp`) is one fused per-app
event loop over flat lists with block-drawn exponentials.  It is judged
against two oracles, both kept in ``tests/oracles/``:

* the plant it replaced (:mod:`tests.oracles.rubbos_reference`) on the
  general event kernel (:mod:`tests.oracles.des`: a Python-list PS queue
  up to 64 jobs and a float64 slot array above, a min-remaining cache,
  one re-armable completion timer per queue), and
* the same plant on the frozen original kernel
  (:mod:`tests.oracles.des_reference`: one object per job,
  cancel-and-reschedule).

``TestPSBitIdentity`` and ``TestSameInstantOrder`` pin the two kernels to
each other: random arrivals, capacity changes, degradations, idle gaps,
ramps across the list/array switch.  ``TestAppBitIdentity`` runs fixed
app scenarios on all three, and ``TestFusedPlant`` is the differential
property over random apps and operation sequences.  Every observable
float is compared with ``==`` (NaN as NaN), never with a tolerance.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rubbos import AppSpec, MultiTierApp, TierSpec
from repro.engine import testbed_backend
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.sim.testbed import TestbedConfig
from tests.oracles import des_reference, rubbos_reference
from tests.oracles.des import _LIST_MAX, PSResource, Simulator
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




# -- the plant: fused loop vs the preserved plant on both kernels ----------


def _bits(x):
    """Exact comparison key: floats by their hex form, so NaN == NaN."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    return x


def _stats(stats):
    return _bits(
        (
            stats.completed,
            stats.rt_mean_ms,
            stats.rt_p50_ms,
            stats.rt_p90_ms,
            stats.rt_max_ms,
            stats.throughput_rps,
            tuple(stats.utilizations),
        )
    )


def _traces(traces):
    return _bits(
        [
            (t.trace_id, t.app, t.start_s, t.rt_s,
             [(v.tier, v.sojourn_s, v.work_ghz_s) for v in t.tiers])
            for t in traces
        ]
    )


def _restart(app, tier, downtime_s, fraction):
    if isinstance(app, MultiTierApp):
        app.restart_tier(tier, downtime_s, fraction)
    else:  # what the testbed backend did before restart_tier
        app.degrade_tier(tier, 0.0)
        app.sim.schedule(downtime_s, app.degrade_tier, tier, fraction)


class _EqualDraws:
    """A generator stand-in whose every standard-exponential value is 1.0.

    Think times and demands then equal their means exactly, so tier
    completions, think-overs and restarts land on shared float instants.
    The plants call only ``exponential``, ``standard_exponential`` and
    ``bit_generator.state``; the state here counts the values drawn, so
    the fused loop's rewind works and the step log compares consumption.
    """

    def __init__(self):
        self.bit_generator = SimpleNamespace(state=0)

    def exponential(self, scale):
        self.bit_generator.state += 1
        return scale * 1.0

    def standard_exponential(self, size):
        self.bit_generator.state += size
        return np.ones(size)


def _play(plant_cls, spec, script, allocs=None, concurrency=0, seed=0,
          trace_every=0, draws=None):
    """Drive one plant through *script*; return everything observable
    after each step, the generator state and ``des.events`` included.

    ``draws`` makes a generator that replaces the seeded one once the
    plant is built.
    """
    rng = np.random.default_rng(seed)
    tel = Telemetry(InMemoryBackend())
    events = tel.registry.counter("des.events")
    log = []
    with use_telemetry(tel, close=False):
        app = plant_cls(spec, allocs, concurrency=concurrency, rng=rng)
        if draws is not None:
            app._rng = rng = draws()
        if trace_every:
            app.enable_request_tracing(trace_every)
        for op, arg in script:
            before = events.value
            out = None
            if op == "period":
                out = (_stats(app.run_period(arg)), _bits(list(app.used_ghz(arg))))
            elif op == "warmup":
                app.warmup(arg)
            elif op == "alloc":
                app.set_allocations(arg)
            elif op == "degrade":
                app.degrade_tier(*arg)
            elif op == "restart":
                _restart(app, *arg)
            elif op == "level":
                app.set_concurrency(arg)
            else:
                raise AssertionError(f"unknown op {op!r}")
            log.append(
                (
                    op,
                    out,
                    app.queue_lengths(),
                    _bits(list(app.allocations_ghz)),
                    [app.tier_degrade_fraction(j) for j in range(spec.n_tiers)],
                    _traces(app.drain_traces()),
                    events.value - before,
                    rng.bit_generator.state,
                )
            )
    return log


def _on_reference_kernel():
    """The preserved plant on the frozen original kernel."""
    return mock.patch.multiple(
        rubbos_reference, Simulator=ReferenceSimulator, PSResource=ReferencePSResource
    )


def _check(spec, script, **kwargs):
    """The fused plant equals both oracles step for step; returns its log."""
    fused = _play(MultiTierApp, spec, script, **kwargs)
    assert fused == _play(rubbos_reference.MultiTierApp, spec, script, **kwargs)
    with _on_reference_kernel():
        assert fused == _play(rubbos_reference.MultiTierApp, spec, script, **kwargs)
    return fused


def _periods(log):
    return [out for op, out, *_ in log if op == "period"]


class TestAppBitIdentity:
    """Fixed app scenarios: the fused plant and the preserved plant on
    both kernels agree on every observable."""

    def test_period_stats_identical(self):
        script = [("warmup", 10.0)]
        for alloc in ([0.8, 0.6], [1.2, 0.9], [0.5, 0.4]):
            script += [("alloc", alloc), ("period", 30.0)]
        _check(AppSpec.rubbos(), script, allocs=[0.8, 0.6], concurrency=25, seed=42)

    def test_fault_path_identical(self):
        script = [
            ("warmup", 5.0),
            ("degrade", (1, 0.3)),
            ("period", 20.0),
            ("degrade", (1, 1.0)),
            ("period", 20.0),
            ("restart", (0, 4.0, 0.5)),
            ("period", 20.0),
        ]
        _check(AppSpec.rubbos(), script, concurrency=20, seed=7)

    def test_concurrency_step_down_then_up_identical(self):
        # Down: clients above the level park after their request in
        # flight.  Up: parked clients resume in index order, new ones
        # spawn after them.
        script = [("warmup", 5.0)]
        for level in (30, 8, 8, 45, 0, 12):
            script += [("level", level), ("period", 15.0)]
        _check(AppSpec.rubbos(), script, allocs=[0.8, 0.6], concurrency=30, seed=11)

    def test_request_tracing_changes_nothing_but_the_record(self):
        script = [("warmup", 5.0), ("period", 20.0), ("period", 20.0)]
        kwargs = dict(allocs=[0.7, 0.5], concurrency=15, seed=3)
        dark = _play(MultiTierApp, AppSpec.rubbos(), script, **kwargs)
        traced = _check(AppSpec.rubbos(), script, trace_every=3, **kwargs)
        assert _periods(traced) == _periods(dark)
        traces = [t for step in traced for t in step[5]]
        assert traces and all(dark_step[5] == () for dark_step in dark)
        assert all([v[0] for v in t[4]] == ["web", "db"] for t in traces)


@st.composite
def _apps(draw):
    """1-3 tiers with their mean demands and a think time."""
    tiers = tuple(
        TierSpec(f"t{j}", draw(st.floats(0.005, 0.05)), 0.05, 4.0)
        for j in range(draw(st.integers(1, 3)))
    )
    return AppSpec("app", tiers, draw(st.floats(0.05, 1.0)))


def _scripts(n_tiers):
    tier = st.integers(0, n_tiers - 1)
    fraction = st.sampled_from([0.0, 0.25, 1.0])
    return st.lists(
        st.one_of(
            st.tuples(st.just("period"), st.floats(0.2, 3.0)),
            st.tuples(st.just("warmup"), st.floats(0.0, 2.0)),
            st.tuples(
                st.just("alloc"),
                st.lists(st.floats(0.02, 5.0), min_size=n_tiers, max_size=n_tiers),
            ),
            st.tuples(st.just("degrade"), st.tuples(tier, fraction)),
            st.tuples(
                st.just("restart"), st.tuples(tier, st.floats(0.0, 2.0), fraction)
            ),
            st.tuples(st.just("level"), st.integers(0, 90)),
        ),
        min_size=1,
        max_size=8,
    )


# name -> (tiers, the longest queue the step log must show, script)
_TIES = {
    # Five jobs stalled at each tier, both restored at one instant; a
    # later restore of the web tier lands on both tiers' completion
    # instant.
    "stalled_tiers": (2, 5, [
        ("level", 5),
        ("degrade", (1, 0.0)),
        ("warmup", 30.0),
        ("degrade", (0, 0.0)),
        ("level", 10),
        ("warmup", 30.0),
        ("restart", (0, 0.0, 1.0)),
        ("restart", (1, 0.0, 1.0)),
        ("restart", (0, 1.25, 1.0)),
        ("restart", (1, 0.5, 1.0)),
        ("period", 4.0),
        ("level", 3),
        ("period", 4.0),
    ]),
    # Clients started a quarter second apart: a think-over lands on the
    # web tier's completion instant, booked before it (the think-over
    # fires first) or after it (the completion does).
    "staggered_clients": (2, 1, [
        ("level", 1),
        ("warmup", 0.25),
        ("level", 2),
        ("warmup", 0.5),
        ("level", 3),
        ("period", 4.0),
        ("level", 1),
        ("period", 4.0),
    ]),
    # Requests that arrive together finish together at every tier.  With
    # two tiers a wrong sweep order would be undone by the next sweep;
    # with three it shows in the order of the drained traces.
    "three_tier_sweeps": (3, 2, [
        ("level", 5),
        ("warmup", 10.0),
        ("level", 2),
        ("period", 4.0),
    ]),
}


class TestFusedPlant:
    """The differential property: random apps and operation sequences
    on the fused plant and on both oracles, compared after every step —
    period statistics, CPU used, queue lengths, allocations, degradation
    fractions, drained traces, ``des.events`` and the generator state."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_apps_and_operations(self, data):
        spec = data.draw(_apps(), label="spec")
        _check(
            spec,
            data.draw(_scripts(spec.n_tiers), label="script"),
            allocs=data.draw(
                st.lists(st.floats(0.05, 3.0), min_size=spec.n_tiers,
                         max_size=spec.n_tiers),
                label="allocs",
            ),
            concurrency=data.draw(st.integers(0, 90), label="concurrency"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
            trace_every=data.draw(st.sampled_from([0, 1, 4]), label="trace_every"),
        )

    def test_generator_state_after_every_run_period_and_warmup(self):
        # Every step of _check compares rng.bit_generator.state; these
        # periods each draw several blocks, so the rewind is exercised
        # after a refill, after a warmup and across allocation changes.
        script = [("warmup", 12.0), ("period", 15.0), ("alloc", [0.5, 0.5]),
                  ("warmup", 3.0), ("period", 15.0)]
        log = _check(AppSpec.rubbos(), script, concurrency=40, seed=2010)
        ran = [step[7] for step in log if step[0] in ("warmup", "period")]
        assert len({str(s) for s in ran}) == len(ran), "every run draws"

    def test_a_period_long_enough_to_refill_the_block(self):
        refills = []
        real_refill = MultiTierApp._refill

        def counting_refill(app):
            refills.append(app._n_drawn)
            real_refill(app)

        with mock.patch.object(MultiTierApp, "_refill", counting_refill):
            _play(MultiTierApp, AppSpec.rubbos(), [("period", 10.0)],
                  concurrency=60, seed=4)
        assert len(refills) >= 3, "one period must draw several blocks"
        _check(AppSpec.rubbos(), [("period", 10.0), ("period", 10.0)],
               concurrency=60, seed=4)

    def test_queues_longer_than_64_jobs(self):
        script = [("warmup", 2.0), ("period", 5.0), ("degrade", (1, 0.0)),
                  ("period", 5.0), ("restart", (1, 1.0, 1.0)), ("period", 5.0)]
        log = _check(AppSpec.rubbos(think_time_s=0.1), script,
                     allocs=[1.0, 0.1], concurrency=90, seed=6)
        assert max(max(step[2]) for step in log) > _LIST_MAX

    @pytest.mark.parametrize("scenario", sorted(_TIES))
    def test_same_instant_events_fire_in_booking_order(self, scenario):
        # Every draw equals its mean: each job needs exactly 0.25 GHz-s
        # and each think takes exactly 1 s, so completions, think-overs
        # and restarts land on the same float instants.  Ties between two
        # tiers, between a tier and the heap, and among the finishers of
        # one sweep must resolve as the kernel resolved them: earliest
        # booking first, arrival order within a sweep.  The level drop
        # afterwards makes client identity observable (who parks).
        n_tiers, queued, script = _TIES[scenario]
        tiers = tuple(TierSpec(name, 0.25) for name in ("web", "app", "db")[-n_tiers:])
        spec = AppSpec("ties", tiers, think_time_s=1.0)
        log = _check(spec, script, trace_every=1, draws=_EqualDraws)
        assert max(max(step[2]) for step in log) >= queued

    def test_identification_with_a_shared_generator(self):
        # identify_testbed_model excites the plant with allocations drawn
        # from the generator the plant draws from, so the fitted model
        # depends on where every run_period leaves it.
        cfg = TestbedConfig(sysid_periods=25, seed=2010)
        fused = testbed_backend.identify_testbed_model(cfg)
        with mock.patch.object(
            testbed_backend, "MultiTierApp", rubbos_reference.MultiTierApp
        ):
            oracle = testbed_backend.identify_testbed_model(cfg)

        def key(fit):
            m = fit.model
            return (m.a.tobytes(), m.b.tobytes(), m.g, fit.r_squared, fit.rmse,
                    fit.n_samples, fit.condition_number)

        assert key(fused) == key(oracle)
