"""Fast DES kernel vs the preserved reference: bit-for-bit equivalence.

The optimized :class:`repro.sim.des.PSResource` (preallocated slot
array, vectorized advance, min-remaining cache) claims *bit-identical*
results to :class:`tests.oracles.des_reference.ReferencePSResource`
(the original per-job dict implementation).  These tests drive both kernels
through the same operation sequences — random arrivals, capacity
changes, degradations, idle gaps — and compare every observable float
with ``==``, never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import rubbos
from repro.apps.rubbos import AppSpec, MultiTierApp
from repro.sim.des import PSResource, Simulator
from tests.oracles.des_reference import ReferencePSResource, ReferenceSimulator


def _drive(sim_cls, res_cls, capacity, ops):
    """Run one op sequence; return every observable as exact floats.

    Completions are recorded as ``(completion_time, sojourn)`` pairs in
    firing order — the full event log of the resource.  After the ops
    the capacity is restored to a positive value and the queue drained,
    so sequences that stall the resource (zero capacity, zero share)
    still produce comparable departure times for every job.
    """
    sim = sim_cls()
    res = res_cls(sim, capacity)
    completions = []
    n_submitted = 0
    for op in ops:
        kind, value = op
        if kind == "submit":
            ev = res.submit(value)
            ev.on_success(lambda rt: completions.append((sim.now, rt)))
            n_submitted += 1
        elif kind == "advance":
            sim.run_until(sim.now + value)
        elif kind == "capacity":
            res.set_capacity(value)
        elif kind == "degrade":
            res.degrade(value)
    res.degrade(1.0)
    res.set_capacity(max(res.nominal_capacity_ghz, 1.0))
    sim.run_until(sim.now + 1e6)
    assert res.queue_length == 0, "drain must complete every job"
    assert res.completed_jobs == n_submitted
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
