"""The request-level plant as it was before the fused event loop, preserved.

:class:`repro.apps.rubbos.MultiTierApp` runs each application as one
per-app dispatch loop over flat lists, with block-drawn think times and
demands.  This module keeps the plant it replaced -- the same
``MultiTierApp`` public API built from the general
:class:`~tests.oracles.des.Simulator` / :class:`~tests.oracles.des.PSResource`
kernel, a ``_Tier`` per tier and one ``_Client`` record
per closed-loop client driven by callbacks -- as the second differential
oracle.  ``tests/test_des_equivalence.py`` drives both plants through
the same operations and compares period statistics, CPU usage, queue
lengths, request traces, ``des.events`` and the generator state with
``==``; swapping this module's ``Simulator`` / ``PSResource`` for the
frozen :mod:`tests.oracles.des_reference` classes gives the first
oracle.

Nothing here should be "improved" -- it is the frozen baseline.  The
spec dataclasses (:class:`~repro.apps.rubbos.AppSpec`,
:class:`~repro.apps.rubbos.TierSpec`) are shared with the product.
A fault restart is ``degrade_tier(j, 0.0)`` followed by
``sim.schedule(downtime, degrade_tier, j, fraction)``, which is what the
testbed backend did before ``MultiTierApp.restart_tier``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.rubbos import AppSpec, TierSpec
from repro.obs.reqtrace import RequestTrace, RequestTracer
from repro.sim.metrics import PeriodStats
from repro.util.rng import RngLike, ensure_rng
from repro.util.validation import check_positive
from tests.oracles.des import PSResource, SimEvent, Simulator

__all__ = ["MultiTierApp"]


class _Tier:
    """One tier: a PS CPU.  ``submit`` is the PS resource's own
    (sojourn = service time, same synchronous completion)."""

    __slots__ = ("sim", "spec", "resource")

    def __init__(self, sim: Simulator, spec: TierSpec, capacity_ghz: float):
        self.sim = sim
        self.spec = spec
        self.resource = PSResource(sim, capacity_ghz)

    def submit(
        self,
        work_ghz_seconds: float,
        on_done: Optional[Callable[[Any, float], None]] = None,
        token: Any = None,
    ) -> Optional[SimEvent]:
        """Same contract as :meth:`PSResource.submit`: completion calls
        ``on_done(token, sojourn_s)``, or fires the returned event when
        no callback is given."""
        return self.resource.submit(work_ghz_seconds, on_done, token)

    def clear(self) -> None:
        """Forget queued requests (end of a run)."""
        self.resource.clear()

    # -- pass-throughs ---------------------------------------------------

    def set_capacity(self, capacity_ghz: float) -> None:
        self.resource.set_capacity(capacity_ghz)

    def degrade(self, fraction: float) -> None:
        self.resource.degrade(fraction)

    @property
    def degrade_fraction(self) -> float:
        return self.resource.degrade_fraction

    def reset_counters(self) -> None:
        self.resource.reset_counters()

    @property
    def work_done(self) -> float:
        return self.resource.work_done

    @property
    def queue_length(self) -> int:
        """Requests in service."""
        return self.resource.queue_length


class _Client:
    """State of one closed-loop client between callbacks."""

    __slots__ = ("idx", "t_start", "tier", "work", "trace")

    def __init__(self, idx: int):
        self.idx = idx
        self.t_start = 0.0  # when the request in flight left think
        self.tier = 0  # index of the tier being visited
        self.work = 0.0  # demand drawn for that visit
        # (tracer, request index, visits so far) while the request in
        # flight is a sampled one, else None.
        self.trace: Optional[tuple] = None


class MultiTierApp:
    """A running multi-tier application with closed-loop clients.

    Parameters
    ----------
    spec:
        Static application description.
    initial_allocations_ghz:
        CPU allocation per tier, GHz.  Defaults to 1.0 GHz each.
    concurrency:
        Initial number of closed-loop clients.
    rng:
        Seed or generator for demands and think times.
    """

    def __init__(
        self,
        spec: AppSpec,
        initial_allocations_ghz: Optional[Sequence[float]] = None,
        concurrency: int = 0,
        rng: RngLike = None,
    ):
        self.spec = spec
        self.sim = Simulator()
        self._rng = ensure_rng(rng)
        if initial_allocations_ghz is None:
            initial_allocations_ghz = [1.0] * spec.n_tiers
        alloc = np.asarray(initial_allocations_ghz, dtype=float)
        if alloc.shape != (spec.n_tiers,):
            raise ValueError(
                f"expected {spec.n_tiers} allocations, got shape {alloc.shape}"
            )
        self._alloc = np.empty(spec.n_tiers)
        self._tiers: List[_Tier] = [
            _Tier(self.sim, tier, 1.0) for tier in spec.tiers
        ]
        self.set_allocations(alloc)
        self._target_n = 0
        self._n_spawned = 0
        self._parked: Dict[int, _Client] = {}
        self._period_rts: List[float] = []
        self._tracer: Optional[RequestTracer] = None
        #: Set by :meth:`close`; a closed app cannot run.
        self.closed = False
        if concurrency:
            self.set_concurrency(concurrency)

    # -- configuration ------------------------------------------------------

    @property
    def allocations_ghz(self) -> np.ndarray:
        """Current per-tier CPU allocations (GHz), copied."""
        return self._alloc.copy()

    @property
    def concurrency(self) -> int:
        """Current target concurrency level."""
        return self._target_n

    def set_allocations(self, allocations_ghz: Sequence[float]) -> None:
        """Apply new per-tier allocations, clipped to each tier's range."""
        alloc = np.asarray(allocations_ghz, dtype=float)
        if alloc.shape != (self.spec.n_tiers,):
            raise ValueError(
                f"expected {self.spec.n_tiers} allocations, got shape {alloc.shape}"
            )
        for j, (tier, res) in enumerate(zip(self.spec.tiers, self._tiers)):
            value = float(np.clip(alloc[j], tier.min_alloc_ghz, tier.max_alloc_ghz))
            self._alloc[j] = value
            res.set_capacity(value)

    def degrade_tier(self, tier_index: int, fraction: float) -> None:
        """Deliver only *fraction* of tier ``tier_index``'s allocation.

        Fault-injection hook: the hosting server crashed (fraction 0) or
        is thermally throttled.  Orthogonal to :meth:`set_allocations` —
        a later allocation change keeps the degradation fraction.
        """
        self._tiers[tier_index].degrade(fraction)

    def tier_degrade_fraction(self, tier_index: int) -> float:
        """Current degradation fraction of tier ``tier_index``."""
        return self._tiers[tier_index].degrade_fraction

    def allocation_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) per-tier allocation bounds in GHz."""
        lo = np.asarray([t.min_alloc_ghz for t in self.spec.tiers])
        hi = np.asarray([t.max_alloc_ghz for t in self.spec.tiers])
        return lo, hi

    def set_concurrency(self, n: int) -> None:
        """Change the number of active closed-loop clients.

        Raising the level wakes parked clients / spawns new ones; lowering
        it lets extra clients finish their in-flight request and park.
        """
        if n < 0:
            raise ValueError(f"concurrency must be >= 0, got {n}")
        self._check_open()
        self._target_n = int(n)
        while self._n_spawned < self._target_n:
            client = _Client(self._n_spawned)
            self._n_spawned += 1
            self._begin_cycle(client)
        for idx in sorted(self._parked):
            if idx < self._target_n:
                self._begin_cycle(self._parked.pop(idx))

    def close(self) -> None:
        """End the simulation: drop pending events and queued requests.

        The event queue and the tiers' job lists hold this app's bound
        callbacks, and the app holds them, so a finished app is a
        reference cycle of a few hundred objects.  A process that runs
        many scenarios (``repro serve`` workers, the benchmark's passes)
        would otherwise carry each finished run until the next full
        garbage collection.  The app cannot run after this:
        :meth:`run_period`, :meth:`warmup` and :meth:`set_concurrency`
        raise ``RuntimeError``.
        """
        self.closed = True
        self._parked.clear()
        for tier in self._tiers:
            tier.clear()
        self.sim.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("app is closed")

    # -- execution ----------------------------------------------------------

    def warmup(self, duration_s: float) -> None:
        """Run *duration_s* seconds and discard all measurements."""
        self._check_open()
        self.sim.run_until(self.sim.now + float(duration_s))
        self._reset_period()

    def run_period(self, duration_s: float) -> PeriodStats:
        """Advance one control period and return its measurements."""
        self._check_open()
        duration_s = check_positive("duration_s", duration_s)
        self._reset_period()
        self.sim.run_until(self.sim.now + duration_s)
        rts = np.asarray(self._period_rts, dtype=float)
        utils = tuple(
            min(res.work_done / (self._alloc[j] * duration_s), 1.0)
            if self._alloc[j] > 0
            else 0.0
            for j, res in enumerate(self._tiers)
        )
        if rts.size:
            p90 = float(np.percentile(rts, 90.0))
            p50 = float(np.percentile(rts, 50.0))
            mean = float(rts.mean())
            rt_max = float(rts.max())
        else:
            p90 = p50 = mean = rt_max = float("nan")
        return PeriodStats(
            rt_p90_ms=p90,
            rt_mean_ms=mean,
            completed=int(rts.size),
            throughput_rps=rts.size / duration_s,
            utilizations=utils,
            rt_p50_ms=p50,
            rt_max_ms=rt_max,
        )

    def used_ghz(self, duration_s: float) -> np.ndarray:
        """Average GHz consumed per tier over the last ``duration_s``.

        Derived from each tier's ``work_done`` integral; callers must pass
        the same duration they ran.
        """
        return np.asarray(
            [res.work_done / duration_s for res in self._tiers], dtype=float
        )

    def queue_lengths(self) -> List[int]:
        """Instantaneous number of in-service requests per tier."""
        return [res.queue_length for res in self._tiers]

    # -- request-path tracing -------------------------------------------

    def enable_request_tracing(
        self, sample_every: int = 1, app: Optional[str] = None
    ) -> RequestTracer:
        """Trace every ``sample_every``-th request through the tiers.

        ``app`` names the application in trace IDs (defaults to the
        spec name).  Sampling is counter-based, and the traced client
        path draws the identical RNG sequence as the untraced one, so
        enabling tracing never changes simulated behaviour — only what
        gets recorded.
        """
        self._tracer = RequestTracer(app or self.spec.name, sample_every)
        return self._tracer

    def drain_traces(self) -> List[RequestTrace]:
        """Finished request traces since the last drain ([] if disabled)."""
        return self._tracer.drain() if self._tracer is not None else []

    # -- internals ------------------------------------------------------

    def _reset_period(self) -> None:
        self._period_rts = []
        for res in self._tiers:
            res.reset_counters()

    # The client cycle.  Every RNG draw, ``schedule`` and ``submit``
    # happens at the point, and in the order, the sequential loop
    # "park? -> think -> park? -> visit each tier -> record" makes them;
    # tracing only *records* the sojourn each completion already carries.

    def _begin_cycle(self, client: _Client) -> None:
        """Top of the loop: park if above the target level, else think."""
        if client.idx >= self._target_n:
            self._parked[client.idx] = client
            return
        think_s = float(self._rng.exponential(self.spec.think_time_s))
        self.sim.schedule(think_s, self._after_think, client)

    def _after_think(self, client: _Client) -> None:
        """Think time over: start a request at the first tier."""
        if client.idx >= self._target_n:
            self._begin_cycle(client)
            return
        client.t_start = self.sim.now
        tracer = self._tracer
        req = tracer.begin() if tracer is not None else -1
        client.trace = (tracer, req, []) if req >= 0 else None
        self._visit(client, 0)

    def _visit(self, client: _Client, j: int) -> None:
        client.tier = j
        client.work = work = float(
            self._rng.exponential(self.spec.tiers[j].demand_ghz_s)
        )
        self._tiers[j].submit(work, self._tier_done, client)

    def _tier_done(self, client: _Client, sojourn_s: float) -> None:
        """A tier visit completed: next tier, or record and think again."""
        j = client.tier
        trace = client.trace
        if trace is not None:
            trace[2].append((self.spec.tiers[j].name, sojourn_s, client.work))
        if j + 1 < len(self._tiers):
            self._visit(client, j + 1)
            return
        now = self.sim.now
        if trace is not None:
            tracer, req, visits = trace
            tracer.finish(req, client.t_start, now, visits)
        self._period_rts.append((now - client.t_start) * 1000.0)
        self._begin_cycle(client)
