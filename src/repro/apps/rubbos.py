"""Request-level simulator of a multi-tier web application.

This is the synthetic stand-in for the paper's testbed workload: a PHP
RUBBoS bulletin board deployed as a two-tier application (Apache web
tier, MySQL database tier), one VM per tier, driven by the ``ab``
benchmarking tool at a fixed concurrency level (paper §VI-A).

Model
-----
* Each tier is an egalitarian processor-sharing CPU whose capacity
  equals the GHz allocation of the hosting VM — the quantity the
  paper's controller actuates.  With ``n`` requests in service each
  progresses at ``capacity / n`` GHz.
* A fixed population of closed-loop clients (the concurrency level)
  cycles: think (exponential) → tier 1 → tier 2 → ... → record response
  time → think again.  This matches ``ab``'s closed-loop semantics.
* Per-visit CPU demands are exponential with the tier's mean
  (:attr:`TierSpec.demand_ghz_s`), so response times are stochastic and
  the 90-percentile is measured *empirically* per control period, exactly
  as the testbed's response-time monitor would.

The app exposes :meth:`MultiTierApp.run_period`, which advances the
embedded discrete-event simulation by one control period and returns the
measurements the response-time controller consumes.

The event loop
--------------
Each app is one discrete-event simulation run by one dispatch loop
(:meth:`MultiTierApp._dispatch`) over flat per-tier lists — remaining
work, client id and door-arrival time per queued request — with no event,
timer or callback objects.  A tier's next completion is a ``(time,
seq)`` pair; think-overs and fault restarts sit on one heap of ``(time,
seq, id)`` entries that are never cancelled.  Every booking takes the
next sequence number, and the loop fires the earliest ``(time, seq)``
among the heap top and the tiers' completions.  The per-request PS
arithmetic is the textbook one and is pinned operation for operation:

* an advance over ``dt`` subtracts ``capacity / n * dt`` from every
  remaining work once (one IEEE-754 subtraction per job), and the cached
  minimum follows the same subtraction, so it stays bitwise equal to the
  smallest element;
* a job with at most ``1e-12`` GHz-s left has finished; a lone finisher
  leaves by ``index`` / ``del`` / ``min``, ties are swept in arrival
  order;
* a tier's next completion is booked ``max(min, 0) * n / capacity``
  seconds ahead whenever its queue or capacity changes.

The common event — a think-over entering tier 1, or a lone finisher
moving to the next tier or back to think — runs inline in the loop;
ties, completions that fall due inside another event and every call
from outside the loop take the general methods below, which perform the
same operations in the same order.

Think times and demands inside the loop come from blocks of
``standard_exponential`` draws: ``scale * x`` is bit-equal to
``rng.exponential(scale)``, and both consume the bit generator the same
way.  On the way out the loop restores the generator state it found and
redraws exactly the values it used, so the generator ends where per-draw
calls would have left it — identification shares one generator between
the plant and its excitation draws.  Outside the loop each draw is one
``rng.exponential(scale)`` call.

Bit-identity with the general discrete-event kernel this loop replaced
is pinned by the differential properties in
``tests/test_des_equivalence.py`` (oracles in ``tests/oracles/``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.obs.reqtrace import RequestTrace, RequestTracer
from repro.sim.metrics import PeriodStats
from repro.util.rng import RngLike, ensure_rng
from repro.util.validation import check_positive

__all__ = ["TierSpec", "AppSpec", "MultiTierApp"]

_INF = math.inf

#: Values per block of standard-exponential draws inside the event loop.
_BLOCK = 256


@dataclass(frozen=True)
class TierSpec:
    """Static description of one application tier.

    Attributes
    ----------
    name:
        Human-readable tier name (e.g. ``"web"``, ``"db"``).
    demand_ghz_s:
        Mean per-request CPU demand in GHz-seconds (billions of cycles);
        each visit draws an exponential demand with this mean.  A visit
        with demand ``d`` alone at a tier allocated ``c`` GHz takes
        ``d / c`` seconds.
    min_alloc_ghz / max_alloc_ghz:
        Acceptable range for the VM's CPU allocation; the controller's
        actuator constraints.
    """

    name: str
    demand_ghz_s: float
    min_alloc_ghz: float = 0.1
    max_alloc_ghz: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.demand_ghz_s < _INF:
            raise ValueError(
                f"demand_ghz_s must be finite and > 0, got {self.demand_ghz_s}"
            )
        check_positive("min_alloc_ghz", self.min_alloc_ghz)
        if self.max_alloc_ghz < self.min_alloc_ghz:
            raise ValueError(
                f"max_alloc_ghz ({self.max_alloc_ghz}) < min_alloc_ghz "
                f"({self.min_alloc_ghz})"
            )


@dataclass(frozen=True)
class AppSpec:
    """Static description of a multi-tier application."""

    name: str
    tiers: Tuple[TierSpec, ...]
    think_time_s: float = 1.0

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("an application needs at least one tier")
        check_positive("think_time_s", self.think_time_s)

    @property
    def n_tiers(self) -> int:
        """Number of tiers (= number of VMs hosting this app)."""
        return len(self.tiers)

    @staticmethod
    def rubbos(
        name: str = "rubbos",
        web_demand_ghz_s: float = 0.020,
        db_demand_ghz_s: float = 0.015,
        think_time_s: float = 1.0,
        max_alloc_ghz: float = 4.0,
    ) -> "AppSpec":
        """The default two-tier RUBBoS-like configuration.

        Demands are exponential with means of 20 ms (web) and 15 ms (db)
        of CPU time per request at 1 GHz — sized so that a ~1 GHz/tier
        allocation yields a 90-percentile response time near the paper's
        1000 ms set point at concurrency 40.
        """
        return AppSpec(
            name=name,
            tiers=(
                TierSpec("web", web_demand_ghz_s, 0.1, max_alloc_ghz),
                TierSpec("db", db_demand_ghz_s, 0.1, max_alloc_ghz),
            ),
            think_time_s=think_time_s,
        )


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
        self._rng = ensure_rng(rng)
        tiers = spec.tiers
        nt = len(tiers)
        # Per-tier state, indexed by tier id.
        self._names = [t.name for t in tiers]
        self._scale = [t.demand_ghz_s for t in tiers]  # mean demands
        self._rem: List[List[float]] = [[] for _ in tiers]  # remaining work
        self._who: List[List[int]] = [[] for _ in tiers]  # client per job
        self._door: List[List[float]] = [[] for _ in tiers]  # door arrival
        self._min = [_INF] * nt  # min remaining work (inf when idle)
        self._due = [_INF] * nt  # next completion time (inf = none booked)
        self._due_seq = [0] * nt
        self._last = [0.0] * nt  # time of the last advance
        self._nominal = [1.0] * nt
        self._frac = [1.0] * nt
        self._cap = [1.0] * nt  # nominal * degradation fraction
        self._work_done = [0.0] * nt  # GHz-s processed this period
        # The clock and the heap of (time, seq, id): id >= 0 is a client's
        # think-over, -1 a fault restart looked up in _restarts by seq.
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, int]] = []
        self._restarts: Dict[int, Tuple[int, float]] = {}
        # Clients, indexed by client id (= spawn order).
        self._t_start: List[float] = []  # when the request in flight began
        # [tracer, request index, visits, work of the visit in flight]
        # while a sampled request is in flight, else None.
        self._trace: List[Optional[list]] = []
        self._target_n = 0
        self._parked: Set[int] = set()
        self._period_rts: List[float] = []
        self._tracer: Optional[RequestTracer] = None
        # Block draws while the loop runs (None outside it).
        self._buf: Optional[List[float]] = None
        self._n_drawn = 0
        self._rng_state: Optional[dict] = None
        #: Set by :meth:`close`; a closed app cannot run.
        self.closed = False
        self._alloc = np.empty(nt)
        if initial_allocations_ghz is None:
            initial_allocations_ghz = [1.0] * nt
        self.set_allocations(initial_allocations_ghz)
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
        self._check_open()
        alloc = np.asarray(allocations_ghz, dtype=float)
        if alloc.shape != (self.spec.n_tiers,):
            raise ValueError(
                f"expected {self.spec.n_tiers} allocations, got shape {alloc.shape}"
            )
        for j, value in enumerate(alloc):
            if not math.isfinite(value):
                raise ValueError(
                    f"allocation for tier {j} ({self._names[j]}) must be "
                    f"finite, got {value}"
                )
        for j, tier in enumerate(self.spec.tiers):
            value = float(np.clip(alloc[j], tier.min_alloc_ghz, tier.max_alloc_ghz))
            self._alloc[j] = value
            self._set_service(j, value, self._frac[j])

    def degrade_tier(self, tier_index: int, fraction: float) -> None:
        """Deliver only *fraction* of tier ``tier_index``'s allocation.

        Fault-injection hook: the hosting server crashed (fraction 0) or
        is thermally throttled.  Orthogonal to :meth:`set_allocations` —
        a later allocation change keeps the degradation fraction.
        In-flight requests keep their remaining work through a stall.
        """
        self._check_open()
        fraction = _check_fraction(fraction)
        self._set_service(tier_index, self._nominal[tier_index], fraction)

    def restart_tier(
        self, tier_index: int, downtime_s: float, fraction: float
    ) -> None:
        """Restart tier ``tier_index``'s VM: it serves nothing for
        ``downtime_s`` seconds, then *fraction* of its allocation.

        Fault-injection hook for a VM that an emergency evacuation just
        re-placed.  The restore is an event of this app's simulation, so
        it lands mid-period when the downtime is shorter than a period.
        """
        self._check_open()
        fraction = _check_fraction(fraction)
        downtime_s = float(downtime_s)
        if not 0.0 <= downtime_s < _INF:
            raise ValueError(f"downtime must be finite and >= 0, got {downtime_s}")
        self.degrade_tier(tier_index, 0.0)
        self._seq += 1
        self._restarts[self._seq] = (tier_index, fraction)
        heapq.heappush(self._heap, (self._now + downtime_s, self._seq, -1))

    def tier_degrade_fraction(self, tier_index: int) -> float:
        """Current degradation fraction of tier ``tier_index``."""
        return self._frac[tier_index]

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
        while len(self._t_start) < self._target_n:
            self._t_start.append(0.0)
            self._trace.append(None)
            self._begin_cycle(len(self._t_start) - 1)
        for c in sorted(self._parked):
            if c < self._target_n:
                self._parked.discard(c)
                self._begin_cycle(c)

    def close(self) -> None:
        """End the simulation: drop pending events and queued requests.

        For the end of a run, so a process that runs many scenarios
        (``repro serve`` workers, the benchmark's passes) does not carry
        each finished run's queues.  The app cannot run or be
        reconfigured after this: :meth:`run_period`, :meth:`warmup`,
        :meth:`set_concurrency`, :meth:`set_allocations`,
        :meth:`degrade_tier` and :meth:`restart_tier` raise
        ``RuntimeError``.
        """
        self.closed = True
        self._parked.clear()
        for j in range(len(self._rem)):
            self._rem[j], self._who[j], self._door[j] = [], [], []
            self._min[j] = self._due[j] = _INF
        self._heap.clear()
        self._restarts.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("app is closed")

    # -- execution ----------------------------------------------------------

    def warmup(self, duration_s: float) -> None:
        """Run *duration_s* seconds and discard all measurements."""
        self._check_open()
        self._run_until(self._now + float(duration_s))
        self._reset_period()

    def run_period(self, duration_s: float) -> PeriodStats:
        """Advance one control period and return its measurements."""
        self._check_open()
        duration_s = check_positive("duration_s", duration_s)
        self._reset_period()
        self._run_until(self._now + duration_s)
        rts = np.asarray(self._period_rts, dtype=float)
        utils = tuple(
            min(work / (self._alloc[j] * duration_s), 1.0)
            if self._alloc[j] > 0
            else 0.0
            for j, work in enumerate(self._work_done)
        )
        if rts.size:
            p90, p50 = _p90_p50(rts)
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
            [work / duration_s for work in self._work_done], dtype=float
        )

    def queue_lengths(self) -> List[int]:
        """Requests in service per tier."""
        return [len(rem) for rem in self._rem]

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

    # -- internals: the clock -------------------------------------------

    def _reset_period(self) -> None:
        self._period_rts = []
        for j in range(len(self._rem)):
            self._advance(j)
            self._work_done[j] = 0.0

    def _run_until(self, until: float) -> None:
        """Fire every event due at or before *until*, then set the clock
        to *until*.

        With telemetry enabled each call is one ``des.run_until`` span
        annotated with the number of events fired, also counted as
        ``des.events``; the loop itself stays uninstrumented.
        """
        if not math.isfinite(until):
            raise ValueError(f"cannot run to a non-finite time {until}")
        if until < self._now:
            raise ValueError(f"cannot run backwards to {until} from {self._now}")
        tel = get_telemetry()
        if not tel.enabled:
            self._dispatch(until)
            self._now = until
            return
        with tel.span("des.run_until", until=until) as sp:
            n_events = self._dispatch(until)
            self._now = until
            sp.annotate(events=n_events)
        tel.count("des.events", n_events)

    def _dispatch(self, until: float) -> int:
        """Fire events in ``(time, seq)`` order up to *until*; returns
        how many fired (a think-over, a restart or a tier completion
        counts as one).

        ``now`` and ``seq`` live in locals here; they are written back
        to ``self`` before every call into the general path and read
        again after it.
        """
        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        due, due_seq, last = self._due, self._due_seq, self._last
        rems, whos, doors, mins = self._rem, self._who, self._door, self._min
        caps, work_done = self._cap, self._work_done
        t_start, traces, names = self._t_start, self._trace, self._names
        parked, target, rts = self._parked, self._target_n, self._period_rts
        rng, scale = self._rng, self._scale
        think_s = self.spec.think_time_s
        tiers = range(len(rems))
        last_tier = len(rems) - 1
        buf = self._buf = []
        self._n_drawn = 0
        now, seq = self._now, self._seq
        n_events = 0
        try:
            while True:
                # The earliest booked completion, then the heap top.
                src = -1
                t = _INF
                for k in tiers:
                    tk = due[k]
                    if tk < t or (tk == t and src >= 0 and due_seq[k] < due_seq[src]):
                        t = tk
                        src = k
                if heap and (
                    src < 0
                    or heap[0][0] < t
                    or (heap[0][0] == t and heap[0][1] < due_seq[src])
                ):
                    if heap[0][0] > until:
                        break
                    now, ts, c = pop(heap)
                    n_events += 1
                    if c < 0:
                        tier, fraction = self._restarts.pop(ts)
                        self._now, self._seq = now, seq
                        self._set_service(tier, self._nominal[tier], fraction)
                        seq = self._seq
                        continue
                    if c >= target:
                        parked.add(c)
                        continue
                    # Think time over: the request enters the first tier.
                    t_start[c] = now
                    tracer = self._tracer
                    req = tracer.begin() if tracer is not None else -1
                    traces[c] = [tracer, req, [], 0.0] if req >= 0 else None
                    j = 0
                    src = -1
                elif src < 0 or t > until:
                    break
                else:
                    # Tier src's booked completion.
                    due[src] = _INF
                    now = t
                    n_events += 1
                    c = -1
                    rem = rems[src]
                    n = len(rem)
                    dt = now - last[src]
                    last[src] = now
                    if dt > 0 and n:
                        cap = caps[src]
                        dec = cap / n * dt
                        work_done[src] += cap * dt
                        rem = rems[src] = [v - dec for v in rem]
                        m = mins[src] = mins[src] - dec
                        if m <= 1e-12:
                            i = rem.index(m)
                            del rem[i]
                            rest = min(rem) if rem else _INF
                            if rest > 1e-12:
                                # A lone finisher: inline.
                                mins[src] = rest
                                c = whos[src].pop(i)
                                sojourn = now - doors[src].pop(i)
                                tr = traces[c]
                                if tr is not None:
                                    tr[2].append((names[src], sojourn, tr[3]))
                                if src < last_tier:
                                    j = src + 1
                                else:
                                    t0 = t_start[c]
                                    if tr is not None:
                                        tr[0].finish(tr[1], t0, now, tr[2])
                                    rts.append((now - t0) * 1000.0)
                                    if c >= target:
                                        parked.add(c)
                                    else:
                                        if not buf:
                                            self._refill()
                                        delay = think_s * buf.pop()
                                        if not 0.0 <= delay < _INF:
                                            raise ValueError(
                                                f"delay must be finite and >= 0, got {delay}"
                                            )
                                        seq += 1
                                        push(heap, (now + delay, seq, c))
                                    c = -1
                            else:
                                rem.insert(i, m)
                                self._now, self._seq = now, seq
                                self._complete(src, m)
                                seq = self._seq
                if c >= 0:
                    # Client c visits tier j.
                    if not buf:
                        self._refill()
                    work = scale[j] * buf.pop()
                    tr = traces[c]
                    if tr is not None:
                        tr[3] = work
                    if not 0.0 < work < _INF:
                        raise ValueError(f"work must be finite and > 0, got {work}")
                    rem = rems[j]
                    n = len(rem)
                    dt = now - last[j]
                    last[j] = now
                    if dt > 0 and n:
                        cap = caps[j]
                        dec = cap / n * dt
                        work_done[j] += cap * dt
                        rem = rems[j] = [v - dec for v in rem]
                        m = mins[j] = mins[j] - dec
                        if m <= 1e-12:
                            self._now, self._seq = now, seq
                            self._complete(j, m)
                            seq = self._seq
                            rem = rems[j]
                    rem.append(work)
                    whos[j].append(c)
                    doors[j].append(now)
                    m = mins[j]
                    if work < m:
                        mins[j] = m = work
                    cap = caps[j]
                    if cap <= 0:
                        due[j] = _INF
                    else:
                        delay = m * len(rem) / cap
                        if not 0.0 <= delay < _INF:
                            raise ValueError(
                                f"delay must be finite and >= 0, got {delay}"
                            )
                        seq += 1
                        due_seq[j] = seq
                        due[j] = now + delay
                if src >= 0:
                    n = len(rems[src])
                    cap = caps[src]
                    if not n or cap <= 0:
                        due[src] = _INF
                    else:
                        m = mins[src]
                        delay = m * n / cap
                        if not 0.0 <= delay < _INF:
                            raise ValueError(
                                f"delay must be finite and >= 0, got {delay}"
                            )
                        seq += 1
                        due_seq[src] = seq
                        due[src] = now + delay
        finally:
            self._now, self._seq = now, seq
            self._buf = None
            if self._n_drawn:
                # Rewind: leave the generator where per-draw calls would
                # have, whatever the last block over-drew.
                rng.bit_generator.state = self._rng_state
                used = self._n_drawn - len(buf)
                if used:
                    rng.standard_exponential(used)
        return n_events

    def _refill(self) -> None:
        """Next block of standard-exponential draws, consumed from the end."""
        if not self._n_drawn:
            self._rng_state = self._rng.bit_generator.state
        block = self._rng.standard_exponential(_BLOCK).tolist()
        block.reverse()
        self._buf.extend(block)
        self._n_drawn += _BLOCK

    # -- internals: the general path ------------------------------------
    #
    # What the loop does inline, one operation at a time, in the order the
    # sequential client loop "park? -> think -> park? -> visit each tier
    # -> record" makes it.  Everything outside the loop and every rare
    # case inside it comes through here.

    def _book(self, j: int, n: int) -> None:
        """Book tier j's next completion from its *n* queued jobs.

        The minimum remaining work is positive whenever a job is queued:
        an advance that takes it to ``1e-12`` or below completes the job.
        """
        cap = self._cap[j]
        if not n or cap <= 0:
            self._due[j] = _INF
            return
        m = self._min[j]
        delay = m * n / cap
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self._seq += 1
        self._due_seq[j] = self._seq
        self._due[j] = self._now + delay

    def _set_service(self, j: int, nominal: float, fraction: float) -> None:
        """New allocation or degradation; queued work is kept."""
        self._advance(j)
        self._nominal[j] = nominal
        self._frac[j] = fraction
        self._cap[j] = nominal * fraction
        self._book(j, len(self._rem[j]))

    def _advance(self, j: int) -> None:
        """Apply tier j's service since its last advance."""
        now = self._now
        dt = now - self._last[j]
        self._last[j] = now
        rem = self._rem[j]
        n = len(rem)
        if dt <= 0 or not n:
            return
        cap = self._cap[j]
        dec = cap / n * dt
        self._work_done[j] += cap * dt
        self._rem[j] = [v - dec for v in rem]
        self._min[j] = m = self._min[j] - dec
        if m <= 1e-12:
            self._complete(j, m)

    def _complete(self, j: int, min_rem: float) -> None:
        """Remove tier j's finished jobs, then report them in arrival
        order (the queue is consistent before anyone hears of them)."""
        rem, who, door = self._rem[j], self._who[j], self._door[j]
        i = rem.index(min_rem)
        del rem[i]
        rest = min(rem) if rem else _INF
        if rest > 1e-12:
            self._min[j] = rest
            finished = [(who.pop(i), door.pop(i))]
        else:
            rem.insert(i, min_rem)
            finished = [(c, t0) for v, c, t0 in zip(rem, who, door) if v <= 1e-12]
            keep = [k for k, v in enumerate(rem) if v > 1e-12]
            self._rem[j] = rem = [rem[k] for k in keep]
            self._who[j] = [who[k] for k in keep]
            self._door[j] = [door[k] for k in keep]
            self._min[j] = min(rem) if rem else _INF
        now = self._now
        for c, t0 in finished:
            self._tier_done(c, j, now - t0)

    def _tier_done(self, c: int, j: int, sojourn_s: float) -> None:
        """Client c's visit to tier j ended: next tier, or record and
        think again."""
        tr = self._trace[c]
        if tr is not None:
            tr[2].append((self._names[j], sojourn_s, tr[3]))
        if j + 1 < len(self._rem):
            self._visit(c, j + 1)
            return
        now = self._now
        t0 = self._t_start[c]
        if tr is not None:
            tr[0].finish(tr[1], t0, now, tr[2])
        self._period_rts.append((now - t0) * 1000.0)
        self._begin_cycle(c)

    def _visit(self, c: int, j: int) -> None:
        """Client c draws its demand and enters tier j's CPU service."""
        buf = self._buf
        if buf is None:
            work = float(self._rng.exponential(self._scale[j]))
        else:
            if not buf:
                self._refill()
            work = self._scale[j] * buf.pop()
        tr = self._trace[c]
        if tr is not None:
            tr[3] = work
        if not 0.0 < work < _INF:
            raise ValueError(f"work must be finite and > 0, got {work}")
        self._advance(j)
        rem = self._rem[j]
        rem.append(work)
        self._who[j].append(c)
        self._door[j].append(self._now)
        if work < self._min[j]:
            self._min[j] = work
        self._book(j, len(rem))

    def _begin_cycle(self, c: int) -> None:
        """Top of client c's loop: park if above the target level, else
        think."""
        if c >= self._target_n:
            self._parked.add(c)
            return
        think_s = self.spec.think_time_s
        buf = self._buf
        if buf is None:
            delay = float(self._rng.exponential(think_s))
        else:
            if not buf:
                self._refill()
            delay = think_s * buf.pop()
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, c))


def _check_fraction(fraction: float) -> float:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return float(fraction)


def _p90_p50(rts: np.ndarray) -> Tuple[float, float]:
    """The 90th and 50th percentiles of a non-empty sample, in one
    ``np.percentile`` call (one sort instead of two; bitwise the two
    separate calls)."""
    p90, p50 = np.percentile(rts, (90.0, 50.0)).tolist()
    return p90, p50
