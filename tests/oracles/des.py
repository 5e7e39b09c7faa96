"""A small discrete-event simulation kernel, kept as a test oracle.

This was the substrate under the request-level application simulator
until :class:`repro.apps.rubbos.MultiTierApp` became one fused per-app
event loop.  It now backs the preserved plant in
:mod:`tests.oracles.rubbos_reference` (the fused loop must pop events
in this kernel's ``(time, seq)`` order and perform the same IEEE-754
operations as its :class:`PSResource`), and the frozen
:mod:`tests.oracles.des_reference` builds on its types.  Nothing under
``src/`` imports it.  It provides:

* :class:`Simulator` — a monotonic clock, a binary-heap event queue with
  cancellable handles, and a short list of re-armable :class:`Timer`
  objects, dispatched together in deterministic ``(time, sequence)``
  order.
* :class:`Timer` — one pending firing that its owner moves (``arm``) or
  withdraws (``disarm``) in place; what a queue's "next completion"
  needs, without a heap entry per re-booking.
* :class:`SimEvent` — a one-shot event that processes can wait on.
* generator-based *processes* (``yield delay`` / ``yield SimEvent``),
  a miniature version of the SimPy model, for writing sequential logic.
* :class:`PSResource` — an egalitarian processor-sharing queue whose
  service capacity (in GHz) can change at runtime; this models a VM's
  CPU under Xen-style credit caps.
* :class:`FCFSResource` — a single-server first-come-first-served queue,
  used for validation against M/M/1 theory.

Design notes
------------
The kernel is fitted to the traffic the testbed rigs actually produce:
a closed network of a few dozen clients over two processor-sharing
tiers.  Measured on the ``testbed-des`` benchmark workload (seed 2010),
68 % of the 828,953 ``PSResource._advance`` calls see at most 8 jobs,
94 % at most 16 and none more than 55; on ``testbed-fleet`` 99 % see at
most 4.  Two consequences:

* **Events.**  A queue has exactly one pending completion, and every
  arrival and departure moves it.  Booking it through ``schedule`` cost a
  handle, a heap push and a cancellation each time (three bookings for
  every two events dispatched).  A queue therefore owns one
  :class:`Timer`: re-booking is two attribute writes, and the simulator
  finds the next firing by scanning its timers (a handful: one per
  queue) beside the heap top.  ``arm`` consumes one sequence number
  exactly as ``schedule`` does and ``disarm`` none, so dispatch order is
  the order the cancel-and-reschedule kernel produced.  The heap carries
  what is booked once and rarely withdrawn (think times, process
  sleeps); its handles stay cancellable, cancelled entries are skipped
  on pop, and the heap is compacted when stale entries dominate.
* **Job state.**  ``PSResource`` keeps remaining work in a Python list
  while the queue holds at most 64 jobs and in a float64 slot array
  above that (see the class docstring for the measured crossover).

Both are **bit-identical** to the original kernel, which is preserved
as the test oracle ``tests/oracles/des_reference.py`` and pinned by the
equivalence property tests in ``tests/test_des_equivalence.py``: events
fire in the same (time, seq) order, and every floating-point operation
on job state happens with the same operands in the same order (one
IEEE-754 subtraction per job per advance, whichever representation
holds the operands).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, List, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry

__all__ = [
    "Simulator",
    "EventHandle",
    "Timer",
    "SimEvent",
    "Process",
    "PSResource",
    "FCFSResource",
]

_INF = math.inf

#: Longest ``PSResource`` queue kept as a Python list; longer ones use the
#: float64 slot array (crossover measured in the class docstring).
_LIST_MAX = 64


class EventHandle:
    """Cancellable reference to a scheduled callback."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable,
        args: tuple,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so the kernel skips it; idempotent.

        The owning simulator counts pending cancellations so it can
        compact its heap once stale entries dominate.  A handle is
        unlinked from its simulator when it fires (and by
        :meth:`Simulator.clear`), so cancelling it afterwards is a no-op
        and the count only ever covers entries still in the heap.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._n_cancelled += 1


class Timer:
    """One re-armable pending firing of ``fn()``, owned by its creator.

    Made by :meth:`Simulator.timer`.  At most one firing is pending:
    :meth:`arm` replaces it, :meth:`disarm` withdraws it, and the
    simulator disarms the timer just before it calls ``fn`` (which may
    re-arm).  The simulator scans all its timers for every event it
    dispatches, so timers suit the few long-lived owners that re-book
    constantly (a queue's next completion), not one-off events —
    those belong on the heap via :meth:`Simulator.schedule`.
    """

    __slots__ = ("sim", "fn", "time", "seq")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        self.time = _INF  # inf = disarmed
        self.seq = 0

    @property
    def armed(self) -> bool:
        """Whether a firing is pending."""
        return self.time != _INF

    def arm(self, delay: float) -> None:
        """Fire *delay* seconds from now, replacing any pending firing.

        Takes the next sequence number, so among events at one
        timestamp the firing is ordered by when it was (re-)armed —
        exactly as ``cancel()`` + ``schedule(delay, fn)`` would order it.
        """
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        sim = self.sim
        if sim is None:
            raise RuntimeError("timer was dropped by Simulator.clear()")
        sim._seq = self.seq = sim._seq + 1
        self.time = sim._now + delay

    def disarm(self) -> None:
        """Withdraw the pending firing, if any; idempotent."""
        self.time = _INF


class SimEvent:
    """A one-shot event that callbacks and processes can wait on.

    ``succeed(value)`` fires all registered callbacks exactly once; late
    subscribers fire immediately with the stored value.
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: List[Callable] = []
        self.triggered = False
        self.value = None

    def on_success(self, fn: Callable) -> None:
        """Register ``fn(value)``; fires now if already triggered."""
        if self.triggered:
            fn(self.value)
        else:
            self._callbacks.append(fn)

    def succeed(self, value=None) -> None:
        """Trigger the event, delivering *value* to all waiters."""
        if self.triggered:
            raise RuntimeError("SimEvent already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)


class Process:
    """A generator-driven sequential activity.

    The generator may ``yield`` a non-negative float (sleep that many
    simulated seconds) or a :class:`SimEvent` (resume when it fires; the
    event's value is sent back into the generator).  ``finished`` is a
    :class:`SimEvent` that fires with the generator's return value.
    """

    __slots__ = ("sim", "gen", "finished", "_alive")

    def __init__(self, sim: "Simulator", gen: Generator):
        self.sim = sim
        self.gen = gen
        self.finished = SimEvent(sim)
        self._alive = True
        self._step(None)

    def _step(self, send_value) -> None:
        if not self._alive:
            return
        try:
            target = self.gen.send(send_value)
        except StopIteration as stop:
            self._alive = False
            self.finished.succeed(stop.value)
            return
        if isinstance(target, SimEvent):
            target.on_success(self._step)
        else:
            delay = float(target)
            if delay < 0 or not math.isfinite(delay):
                self._alive = False
                raise ValueError(f"process yielded invalid delay {target!r}")
            self.sim.schedule(delay, self._step, None)

    def interrupt(self) -> None:
        """Stop the process; its ``finished`` event never fires."""
        self._alive = False
        self.gen.close()


class Simulator:
    """Event queue + timers + clock.  Times are floats in simulated seconds."""

    #: Compaction is considered once more than this many cancelled
    #: entries are pending *and* they outnumber live entries.  Small
    #: enough that a cancel-heavy workload never carries a large stale
    #: tail, large enough that compaction cost is amortized over at
    #: least ``COMPACT_MIN`` O(log n) pushes.
    COMPACT_MIN = 64

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._seq = 0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._n_cancelled = 0  # cancelled handles still sitting in the heap
        self._timers: List[Timer] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def heap_size(self) -> int:
        """Total heap entries, including cancelled ones awaiting removal."""
        return len(self._heap)

    @property
    def live_event_count(self) -> int:
        """Firings still due: live heap entries plus armed timers."""
        armed = sum(timer.armed for timer in self._timers)
        return len(self._heap) - self._n_cancelled + armed

    def schedule(self, delay: float, fn: Callable, *args) -> EventHandle:
        """Run ``fn(*args)`` after *delay* seconds; returns a handle."""
        if not 0.0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        # Inlined schedule_at (delay >= 0 guarantees time >= now): this
        # is the hottest scheduling entry point.
        time = self._now + delay
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        if self._n_cancelled > self.COMPACT_MIN:
            self._maybe_compact()
        return handle

    def schedule_at(self, time: float, fn: Callable, *args) -> EventHandle:
        """Run ``fn(*args)`` at absolute simulated *time*."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        if self._n_cancelled > self.COMPACT_MIN:
            self._maybe_compact()
        return handle

    def timer(self, fn: Callable[[], None]) -> Timer:
        """A disarmed :class:`Timer` that calls ``fn()`` when it fires.

        The simulator keeps the timer (and through ``fn`` its owner)
        until :meth:`clear`.
        """
        timer = Timer(self, fn)
        self._timers.append(timer)
        return timer

    def _maybe_compact(self) -> None:
        """Drop cancelled entries once they outnumber live ones.

        Rebuilds in place (slice assignment + heapify) so aliases of
        ``self._heap`` held by an in-flight ``run_until`` stay valid.
        Dispatch order is untouched: surviving entries keep their
        ``(time, seq)`` keys.
        """
        if self._n_cancelled * 2 <= len(self._heap):
            return
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._n_cancelled = 0

    def clear(self) -> None:
        """Drop every pending event and timer; the clock stays where it is.

        For the end of a run.  A queued handle or a timer refers to this
        simulator and, through its callback, to the process or resource
        that booked it — which refer back here — so a finished
        simulation is one big reference cycle that only the cyclic
        collector frees.  Emptying the handles and timers as well as
        the queue lets reference counting free it as soon as the owner
        lets go.  A dropped timer cannot be armed again.
        """
        for _, _, handle in self._heap:
            handle.cancelled = True
            handle.fn = handle.args = handle.sim = None
        self._heap.clear()
        self._n_cancelled = 0
        for timer in self._timers:
            timer.time = _INF
            timer.fn = timer.sim = None
        self._timers.clear()

    def event(self) -> SimEvent:
        """Create a fresh :class:`SimEvent` bound to this simulator."""
        return SimEvent(self)

    def process(self, gen: Generator) -> Process:
        """Launch a generator as a :class:`Process` (starts immediately)."""
        return Process(self, gen)

    def timeout(self, delay: float) -> SimEvent:
        """An event that fires ``delay`` seconds from now."""
        ev = self.event()
        self.schedule(delay, ev.succeed, None)
        return ev

    def peek(self) -> float:
        """Time of the next pending event or timer, or ``inf`` if none."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._n_cancelled -= 1
        nxt = heap[0][0] if heap else _INF
        for timer in self._timers:
            if timer.time < nxt:
                nxt = timer.time
        return nxt

    def step(self) -> bool:
        """Execute the next event.  Returns False if nothing is pending."""
        return self._dispatch(_INF, 1) == 1

    def run_until(self, until: float) -> None:
        """Process all events with time <= *until*, then set now=*until*.

        Advancing the clock to exactly *until* even when the last event is
        earlier makes fixed control periods line up across components.

        With telemetry enabled, each call is traced as one ``des.run_until``
        span annotated with the number of events it processed — a timer
        firing counts as one, a skipped cancellation or a disarm as none
        (the per-event loop itself stays uninstrumented, so disabled-mode
        overhead is one attribute check per call).
        """
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

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue and timers, optionally stopping at *until*."""
        if until is not None:
            self.run_until(until)
            return
        self._dispatch(_INF)

    def _dispatch(self, until: float, limit: float = _INF) -> int:
        """Fire up to *limit* events with time <= *until*; returns how many.

        The one dispatch loop behind ``step``, ``run`` and ``run_until``.
        Each round picks the earliest ``(time, seq)`` among the armed
        timers and the heap top — the order a single heap holding all of
        them would pop — so an event and a timer due at the same instant
        fire in the order they were booked.
        """
        heap = self._heap
        timers = self._timers
        pop = heapq.heappop
        n_events = 0
        while n_events < limit:
            timer = None
            t_time = _INF
            for tm in timers:
                t = tm.time
                if t < t_time or (
                    t == t_time and timer is not None and tm.seq < timer.seq
                ):
                    t_time = t
                    timer = tm
            if heap:
                entry = heap[0]
                time = entry[0]
                if timer is None or time < t_time or (
                    time == t_time and entry[1] < timer.seq
                ):
                    if time > until:
                        break
                    pop(heap)
                    handle = entry[2]
                    if handle.cancelled:
                        self._n_cancelled -= 1
                        continue
                    handle.sim = None  # spent: a late cancel() is a no-op
                    self._now = time
                    handle.fn(*handle.args)
                    n_events += 1
                    continue
            if timer is None or t_time > until:
                break
            timer.time = _INF
            self._now = t_time
            timer.fn()
            n_events += 1
        return n_events


class PSResource:
    """Egalitarian processor-sharing server with adjustable capacity.

    Work is denominated in **GHz-seconds** (billions of CPU cycles): a
    job of size ``w`` on an otherwise-idle resource with capacity ``c``
    GHz finishes after ``w / c`` seconds; with ``n`` jobs present each
    progresses at ``c / n`` GHz.  This is the standard fluid model of a
    CPU time-shared among request handlers, and capacity maps directly
    onto the paper's GHz-denominated VM allocations.

    The resource also integrates *busy time* and *work done*, which the
    cluster layer uses to compute utilization for DVFS and power models.

    Job state is two parallel sequences in arrival order — remaining
    work, and ``(on_done, token, arrival)`` per job — with no per-job
    object.  Remaining work is a Python list while at most 64 jobs
    (``_LIST_MAX``) are queued and a float64 slot array above
    that; the queue converts when it crosses (``tolist`` / array
    assignment round-trip float64 exactly).  Applying the elapsed share
    to every job is ``[v - dec for v in rem]`` on the list and one
    in-place vectorized subtract on the array.  NumPy's per-call
    dispatch (≈ 0.7 µs whatever the length) makes the array the slower
    of the two below about 30 jobs (the comprehension takes 0.2–0.4 µs
    up to 16), and its completion sweep costs ≈ 4 µs of further calls
    against ≈ 1 µs on a 64-job list, so an advance-advance-complete
    cycle crosses over between 64 and 96 jobs (table in
    docs/PERFORMANCE.md).  The rigs' queues are short (module
    docstring), so the list is the common case and the array keeps
    hundreds of queued jobs linear at C speed.  When exactly one job
    finishes — ties aside, the only case — it is removed with
    ``index`` / ``del`` / ``min`` in C; ties take a general sweep in
    arrival order.

    Results are bit-identical to the per-job reference implementation
    (``ReferencePSResource`` in ``tests/oracles/des_reference.py``): the
    subtraction, the ``1e-12`` completion threshold, the
    insertion-order completion sweep, and the min-remaining re-booking
    all perform the same IEEE-754 operations in the same order.
    """

    __slots__ = (
        "sim",
        "_capacity",
        "_nominal",
        "_degrade_fraction",
        "_rem",
        "_min_rem",
        "_jobs",
        "_timer",
        "_last_update",
        "busy_time",
        "work_done",
        "completed_jobs",
    )

    def __init__(self, sim: Simulator, capacity_ghz: float):
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self.sim = sim
        self._capacity = float(capacity_ghz)
        self._nominal = float(capacity_ghz)
        self._degrade_fraction = 1.0
        # Remaining work of the n = len(_jobs) queued jobs: a list of n
        # floats up to _LIST_MAX jobs, else a float64 slot array whose
        # first n entries are live.
        self._rem: Any = []
        # Cached min of the live remaining work (inf when idle).
        # Subtracting the common share decrement preserves element order
        # under IEEE-754 rounding (x <= y implies fl(x-d) <= fl(y-d)),
        # so the cache follows the exact same operation sequence as the
        # min element and stays bitwise equal to it — the common
        # no-completion advance needs no reduction.
        self._min_rem = _INF
        self._jobs: List[Tuple[Callable, Any, float]] = []
        self._timer = sim.timer(self._on_completion)
        self._last_update = sim.now
        self.busy_time = 0.0  # seconds with >=1 job present
        self.work_done = 0.0  # GHz-seconds actually processed
        self.completed_jobs = 0

    @property
    def capacity_ghz(self) -> float:
        """Current *effective* service capacity in GHz (after degradation)."""
        return self._capacity

    @property
    def nominal_capacity_ghz(self) -> float:
        """Allocated capacity in GHz, before any degradation."""
        return self._nominal

    @property
    def degrade_fraction(self) -> float:
        """Fraction of the nominal capacity currently delivered."""
        return self._degrade_fraction

    @property
    def queue_length(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    def set_capacity(self, capacity_ghz: float) -> None:
        """Change capacity; in-flight jobs keep their remaining work."""
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self._advance()
        self._nominal = float(capacity_ghz)
        self._capacity = self._nominal * self._degrade_fraction
        self._rebook()

    def degrade(self, fraction: float) -> None:
        """Deliver only *fraction* of the nominal capacity (fault injection:
        the host crashed or throttled under the VM).  0 stalls the queue
        entirely; in-flight jobs keep their remaining work and resume when
        :meth:`restore` (or a later allocation change) lifts the fraction."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self._advance()
        self._degrade_fraction = float(fraction)
        self._capacity = self._nominal * self._degrade_fraction
        self._rebook()

    def restore(self) -> None:
        """Lift any degradation: effective capacity returns to nominal."""
        self.degrade(1.0)

    def submit(
        self,
        work_ghz_seconds: float,
        on_done: Optional[Callable[[Any, float], None]] = None,
        token: Any = None,
    ) -> Optional[SimEvent]:
        """Add a job of the given size.

        With *on_done*, the job's completion calls ``on_done(token,
        sojourn_s)`` and nothing is returned — the allocation-free form
        for callers that run many jobs (one bound method and a token
        identifying the request, instead of an event and a closure per
        job).  Without it, returns a :class:`SimEvent` that succeeds
        with the sojourn time at that same point.
        """
        if work_ghz_seconds <= 0 or not math.isfinite(work_ghz_seconds):
            raise ValueError(f"work must be finite and > 0, got {work_ghz_seconds}")
        self._advance()
        ev = None
        if on_done is None:
            token = ev = SimEvent(self.sim)
            on_done = SimEvent.succeed
        work = float(work_ghz_seconds)
        jobs = self._jobs
        n = len(jobs)
        rem = self._rem
        if n < _LIST_MAX:
            rem.append(work)
        else:
            if n == _LIST_MAX or n == rem.shape[0]:
                # Crossing the switch (rem is the full list) or out of
                # slots: move to an array twice the size.
                grown = np.empty(2 * n, dtype=np.float64)
                grown[:n] = rem
                self._rem = rem = grown
            rem[n] = work
        if work < self._min_rem:
            self._min_rem = work
        jobs.append((on_done, token, self.sim._now))
        self._rebook()
        return ev

    def reset_counters(self) -> None:
        """Zero the busy-time / work-done integrals (per-period stats)."""
        self._advance()
        self.busy_time = 0.0
        self.work_done = 0.0
        self.completed_jobs = 0

    def clear(self) -> None:
        """Forget every queued job without completing it (end of a run).

        The counterpart of :meth:`Simulator.clear`: a job's ``on_done``
        usually leads back to whatever owns this resource, so a queue
        left populated keeps a finished simulation alive as a reference
        cycle.
        """
        self._rem = []
        self._min_rem = _INF
        self._jobs = []
        self._timer.disarm()

    # -- internal machinery ------------------------------------------------

    def _advance(self) -> None:
        """Account for processing between the last update and now.

        ``rate * dt`` is loop-invariant, so one pass over the list (or
        one vectorized in-place subtract on the array) performs exactly
        the reference's per-job ``remaining -= rate * dt``; the cached
        min follows the same scalar subtraction, so the no-completion
        case needs no reduction.
        """
        now = self.sim._now
        dt = now - self._last_update
        self._last_update = now
        n = len(self._jobs)
        if dt <= 0 or not n:
            return
        cap = self._capacity
        dec = cap / n * dt
        self.busy_time += dt
        self.work_done += cap * dt
        if n <= _LIST_MAX:
            self._rem = [v - dec for v in self._rem]
        else:
            self._rem[:n] -= dec
        self._min_rem = min_rem = self._min_rem - dec
        if min_rem <= 1e-12:
            self._complete(now, n, min_rem)

    def _complete(self, now: float, n: int, min_rem: float) -> None:
        """Remove the jobs that just finished and report them.

        Finished jobs leave in slot (= arrival = the reference's
        dict-insertion) order; they are reported only after the queue
        state is consistent again, so callbacks observe — and may
        submit into — the post-completion queue.
        """
        rem = self._rem
        jobs = self._jobs
        if n <= _LIST_MAX:
            i = rem.index(min_rem)
            del rem[i]
            rest_min = min(rem) if rem else _INF
            if rest_min > 1e-12:
                # One finisher: everything stays in C.
                self._min_rem = rest_min
                self.completed_jobs += 1
                on_done, token, arrival = jobs.pop(i)
                on_done(token, now - arrival)
                return
            rem.insert(i, min_rem)
            finished = [job for v, job in zip(rem, jobs) if v <= 1e-12]
            jobs[:] = [job for v, job in zip(rem, jobs) if v > 1e-12]
            self._rem = rem = [v for v in rem if v > 1e-12]
            self._min_rem = min(rem) if rem else _INF
        else:
            active = rem[:n]
            done_idx = np.nonzero(active <= 1e-12)[0].tolist()
            finished = [jobs[j] for j in done_idx]
            for j in reversed(done_idx):
                del jobs[j]
            survivors = active[active > 1e-12]
            k = survivors.size
            if k <= _LIST_MAX:
                self._rem = survivors.tolist()
                self._min_rem = min(self._rem) if k else _INF
            else:
                rem[:k] = survivors
                self._min_rem = float(survivors.min())
        self.completed_jobs += len(finished)
        for on_done, token, arrival in finished:
            on_done(token, now - arrival)

    def _rebook(self) -> None:
        """Point the completion timer at the next finisher, if any."""
        n = len(self._jobs)
        cap = self._capacity
        if not n or cap <= 0:
            self._timer.disarm()
        else:
            # A NaN capacity gets here and is rejected by arm().
            min_rem = self._min_rem
            self._timer.arm((min_rem if min_rem > 0.0 else 0.0) * n / cap)

    def _on_completion(self) -> None:
        self._advance()
        self._rebook()


class _FCFSJob:
    __slots__ = ("work", "done_event", "arrival_time")

    def __init__(self, work: float, done_event: SimEvent, arrival_time: float):
        self.work = work
        self.done_event = done_event
        self.arrival_time = arrival_time


class FCFSResource:
    """Single-server first-come-first-served queue (work in GHz-seconds).

    A capacity change takes effect immediately, including for the job in
    service (its remaining work is served at the new rate).
    """

    __slots__ = (
        "sim",
        "_capacity",
        "_queue",
        "_current",
        "_current_remaining",
        "_timer",
        "_last_update",
        "busy_time",
        "work_done",
        "completed_jobs",
    )

    def __init__(self, sim: Simulator, capacity_ghz: float):
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self.sim = sim
        self._capacity = float(capacity_ghz)
        self._queue: List[_FCFSJob] = []
        self._current: Optional[_FCFSJob] = None
        self._current_remaining = 0.0
        self._timer = sim.timer(self._on_completion)
        self._last_update = sim.now
        self.busy_time = 0.0
        self.work_done = 0.0
        self.completed_jobs = 0

    @property
    def capacity_ghz(self) -> float:
        """Current service capacity in GHz."""
        return self._capacity

    @property
    def queue_length(self) -> int:
        """Jobs waiting plus the one in service."""
        return len(self._queue) + (1 if self._current is not None else 0)

    def set_capacity(self, capacity_ghz: float) -> None:
        """Change the service rate, affecting the in-service job too."""
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self._advance()
        self._capacity = float(capacity_ghz)
        self._rebook()

    def submit(self, work_ghz_seconds: float) -> SimEvent:
        """Enqueue a job; returns its completion event (value = sojourn)."""
        if work_ghz_seconds <= 0 or not math.isfinite(work_ghz_seconds):
            raise ValueError(f"work must be finite and > 0, got {work_ghz_seconds}")
        self._advance()
        ev = self.sim.event()
        job = _FCFSJob(float(work_ghz_seconds), ev, self.sim.now)
        self._queue.append(job)
        if self._current is None:
            self._start_next()
        return ev

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or self._current is None:
            return
        self.busy_time += dt
        processed = self._capacity * dt
        self.work_done += processed
        self._current_remaining -= processed

    def _start_next(self) -> None:
        if not self._queue:
            return
        self._current = self._queue.pop(0)
        self._current_remaining = self._current.work
        self._rebook()

    def _rebook(self) -> None:
        if self._current is None or self._capacity <= 0:
            self._timer.disarm()
        else:
            self._timer.arm(max(self._current_remaining, 0.0) / self._capacity)

    def _on_completion(self) -> None:
        self._advance()
        job = self._current
        self._current = None
        if job is not None:
            self.completed_jobs += 1
            job.done_event.succeed(self.sim.now - job.arrival_time)
        self._start_next()
