"""A small discrete-event simulation kernel.

This is the substrate under the request-level application simulator
(:mod:`repro.apps.rubbos`).  It provides:

* :class:`Simulator` — a monotonic clock plus a binary-heap event queue
  with cancellable handles and deterministic FIFO tie-breaking.
* :class:`SimEvent` — a one-shot event that processes can wait on.
* generator-based *processes* (``yield delay`` / ``yield SimEvent``),
  a miniature version of the SimPy model, for writing sequential logic
  such as closed-loop clients.
* :class:`PSResource` — an egalitarian processor-sharing queue whose
  service capacity (in GHz) can change at runtime; this models a VM's
  CPU under Xen-style credit caps.
* :class:`FCFSResource` — a single-server first-come-first-served queue,
  used for validation against M/M/1 theory.

Design notes
------------
The kernel is intentionally allocation-light: events are slotted objects
and the heap stores ``(time, seq, handle)`` tuples so ordering never
compares callbacks.  Cancelled events are skipped on pop (lazy deletion,
O(1) per cancel); the simulator counts pending cancellations and
compacts the heap when stale entries dominate, so repeated
cancel/reschedule patterns (every ``PSResource`` completion) cannot grow
the heap without bound.

``run_until`` dispatches events in an inlined batched loop — one heap
operation and one comparison per event, with same-timestamp runs
dispatched back-to-back without touching the clock — instead of paying
two method calls (``peek`` + ``step``) per event.  ``PSResource`` keeps
remaining work in a preallocated float64 slot array and advances all
jobs with one vectorized subtract instead of a per-job object rescan.

Both optimizations are **bit-identical** to the original kernel, which
is preserved as the test oracle ``tests/oracles/des_reference.py`` and
pinned by the equivalence property tests in
``tests/test_des_equivalence.py``: events
fire in the same (time, seq) order, and every floating-point operation
on job state happens with the same operands in the same order (the
vectorized ``rem -= rate*dt`` performs exactly the per-element IEEE-754
subtraction the reference's loop did).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Generator, List, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry

__all__ = [
    "Simulator",
    "EventHandle",
    "SimEvent",
    "Process",
    "PSResource",
    "FCFSResource",
]


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
        compact its heap once stale entries dominate.  Cancelling a
        handle that already fired can only over-count (an extra, cheap
        compaction pass), never corrupt the queue.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._n_cancelled += 1


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
    """Event queue + clock.  Times are floats in simulated seconds."""

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
        """Heap entries that are still scheduled to fire."""
        return len(self._heap) - self._n_cancelled

    def schedule(self, delay: float, fn: Callable, *args) -> EventHandle:
        """Run ``fn(*args)`` after *delay* seconds; returns a handle."""
        if delay < 0 or not math.isfinite(delay):
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
        """Drop every pending event; the clock stays where it is.

        For the end of a run.  A queued handle refers to this simulator
        and, through its callback, to the process or resource that
        booked it — which refer back here — so a finished simulation is
        one big reference cycle that only the cyclic collector frees.
        Emptying the handles as well as the queue lets reference
        counting free it as soon as the owner lets go.
        """
        for _, _, handle in self._heap:
            handle.cancelled = True
            handle.fn = handle.args = handle.sim = None
        self._heap.clear()
        self._n_cancelled = 0

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
        """Time of the next pending event, or ``inf`` if none."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._n_cancelled -= 1
        return heap[0][0] if heap else math.inf

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._n_cancelled -= 1
                continue
            self._now = time
            handle.fn(*handle.args)
            return True
        return False

    def run_until(self, until: float) -> None:
        """Process all events with time <= *until*, then set now=*until*.

        Advancing the clock to exactly *until* even when the last event is
        earlier makes fixed control periods line up across components.

        The dispatch loop is inlined (no per-event ``peek``/``step``
        method calls): one heappop and one boundary comparison per
        event, and a run of events sharing a timestamp is dispatched as
        a batch without re-touching the clock.  Order is exactly the
        reference kernel's (time, then schedule sequence).

        With telemetry enabled, each call is traced as one ``des.run_until``
        span annotated with the number of events it processed (the inner
        per-event loop stays uninstrumented, so disabled-mode overhead is
        one attribute check per call).
        """
        if until < self._now:
            raise ValueError(f"cannot run backwards to {until} from {self._now}")
        tel = get_telemetry()
        heap = self._heap
        pop = heapq.heappop
        if not tel.enabled:
            while heap and heap[0][0] <= until:
                time, _seq, handle = pop(heap)
                if handle.cancelled:
                    self._n_cancelled -= 1
                    continue
                self._now = time
                handle.fn(*handle.args)
                # Batch: drain the run of events at exactly this
                # timestamp (zero-delay cascades, simultaneous
                # completions) without re-checking the boundary.
                while heap and heap[0][0] == time:
                    _t, _s, handle = pop(heap)
                    if handle.cancelled:
                        self._n_cancelled -= 1
                    else:
                        handle.fn(*handle.args)
            self._now = until
            return
        with tel.span("des.run_until", until=until) as sp:
            n_events = 0
            while heap and heap[0][0] <= until:
                time, _seq, handle = pop(heap)
                if handle.cancelled:
                    self._n_cancelled -= 1
                    continue
                self._now = time
                handle.fn(*handle.args)
                n_events += 1
                while heap and heap[0][0] == time:
                    _t, _s, handle = pop(heap)
                    if handle.cancelled:
                        self._n_cancelled -= 1
                    else:
                        handle.fn(*handle.args)
                        n_events += 1
            self._now = until
            sp.annotate(events=n_events)
        tel.count("des.events", n_events)

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue, optionally stopping at *until*."""
        if until is not None:
            self.run_until(until)
            return
        while self.step():
            pass


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

    Job state lives in a preallocated float64 slot array (remaining
    work) plus parallel arrival/event lists, in arrival order — no
    per-job objects, no dict churn.  ``_advance`` applies the elapsed
    share to every job with one vectorized subtract; in the common case
    (nothing finished) it allocates nothing.  Results are bit-identical
    to the per-job reference implementation
    (``ReferencePSResource`` in ``tests/oracles/des_reference.py``): the
    subtraction, the ``1e-12`` completion threshold, the
    insertion-order completion sweep, and the min-remaining reschedule
    all perform the same IEEE-754 operations in the same order.
    """

    __slots__ = (
        "sim",
        "_capacity",
        "_nominal",
        "_degrade_fraction",
        "_rem",
        "_min_rem",
        "_events",
        "_arrivals",
        "_n",
        "_completion",
        "_last_update",
        "busy_time",
        "work_done",
        "completed_jobs",
    )

    _INITIAL_SLOTS = 16

    def __init__(self, sim: Simulator, capacity_ghz: float):
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self.sim = sim
        self._capacity = float(capacity_ghz)
        self._nominal = float(capacity_ghz)
        self._degrade_fraction = 1.0
        self._rem = np.empty(self._INITIAL_SLOTS, dtype=np.float64)
        # Cached min of _rem[:_n] (inf when idle).  Subtracting the
        # common share decrement preserves element order under IEEE-754
        # rounding (x <= y implies fl(x-d) <= fl(y-d)), so the cache
        # follows the exact same operation sequence as the min element
        # and stays bitwise equal to _rem[:_n].min() — making the common
        # no-completion advance O(1) beyond the vectorized subtract.
        self._min_rem = math.inf
        self._events: List[SimEvent] = []
        self._arrivals: List[float] = []
        self._n = 0
        self._completion: Optional[EventHandle] = None
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
        return self._n

    def set_capacity(self, capacity_ghz: float) -> None:
        """Change capacity; in-flight jobs keep their remaining work."""
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self._advance()
        self._nominal = float(capacity_ghz)
        self._capacity = self._nominal * self._degrade_fraction
        self._reschedule()

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
        self._reschedule()

    def restore(self) -> None:
        """Lift any degradation: effective capacity returns to nominal."""
        self.degrade(1.0)

    def submit(self, work_ghz_seconds: float) -> SimEvent:
        """Add a job of the given size; returns its completion event."""
        if work_ghz_seconds <= 0 or not math.isfinite(work_ghz_seconds):
            raise ValueError(f"work must be finite and > 0, got {work_ghz_seconds}")
        self._advance()
        ev = self.sim.event()
        n = self._n
        rem = self._rem
        if n == rem.shape[0]:
            grown = np.empty(2 * n, dtype=np.float64)
            grown[:n] = rem
            self._rem = rem = grown
        work = float(work_ghz_seconds)
        rem[n] = work
        if work < self._min_rem:
            self._min_rem = work
        self._events.append(ev)
        self._arrivals.append(self.sim.now)
        self._n = n + 1
        self._reschedule()
        return ev

    def reset_counters(self) -> None:
        """Zero the busy-time / work-done integrals (per-period stats)."""
        self._advance()
        self.busy_time = 0.0
        self.work_done = 0.0
        self.completed_jobs = 0

    # -- internal machinery ------------------------------------------------

    def _advance(self) -> None:
        """Account for processing between the last update and now.

        ``rate * dt`` is loop-invariant, so one vectorized in-place
        subtract performs exactly the reference's per-job
        ``remaining -= rate * dt``; the cached min follows the same
        scalar subtraction, so the no-completion case needs no
        reduction.  Finished jobs are swept in slot (= arrival =
        dict-insertion) order, matching the reference's completion
        order; their events fire only after the arrays are compacted,
        so callbacks observe the post-completion queue.
        """
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        n = self._n
        if dt <= 0 or not n:
            return
        cap = self._capacity
        dec = cap / n * dt
        self.busy_time += dt
        self.work_done += cap * dt
        rem = self._rem
        rem[:n] -= dec
        min_rem = self._min_rem - dec
        self._min_rem = min_rem
        if min_rem > 1e-12:
            return
        now_finished: List[Tuple[SimEvent, float]] = []
        events = self._events
        arrivals = self._arrivals
        if n <= 64:
            # Scalar sweep: below ~64 jobs, plain-Python iteration beats
            # numpy's per-call dispatch.  ``tolist`` round-trips float64
            # exactly, so values are unchanged bit for bit.
            keep_vals: List[float] = []
            keep_events: List[SimEvent] = []
            keep_arrivals: List[float] = []
            for i, v in enumerate(rem[:n].tolist()):
                if v <= 1e-12:
                    now_finished.append((events[i], arrivals[i]))
                else:
                    keep_vals.append(v)
                    keep_events.append(events[i])
                    keep_arrivals.append(arrivals[i])
            k = len(keep_vals)
            rem[:k] = keep_vals
            self._events = keep_events
            self._arrivals = keep_arrivals
            self._min_rem = min(keep_vals) if k else math.inf
        else:
            active = rem[:n]
            done_idx = np.nonzero(active <= 1e-12)[0]
            for i in done_idx:
                now_finished.append((events[i], arrivals[i]))
            survivors = active[active > 1e-12]
            k = survivors.size
            rem[:k] = survivors
            self._min_rem = float(survivors.min()) if k else math.inf
            for i in range(done_idx.size - 1, -1, -1):
                j = done_idx[i]
                del events[j]
                del arrivals[j]
        self._n = k
        self.completed_jobs += len(now_finished)
        for ev, arrival in now_finished:
            ev.succeed(now - arrival)

    def _reschedule(self) -> None:
        """(Re)book the next completion event from current state."""
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        n = self._n
        if not n or self._capacity <= 0:
            return
        delay = max(self._min_rem, 0.0) * n / self._capacity
        self._completion = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        self._reschedule()


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
        "_completion",
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
        self._completion: Optional[EventHandle] = None
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
        self._reschedule()

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
        self._reschedule()

    def _reschedule(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if self._current is None or self._capacity <= 0:
            return
        delay = max(self._current_remaining, 0.0) / self._capacity
        self._completion = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        job = self._current
        self._current = None
        if job is not None:
            self.completed_jobs += 1
            job.done_event.succeed(self.sim.now - job.arrival_time)
        self._start_next()
