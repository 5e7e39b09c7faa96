"""Reference (pre-fast-lane) DES kernel, preserved verbatim.

The optimized kernel in :mod:`tests.oracles.des` reorganizes the event
queue (batched dispatch, lazy-cancel compaction) and the
processor-sharing bookkeeping (slot arrays instead of per-job objects)
while keeping every floating-point operation in the same order — its
results are **bit-identical** to this module's.  This module keeps the
original, obviously-correct implementations around as a differential
oracle: the equivalence property tests in
``tests/test_des_equivalence.py`` drive random workloads through both
kernels and assert bitwise-equal departure times, counters, and event
logs.  It is also the exact processor-sharing baseline any approximate
plant can be bounded against.

Nothing here should be "improved" — it is the frozen baseline.  The
classes subclass / interoperate with :mod:`tests.oracles.des` types
(:class:`~tests.oracles.des.SimEvent`, :class:`~tests.oracles.des.EventHandle`)
so application code is kernel-agnostic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.obs import get_telemetry
from tests.oracles.des import EventHandle, SimEvent, Simulator

__all__ = ["ReferenceSimulator", "ReferencePSResource"]


class ReferenceSimulator(Simulator):
    """The original event loop: ``peek``/``step`` calls per event, no
    heap compaction (cancelled handles linger until popped)."""

    def _maybe_compact(self) -> None:  # original behavior: never
        pass

    def run_until(self, until: float) -> None:
        """Original per-event loop (one ``peek`` + ``step`` call each)."""
        if until < self._now:
            raise ValueError(f"cannot run backwards to {until} from {self._now}")
        tel = get_telemetry()
        if not tel.enabled:
            while True:
                nxt = self.peek()
                if nxt > until:
                    break
                self.step()
            self._now = until
            return
        with tel.span("des.run_until", until=until) as sp:
            n_events = 0
            while True:
                nxt = self.peek()
                if nxt > until:
                    break
                self.step()
                n_events += 1
            self._now = until
            sp.annotate(events=n_events)
        tel.count("des.events", n_events)


class _PSJob:
    __slots__ = ("job_id", "remaining", "done_event", "arrival_time")

    def __init__(self, job_id: int, remaining: float, done_event: SimEvent, arrival_time: float):
        self.job_id = job_id
        self.remaining = remaining  # remaining work in GHz-seconds (gigacycles)
        self.done_event = done_event
        self.arrival_time = arrival_time


class ReferencePSResource:
    """Original egalitarian PS queue: one ``_PSJob`` object per request,
    a full per-job rescan in ``_advance``, dict bookkeeping.

    Semantics are documented on the optimized
    :class:`tests.oracles.des.PSResource`; the two must stay bit-identical.
    """

    __slots__ = (
        "sim",
        "_capacity",
        "_nominal",
        "_degrade_fraction",
        "_jobs",
        "_next_id",
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
        self._nominal = float(capacity_ghz)
        self._degrade_fraction = 1.0
        self._jobs: Dict[int, _PSJob] = {}
        self._next_id = 0
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
        return len(self._jobs)

    def set_capacity(self, capacity_ghz: float) -> None:
        """Change capacity; in-flight jobs keep their remaining work."""
        if capacity_ghz < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_ghz}")
        self._advance()
        self._nominal = float(capacity_ghz)
        self._capacity = self._nominal * self._degrade_fraction
        self._reschedule()

    def degrade(self, fraction: float) -> None:
        """Deliver only *fraction* of the nominal capacity."""
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
        self._next_id += 1
        ev = self.sim.event()
        job = _PSJob(self._next_id, float(work_ghz_seconds), ev, self.sim.now)
        self._jobs[job.job_id] = job
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
        """Account for processing between the last update and now."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._jobs:
            return
        n = len(self._jobs)
        rate = self._capacity / n
        self.busy_time += dt
        self.work_done += self._capacity * dt
        eps = 1e-12
        finished: List[_PSJob] = []
        for job in self._jobs.values():
            job.remaining -= rate * dt
            if job.remaining <= eps:
                finished.append(job)
        for job in finished:
            del self._jobs[job.job_id]
            self.completed_jobs += 1
            job.done_event.succeed(now - job.arrival_time)

    def _reschedule(self) -> None:
        """(Re)book the next completion event from current state."""
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if not self._jobs or self._capacity <= 0:
            return
        n = len(self._jobs)
        min_remaining = min(job.remaining for job in self._jobs.values())
        delay = max(min_remaining, 0.0) * n / self._capacity
        self._completion = self.sim.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        self._reschedule()
