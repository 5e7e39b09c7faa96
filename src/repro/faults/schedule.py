"""Deterministic, seeded fault schedules.

A :class:`FaultSchedule` is an immutable, time-ordered list of
:class:`~repro.faults.models.FaultEvent` plus the seed that drives every
stochastic choice made while the schedule is active (which migration
fails, which sample drops).  Two runs with the same schedule therefore
produce byte-identical event logs — the reproducibility guarantee chaos
experiments need to be debuggable.

Schedules come from one of two places:

* a **declarative scenario spec** — a JSON/dict document listing events
  (:meth:`FaultSchedule.from_spec` / :meth:`FaultSchedule.from_json`);
* a **seeded random process** — :meth:`FaultSchedule.random` draws
  Poisson fault arrivals over a horizon from an explicit seed.

:class:`FaultTimeline` linearizes a schedule into begin/end transitions
so harnesses can replay it with a single cursor, whatever their control
period.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Collection, Dict, List, Sequence, Tuple

import numpy as np

from repro.faults.models import (
    FAULT_KINDS,
    SENSOR_KINDS,
    SERVER_KINDS,
    FaultEvent,
    FaultSpecError,
)

__all__ = ["FaultSchedule", "FaultTimeline", "validate_spec"]

_EVENT_FIELDS = {
    "time_s", "kind", "target", "duration_s", "fraction", "probability", "sigma_ms",
}


def _event_from_spec(entry: dict, index: int) -> FaultEvent:
    if not isinstance(entry, dict):
        raise FaultSpecError(f"events[{index}] must be an object, got {type(entry).__name__}")
    unknown = set(entry) - _EVENT_FIELDS
    if unknown:
        raise FaultSpecError(f"events[{index}] has unknown fields {sorted(unknown)}")
    if "time_s" not in entry or "kind" not in entry:
        raise FaultSpecError(f"events[{index}] needs at least time_s and kind")
    try:
        return FaultEvent(**entry)
    except FaultSpecError as exc:
        raise FaultSpecError(f"events[{index}]: {exc}") from None
    except TypeError as exc:
        raise FaultSpecError(f"events[{index}]: {exc}") from None


def validate_spec(spec: dict) -> List[str]:
    """Collect every problem in a scenario spec (empty list = valid).

    Unlike :meth:`FaultSchedule.from_spec`, which raises on the first
    error, this walks the whole document so a scenario author sees all
    mistakes at once (the ``repro faults validate`` command).
    """
    problems: List[str] = []
    if not isinstance(spec, dict):
        return [f"spec must be an object, got {type(spec).__name__}"]
    unknown = set(spec) - {"seed", "events"}
    if unknown:
        problems.append(f"unknown top-level fields {sorted(unknown)}")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"seed must be an integer, got {seed!r}")
    events = spec.get("events", [])
    if not isinstance(events, list):
        return problems + [f"events must be a list, got {type(events).__name__}"]
    crashed: Dict[str, float] = {}
    for i, entry in enumerate(events):
        try:
            ev = _event_from_spec(entry, i)
        except FaultSpecError as exc:
            problems.append(str(exc))
            continue
        if ev.kind == "server_crash":
            crashed[ev.target] = ev.end_time_s if ev.end_time_s is not None else np.inf
        elif ev.kind == "server_recovery":
            if ev.target not in crashed:
                problems.append(
                    f"events[{i}]: server_recovery for {ev.target!r} without a "
                    "preceding server_crash"
                )
            else:
                del crashed[ev.target]
    return problems


@dataclass(frozen=True)
class FaultSchedule:
    """A time-ordered tuple of fault events plus the chaos seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self):
        ordered = tuple(
            sorted(self.events, key=lambda ev: (ev.time_s, FAULT_KINDS.index(ev.kind)))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An empty schedule still carries a seed; "no faults configured"
        # is the natural falsy meaning for harness guards.
        return bool(self.events)

    # -- what a plant can apply ------------------------------------------

    def check_server_targets(self, server_ids: Collection[str]) -> None:
        """Refuse a crash, recovery or throttle whose target names no
        server in *server_ids* (raises :class:`FaultSpecError`)."""
        for ev in self.events:
            if ev.kind in SERVER_KINDS and ev.target not in server_ids:
                raise FaultSpecError(
                    f"{ev.kind} at t={ev.time_s:g}s targets {ev.target!r}, "
                    "which names no server of the plant"
                )

    def check_no_sensor_faults(self, harness: str) -> None:
        """Refuse sensor faults on a *harness* without a response-time
        sensor (raises :class:`FaultSpecError`)."""
        for ev in self.events:
            if ev.kind in SENSOR_KINDS:
                raise FaultSpecError(
                    f"{ev.kind} at t={ev.time_s:g}s: the {harness} harness "
                    "has no response-time sensor"
                )

    # -- construction --------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultSchedule":
        """Build a schedule from a declarative scenario document.

        ``{"seed": 7, "events": [{"time_s": 120, "kind": "server_crash",
        "target": "T1", "duration_s": 300}, ...]}``
        """
        problems = validate_spec(spec)
        if problems:
            raise FaultSpecError("; ".join(problems))
        events = tuple(
            _event_from_spec(entry, i) for i, entry in enumerate(spec.get("events", []))
        )
        return cls(events=events, seed=int(spec.get("seed", 0)))

    @classmethod
    def from_json(cls, path: str) -> "FaultSchedule":
        """Load a scenario spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FaultSpecError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_spec(spec)

    @classmethod
    def random(
        cls,
        horizon_s: float,
        server_ids: Sequence[str],
        app_ids: Sequence[str] = (),
        seed: int = 0,
        crash_rate_per_hour: float = 0.5,
        throttle_rate_per_hour: float = 0.5,
        sensor_rate_per_hour: float = 0.0,
        mean_duration_s: float = 600.0,
    ) -> "FaultSchedule":
        """Draw a reproducible random scenario from *seed*.

        Each fault class arrives as an independent Poisson process over
        ``[0, horizon_s)``; targets are drawn uniformly and durations
        exponentially (mean ``mean_duration_s``).  The same arguments
        always produce the same schedule.
        """
        if horizon_s <= 0:
            raise FaultSpecError(f"horizon_s must be > 0, got {horizon_s}")
        if not server_ids:
            raise FaultSpecError("random schedule needs at least one server id")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        hours = horizon_s / 3600.0

        def _arrivals(rate_per_hour: float) -> List[float]:
            n = int(rng.poisson(rate_per_hour * hours))
            return sorted(float(t) for t in rng.uniform(0.0, horizon_s, size=n))

        for t in _arrivals(crash_rate_per_hour):
            events.append(
                FaultEvent(
                    time_s=t,
                    kind="server_crash",
                    target=str(rng.choice(list(server_ids))),
                    duration_s=float(rng.exponential(mean_duration_s)) + 1.0,
                )
            )
        for t in _arrivals(throttle_rate_per_hour):
            events.append(
                FaultEvent(
                    time_s=t,
                    kind="thermal_throttle",
                    target=str(rng.choice(list(server_ids))),
                    duration_s=float(rng.exponential(mean_duration_s)) + 1.0,
                    fraction=float(rng.uniform(0.3, 0.8)),
                )
            )
        if app_ids:
            for t in _arrivals(sensor_rate_per_hour):
                events.append(
                    FaultEvent(
                        time_s=t,
                        kind="sensor_dropout",
                        target=str(rng.choice(list(app_ids))),
                        duration_s=float(rng.exponential(mean_duration_s)) + 1.0,
                        probability=float(rng.uniform(0.2, 1.0)),
                    )
                )
        return cls(events=tuple(events), seed=seed)

    # -- serialization -------------------------------------------------

    def to_spec(self) -> dict:
        """The declarative (JSON-friendly) form of the whole schedule."""
        return {"seed": self.seed, "events": [ev.to_spec() for ev in self.events]}

    def to_json(self, path: str) -> None:
        """Write the scenario spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_spec(), fh, indent=2)
            fh.write("\n")

    def cursor(self) -> "FaultTimeline":
        """A fresh replay cursor over this schedule's transitions."""
        return FaultTimeline(self)


@dataclass
class Transition:
    """One timeline step: a fault beginning or ending."""

    time_s: float
    phase: str  # "begin" | "end"
    event: FaultEvent


class FaultTimeline:
    """Linearized begin/end transitions of a schedule, with a cursor.

    Harnesses call :meth:`advance` once per control period; it returns
    every transition due since the previous call, in deterministic
    order (time, begins before ends at equal times are resolved by
    schedule position so that an instantaneous crash+recovery pair
    replays consistently).
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        transitions: List[Tuple[float, int, int, Transition]] = []
        for seq, ev in enumerate(schedule.events):
            transitions.append((ev.time_s, 0, seq, Transition(ev.time_s, "begin", ev)))
            if ev.end_time_s is not None:
                transitions.append(
                    (ev.end_time_s, 1, seq, Transition(ev.end_time_s, "end", ev))
                )
        transitions.sort(key=lambda t: (t[0], t[1], t[2]))
        self._transitions = [t[3] for t in transitions]
        self._next = 0

    @property
    def exhausted(self) -> bool:
        """True once every transition has been replayed."""
        return self._next >= len(self._transitions)

    def advance(self, now_s: float) -> List[Transition]:
        """All transitions with ``time_s <= now_s`` not yet returned."""
        due: List[Transition] = []
        while (
            self._next < len(self._transitions)
            and self._transitions[self._next].time_s <= now_s + 1e-9
        ):
            due.append(self._transitions[self._next])
            self._next += 1
        return due

    def remaining(self) -> List[Transition]:
        """Transitions not yet replayed (end-of-run cleanup/reporting)."""
        return list(self._transitions[self._next:])

    # -- checkpointing (engine resume) ---------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The cursor position (the schedule itself is config, not state),
        part of the snapshot a resumed run's replay is verified against."""
        return {"next": self._next, "n_transitions": len(self._transitions)}

