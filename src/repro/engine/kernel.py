"""The unified control-plane kernel.

One :class:`ControlPlane` engine drives every harness in the repository:
the simulated hardware testbed (:mod:`repro.engine.testbed_backend`),
the trace-driven large-scale simulation
(:mod:`repro.engine.largescale_backend`, sharded or not), and any
scenario registered with :mod:`repro.engine.scenario`.  A backend
contributes an ordered list of named :class:`Phase` objects — sensing,
sysid, control, arbitration, optimizer epochs, actuation, fault
injection, telemetry flush — and the kernel advances them period by
period, owning the clock, the run loop, and checkpoint/resume.

Determinism contract
--------------------
The kernel adds **no** stochasticity, and the only telemetry it emits
of its own is *profiling spans*: with telemetry enabled, every phase of
every period runs inside a ``phase.<name>`` span annotated with CPU
time and allocation deltas (``repro obs profile`` aggregates them).
Span records are excluded from the golden event-log hashes, so a
kernel-driven run still hashes byte-identical to the legacy hand-wired
loops it replaced (pinned in ``tests/test_engine.py`` and
``tests/test_perf_fastpath.py``); with telemetry disabled the loop is
the bare ``phase.run(ctx)`` — no clock reads, no allocation.

Checkpoint / resume
-------------------
``checkpoint()`` writes the kernel cursor plus the
:class:`~repro.engine.interfaces.Checkpointable` snapshot of every
registered component to a JSON-safe document.  Every backend resumes
the same way: ``restore()`` replays the prefix on a freshly built
engine with telemetry muted (computation is bit-identical, only
emission differs), then hands each component its snapshot, which the
component *verifies* against its replayed state and never loads — so a
resumed run finishes bit-identical to an uninterrupted one, and a
checkpoint from another trace, config or seed is refused.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.engine.interfaces import Checkpointable, EnginePhase, PlantBackend
from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.util.validation import check_positive

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "ControlPlane",
    "PeriodContext",
    "Phase",
    "run_session",
]

logger = logging.getLogger(__name__)

#: Version tag written into every checkpoint document.
CHECKPOINT_SCHEMA = 1

#: Canonical phase vocabulary, in the order the paper's two-level
#: architecture composes them.  Backends may use a subset and may
#: reorder (e.g. fault transitions land before sensing in both
#: simulated harnesses because a crashed server cannot be measured),
#: but every phase name must come from this set so scenario tooling and
#: docs can describe any engine uniformly.
PHASE_NAMES: Tuple[str, ...] = (
    "faults",
    "sense",
    "sysid",
    "control",
    "arbitrate",
    "optimize",
    "actuate",
    "telemetry",
)


class CheckpointError(ValueError):
    """A checkpoint document is malformed or incompatible."""


@dataclass
class PeriodContext:
    """Mutable per-period scratch state threaded through the phases.

    ``measurements`` / ``usages`` are filled by the sensing phase and
    consumed by control; ``data`` is backend-private scratch (e.g. the
    large-scale plant parks the period's demand vector there).
    """

    k: int
    time_s: float
    period_s: float
    measurements: Dict[str, float] = field(default_factory=dict)
    usages: Dict[str, Any] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Phase:
    """One named step of the per-period pipeline."""

    name: str
    run: EnginePhase

    def __post_init__(self):
        if self.name not in PHASE_NAMES:
            raise ValueError(
                f"unknown phase name {self.name!r}; must be one of {PHASE_NAMES}"
            )
        if not callable(self.run):
            raise TypeError(f"phase {self.name!r} is not callable")


class ControlPlane:
    """The engine: a clock, an ordered phase pipeline, and a cursor.

    Parameters
    ----------
    period_s:
        Control-period length (simulated seconds).
    n_periods:
        Total periods in the run.
    phases:
        Ordered :class:`Phase` pipeline executed once per period.
    checkpointables:
        Named components implementing
        :class:`~repro.engine.interfaces.Checkpointable` whose snapshots
        :meth:`checkpoint` writes and :meth:`restore` verifies.
    name:
        Engine label used in checkpoints and logs; restore refuses a
        checkpoint taken from a differently named engine.
    """

    def __init__(
        self,
        period_s: float,
        n_periods: int,
        phases: Iterable[Phase],
        checkpointables: Optional[Mapping[str, Checkpointable]] = None,
        name: str = "engine",
    ):
        check_positive("period_s", period_s)
        if n_periods < 0:
            raise ValueError(f"n_periods must be >= 0, got {n_periods}")
        self.period_s = float(period_s)
        self.n_periods = int(n_periods)
        self.phases: List[Phase] = list(phases)
        if not self.phases:
            raise ValueError("an engine needs at least one phase")
        seen = set()
        for ph in self.phases:
            if ph.name in seen:
                raise ValueError(f"duplicate phase {ph.name!r}")
            seen.add(ph.name)
        self.name = str(name)
        self._checkpointables: Dict[str, Checkpointable] = dict(checkpointables or {})
        for cname, comp in self._checkpointables.items():
            if not isinstance(comp, Checkpointable):
                raise TypeError(
                    f"component {cname!r} does not implement state_dict/"
                    "load_state_dict"
                )
        self.k = 0  # next period to execute

    @classmethod
    def for_backend(cls, backend: Any, name: str) -> "ControlPlane":
        """The engine of one backend (a :class:`PlantBackend` that is
        also :class:`Checkpointable`): its timing, its phases, and the
        backend itself as the checkpointed ``"plant"`` component."""
        return cls(
            period_s=backend.period_s,
            n_periods=backend.n_periods,
            phases=backend.phases(),
            checkpointables={"plant": backend},
            name=name,
        )

    # -- stepping ------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every period has been executed."""
        return self.k >= self.n_periods

    @property
    def time_s(self) -> float:
        """Simulated start time of the next period."""
        return self.k * self.period_s

    def step(self) -> PeriodContext:
        """Advance exactly one control period through all phases."""
        if self.finished:
            raise RuntimeError(
                f"engine {self.name!r} already ran all {self.n_periods} periods"
            )
        ctx = PeriodContext(k=self.k, time_s=self.time_s, period_s=self.period_s)
        tel = get_telemetry()
        if tel.enabled:
            for phase in self.phases:
                with tel.span(f"phase.{phase.name}", k=ctx.k) as sp:
                    cpu0 = time.process_time()
                    alloc0 = sys.getallocatedblocks()
                    phase.run(ctx)
                    sp.annotate(
                        cpu_s=time.process_time() - cpu0,
                        alloc_blocks=sys.getallocatedblocks() - alloc0,
                    )
        else:
            for phase in self.phases:
                phase.run(ctx)
        self.k += 1
        return ctx

    def run(
        self,
        until_period: Optional[int] = None,
        on_period: Optional[
            Callable[["ControlPlane", PeriodContext], Optional[bool]]
        ] = None,
    ) -> int:
        """Run to completion (or to *until_period*, exclusive).

        ``on_period(engine, ctx)`` — when given — is called after every
        completed period; returning ``False`` stops the run early (any
        other return value, including ``None``, continues).  The
        experiment runner uses the hook for periodic checkpointing and
        cooperative cancellation; it runs outside the phase spans, so it
        never perturbs profiling or the golden event logs.

        Returns the number of periods executed by this call.
        """
        end = self.n_periods if until_period is None else min(
            int(until_period), self.n_periods
        )
        executed = 0
        while self.k < end:
            ctx = self.step()
            executed += 1
            if on_period is not None and on_period(self, ctx) is False:
                break
        return executed

    # -- checkpoint / resume -------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Serialize the cursor plus every component's state."""
        return {
            "schema": CHECKPOINT_SCHEMA,
            "engine": {
                "name": self.name,
                "period": self.k,
                "period_s": self.period_s,
                "n_periods": self.n_periods,
            },
            "components": {
                cname: comp.state_dict()
                for cname, comp in self._checkpointables.items()
            },
        }

    def save_checkpoint(self, path: str) -> None:
        """Write :meth:`checkpoint` to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.checkpoint(), fh, indent=2)
            fh.write("\n")

    def restore(self, doc: Mapping[str, Any]) -> None:
        """Resume this freshly built engine at a checkpoint's period.

        The prefix is replayed with telemetry muted; a component with a
        ``prepare_replay(telemetry)`` hook gets it first, muted, with the
        caller's telemetry (the scope the resumed suffix emits into).
        Each component's ``load_state_dict`` then verifies its replayed
        state against the checkpoint's snapshot.
        """
        try:
            schema = doc["schema"]
            header = doc["engine"]
            components = doc["components"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"malformed checkpoint: missing {exc}") from None
        if schema != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {schema!r} != supported {CHECKPOINT_SCHEMA}"
            )
        if not isinstance(header, dict) or not isinstance(components, dict):
            raise CheckpointError(
                "malformed checkpoint: engine and components must be objects"
            )
        if header.get("name") != self.name:
            raise CheckpointError(
                f"checkpoint was taken from engine {header.get('name')!r}, "
                f"this engine is {self.name!r}"
            )
        if (
            header.get("period_s") != self.period_s
            or header.get("n_periods") != self.n_periods
        ):
            raise CheckpointError(
                "checkpoint timing does not match this engine "
                f"({header.get('period_s')}s x {header.get('n_periods')} vs "
                f"{self.period_s}s x {self.n_periods})"
            )
        period = header.get("period")
        if not isinstance(period, int) or isinstance(period, bool):
            raise CheckpointError(f"checkpoint period {period!r} is not an integer")
        if not 0 <= period <= self.n_periods:
            raise CheckpointError(f"checkpoint period {period} out of range")
        missing = set(components) - set(self._checkpointables)
        if missing:
            raise CheckpointError(
                f"checkpoint carries unknown components {sorted(missing)}"
            )
        for cname in self._checkpointables:
            if cname not in components:
                raise CheckpointError(f"checkpoint lacks component {cname!r}")
        if self.k != 0:
            raise CheckpointError(
                "resume needs a freshly built engine (cursor at 0), "
                f"this one is at period {self.k}"
            )
        caller = set_telemetry(Telemetry())
        try:
            for comp in self._checkpointables.values():
                hook = getattr(comp, "prepare_replay", None)
                if hook is not None:
                    hook(caller)
            self.run(until_period=period)
        finally:
            set_telemetry(caller)
        for cname, comp in self._checkpointables.items():
            comp.load_state_dict(components[cname])
        logger.info(
            "engine %s restored at period %d/%d", self.name, self.k, self.n_periods
        )

    @staticmethod
    def load_checkpoint(path: str) -> Dict[str, Any]:
        """Read a checkpoint JSON document from *path*."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CheckpointError(f"{path} does not contain a checkpoint object")
        return doc


@contextlib.contextmanager
def run_session(
    engine: ControlPlane,
    backend: PlantBackend,
    resume: Optional[Mapping[str, Any]] = None,
) -> Iterator[None]:
    """The one place a run is sequenced: begin it, yield, close the backend.

    A fresh run begins with ``backend.start()``; given a checkpoint
    document (*resume*) it begins with ``engine.restore(resume)``
    instead.  The body steps the engine and reads ``backend.result()``;
    ``backend.close()`` runs on every way out — completion, an early
    return, an exception, a failed restore — so a backend that owns
    worker processes never leaves them to a finalizer.  A context
    manager rather than a run-to-completion function because a driver
    may stop early and checkpoint *before* the backend is closed.
    """
    try:
        if resume is not None:
            engine.restore(resume)
        else:
            backend.start()
        yield
    finally:
        backend.close()
