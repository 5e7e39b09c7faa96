"""Typed component interfaces of the control-plane kernel.

Three shapes cover everything the kernel
(:mod:`repro.engine.kernel`) and its drivers depend on:

=================  ====================================================
protocol            responsibility
=================  ====================================================
PlantBackend        the simulated (or, later, real) plant a scenario
                    runs against: phases + the run lifecycle
Checkpointable      snapshot state to a JSON-safe dict; verify a
                    replayed run against one
EnginePhase         the uniform callable shape the kernel actually runs
=================  ====================================================

The protocols are :func:`typing.runtime_checkable`: the kernel checks
``Checkpointable`` on every registered component at construction time,
and ``mypy`` checks the backends structurally (the CI runs
``mypy src/repro/engine/``).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    Protocol,
    TYPE_CHECKING,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.kernel import PeriodContext

__all__ = ["Checkpointable", "EnginePhase", "PlantBackend"]


# The uniform shape of one engine phase: a callable the kernel invokes
# once per control period with the running :class:`PeriodContext`.
EnginePhase = Callable[["PeriodContext"], None]


@runtime_checkable
class Checkpointable(Protocol):
    """A component the kernel can checkpoint and resume.

    Every resume replays the checkpoint's prefix
    (:meth:`~repro.engine.kernel.ControlPlane.restore`), so a component
    never loads state.  ``state_dict`` returns a snapshot of only
    JSON-serializable values (dicts, lists, strings, ints, floats,
    bools, None); after the replay, ``load_state_dict`` *verifies* the
    component's replayed state against the checkpoint's snapshot and
    raises :class:`~repro.engine.kernel.CheckpointError` on any
    difference (:func:`repro.engine.checkpoint.verify_snapshot`).
    """

    def state_dict(self) -> Dict[str, Any]: ...

    def load_state_dict(self, state: Mapping[str, Any]) -> None: ...


@runtime_checkable
class PlantBackend(Protocol):
    """The plant a scenario runs against, and its run lifecycle.

    A plant contributes the per-period ``phases()`` the kernel executes
    and brackets the run: ``start()`` once before the first period of a
    fresh run (run header, warm-up), ``result()`` once after the last,
    ``close()`` to release whatever the backend owns (idempotent; a
    no-op unless the backend holds pods or worker processes).
    :func:`repro.engine.kernel.run_session` sequences the three; no
    driver calls ``start``/``close`` itself.  Implementations: the
    request-level DES testbed plant
    (:class:`repro.engine.testbed_backend.TestbedBackend`), the
    vectorized trace-driven plant
    (:class:`repro.engine.largescale_backend.LargeScaleBackend`) and its
    pod-partitioned composition
    (:class:`repro.engine.sharded_backend.ShardedBackend`).  A
    real-hardware backend would satisfy the same protocol.
    """

    @property
    def n_periods(self) -> int: ...

    @property
    def period_s(self) -> float: ...

    def phases(self) -> Any: ...

    def start(self) -> None: ...

    def result(self) -> Any: ...

    def close(self) -> None: ...
