"""The long-running control-plane service.

Layers (mirroring the SimCash api/experiments/persistence split):

* :mod:`repro.service.store` — the persistence layer: a SQLite results
  store (WAL mode, schema-versioned migrations, typed query helpers)
  holding runs, scenario specs, checkpoints, result summaries, and
  audit reports;
* :mod:`repro.service.sweep` — grid-sweep expansion: parameter
  overrides over a base :class:`~repro.engine.scenario.ScenarioSpec`,
  expanded into one job per configuration;
* :mod:`repro.service.runner` — the experiment runner: a worker pool
  that claims queued jobs from the store, executes each through the
  :class:`~repro.engine.kernel.ControlPlane` kernel with periodic
  checkpointing, audits the finished event log, and resumes interrupted
  jobs after a crash or restart to bit-identical final hashes;
* :mod:`repro.service.api` — a thin stdlib HTTP API (submit a spec or a
  sweep, poll status, stream/follow telemetry, fetch results and audit
  reports, cancel, Prometheus ``/metrics``);
* :mod:`repro.service.cli` — the ``repro serve`` subcommand
  (``start`` / ``submit`` / ``status`` / ``results`` / ``sweep``) with
  graceful SIGTERM shutdown that checkpoints in-flight runs.

See ``docs/SERVICE.md`` for the API reference, the sweep spec format,
and the persistence schema.
"""

from repro.service.runner import ExperimentRunner, RunnerConfig, eventlog_hash
from repro.service.store import (
    AuditRow,
    CheckpointRow,
    ResultsStore,
    RunRow,
    StoreError,
    SweepRow,
)
from repro.service.sweep import SweepError, expand_grid

__all__ = [
    "AuditRow",
    "CheckpointRow",
    "ExperimentRunner",
    "ResultsStore",
    "RunRow",
    "RunnerConfig",
    "StoreError",
    "SweepError",
    "SweepRow",
    "eventlog_hash",
    "expand_grid",
]
