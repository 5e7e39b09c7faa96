"""The experiment runner: a worker pool over the results store.

Workers claim queued runs from the :class:`~repro.service.store.ResultsStore`,
build the scenario's ``(engine, backend)`` pair, and drive the
:class:`~repro.engine.kernel.ControlPlane` kernel with a per-period
hook that

* writes a **checkpoint** (kernel document + event-log byte offset)
  into the store every ``checkpoint_every`` periods,
* honours **cancellation** requested through the store, and
* stops at a period boundary on **graceful shutdown**, checkpointing
  the in-flight run and putting it back in the queue.

Every run gets its own telemetry: a
:class:`~repro.obs.backends.JsonlBackend` event log under the data
directory, installed thread-locally so concurrent workers never mix
streams.  When a run finishes, the runner hashes the event log exactly
the way the golden-hash tests do (span and metrics records excluded),
stores a JSON result summary, and runs the
:mod:`repro.obs.audit` pipeline over the log, storing the report.

Crash recovery
--------------
On startup the runner requeues any run still marked ``running`` (the
residue of a SIGKILL or crash — this process owns every worker, so
nothing else can legitimately be running).  A requeued run with a
checkpoint resumes: the event log is **truncated to the offset the
checkpoint recorded** (discarding events from periods after the
snapshot, including any torn final line), the kernel replays the
prefix muted and verifies the checkpoint's snapshot (every backend
resumes this way), and the completed log hashes bit-identical to an
uninterrupted one-shot run (pinned in ``tests/test_service_runner.py``).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.engine.kernel import ControlPlane, PeriodContext, run_session
from repro.engine.scenario import ScenarioSpec
from repro.obs import (
    AuditConfig,
    JsonlBackend,
    RunLog,
    Telemetry,
    audit_run,
    read_jsonl_lenient,
    set_telemetry,
)
from repro.service.store import ResultsStore, RunRow

__all__ = [
    "ExperimentRunner",
    "RunnerConfig",
    "eventlog_hash",
    "eventlog_hash_records",
    "summarize_run_result",
]

logger = logging.getLogger(__name__)

#: Record kinds excluded from the golden event-log hash (profiling
#: spans and the closing metrics snapshot are not simulated behaviour).
HASH_EXCLUDED_KINDS = ("span", "metrics")


def eventlog_hash_records(records: Iterable[Mapping[str, Any]]) -> Tuple[str, int]:
    """``(sha256, n_events)`` over the non-span/metrics *records*.

    The one definition of the golden event-log hash: the tests pin it
    for in-memory runs and the service stores it for every finished
    run, so the two are directly comparable.
    """
    events = [r for r in records if r.get("kind") not in HASH_EXCLUDED_KINDS]
    digest = hashlib.sha256(
        json.dumps(events, sort_keys=True, default=str).encode()
    ).hexdigest()
    return digest, len(events)


def eventlog_hash(path: Union[str, Path]) -> Tuple[str, int]:
    """:func:`eventlog_hash_records` over a JSONL event log on disk."""
    return eventlog_hash_records(read_jsonl_lenient(path)[0])


def _jsonable(value: Any) -> Any:
    """Numpy scalars/arrays and mappings -> plain JSON values."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return value


def summarize_run_result(spec: ScenarioSpec, result: Any) -> Dict[str, Any]:
    """A compact JSON result summary for the store / HTTP API.

    Keeps the cross-harness headline numbers (energy, power, SLO
    tracking) and drops bulky series — the event log holds the full
    record stream for anything deeper.
    """
    if spec.harness == "testbed":
        recorder = result.recorder
        apps: Dict[str, Any] = {}
        for name in recorder.names():
            if name.startswith("rt/"):
                apps[name[len("rt/"):]] = recorder.summary(name)
        summary: Dict[str, Any] = {
            "harness": "testbed",
            "power_w": recorder.summary("power/total"),
            "rt_ms": apps,
            "sysid_r2": result.sysid_r2,
        }
        if result.attribution is not None:
            summary["attribution"] = result.attribution
        return _jsonable(summary)
    summary = {
        "harness": "largescale",
        "scheme": result.scheme,
        "n_vms": result.n_vms,
        "n_steps": result.n_steps,
        "step_s": result.step_s,
        "total_energy_wh": result.total_energy_wh,
        "energy_per_vm_wh": result.energy_per_vm_wh,
        "migrations": result.migrations,
        "mean_active_servers": result.mean_active_servers,
        "max_active_servers": result.max_active_servers,
        "overload_server_steps": result.overload_server_steps,
        "unplaced_vm_steps": result.unplaced_vm_steps,
        "info": dict(result.info),
    }
    if result.attribution is not None:
        summary["attribution"] = result.attribution
    return _jsonable(summary)


@dataclass(frozen=True)
class RunnerConfig:
    """Experiment-runner knobs.

    ``crash_after_checkpoints`` is deterministic crash injection for
    the resume tests: after that many checkpoints the worker dies
    mid-run *without* requeueing (exactly what a SIGKILL leaves
    behind), so kill-and-resume is testable without real signals.
    """

    data_dir: Union[str, Path] = "repro-service-data"
    workers: int = 2
    checkpoint_every: int = 5
    poll_interval_s: float = 0.2
    audit_violation_budget: float = 1.0
    crash_after_checkpoints: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )


class _HardStop(Exception):
    """Injected crash (``crash_after_checkpoints``): die without cleanup."""


class _Job:
    """Mutable per-run state shared between the loop and its hook."""

    def __init__(self, run: RunRow):
        self.run = run
        self.n_checkpoints = 0
        self.outcome: Optional[str] = None  # None=ran to completion


class ExperimentRunner:
    """Worker pool executing queued runs from a results store."""

    def __init__(self, store: ResultsStore, config: Optional[RunnerConfig] = None):
        self.store = store
        self.config = config or RunnerConfig()
        self.data_dir = Path(self.config.data_dir)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._graceful = True
        self._busy = 0
        self._busy_lock = threading.Lock()
        self.n_completed = 0
        self.n_resumed = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> int:
        """Recover stale runs and launch the worker threads.

        Returns the number of stale 'running' rows requeued.
        """
        if self._threads:
            raise RuntimeError("runner already started")
        self.data_dir.mkdir(parents=True, exist_ok=True)
        recovered = self.store.recover_stale_running()
        if recovered:
            logger.info("requeued %d interrupted run(s) for resume", recovered)
        self._stop.clear()
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(f"worker-{i}",),
                name=f"repro-runner-{i}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return recovered

    def stop(self, graceful: bool = True, timeout_s: float = 60.0) -> None:
        """Stop the workers.

        ``graceful`` (default) lets each in-flight run reach its next
        period boundary, checkpoints it into the store, and requeues it
        so a later runner resumes where it left off.  ``graceful=False``
        abandons in-flight runs as 'running' (crash semantics; startup
        recovery will requeue them).
        """
        self._graceful = graceful
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads = []

    @property
    def busy_workers(self) -> int:
        """Workers executing a run or claiming one (counted before the
        claim, so no run the store reads as 'running' goes uncounted)."""
        return self._busy

    @property
    def idle(self) -> bool:
        """True when no worker is executing and the queue is empty."""
        return self._busy == 0 and not self.store.list_runs(status="queued", limit=1)

    def wait_idle(self, timeout_s: float = 120.0) -> bool:
        """Block until the queue drains and all workers are idle."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.idle:
                return True
            time.sleep(self.config.poll_interval_s / 2)
        return self.idle

    # -- worker loop ---------------------------------------------------

    def _worker_loop(self, worker: str) -> None:
        while not self._stop.is_set():
            with self._busy_lock:
                self._busy += 1
            try:
                run = self.store.claim_run(worker)
            except Exception:
                logger.exception("%s: claim failed", worker)
                run = None
            if run is None:
                with self._busy_lock:
                    self._busy -= 1
                self._stop.wait(self.config.poll_interval_s)
                continue
            try:
                self._execute(run, worker)
            except _HardStop:
                logger.warning("%s: injected crash on run %d", worker, run.id)
                return  # die like a killed process: no cleanup at all
            except Exception as exc:
                logger.exception("%s: run %d failed", worker, run.id)
                try:
                    self.store.finish_run(
                        run.id, "failed",
                        error="".join(
                            traceback.format_exception_only(type(exc), exc)
                        ).strip(),
                    )
                except Exception:
                    logger.exception("%s: could not record failure", worker)
            finally:
                with self._busy_lock:
                    self._busy -= 1

    # -- executing one run ---------------------------------------------

    def run_paths(self, run_id: int) -> Tuple[Path, Path]:
        """(run directory, event-log path) for a run id."""
        run_dir = self.data_dir / f"run-{run_id:06d}"
        return run_dir, run_dir / "events.jsonl"

    def _execute(self, run: RunRow, worker: str) -> None:
        spec = ScenarioSpec.from_dict(run.spec)
        run_dir, log_path = self.run_paths(run.id)
        run_dir.mkdir(parents=True, exist_ok=True)

        checkpoint = self.store.latest_checkpoint(run.id)
        if checkpoint is not None and log_path.exists():
            # Drop events from periods after the snapshot (and any torn
            # final line): the resumed suffix re-emits them.
            with open(log_path, "r+", encoding="utf-8") as fh:
                fh.truncate(checkpoint.log_offset)
        elif checkpoint is not None:
            # The log vanished; the prefix cannot be reconstructed, so
            # restart from scratch instead of resuming into a hole.
            logger.warning(
                "run %d: checkpoint exists but %s is missing; restarting",
                run.id, log_path,
            )
            checkpoint = None

        engine, plant = spec.build()
        job = _Job(run)
        backend = JsonlBackend(log_path, mode="a" if checkpoint else "w")
        telemetry = Telemetry(backend)
        previous = set_telemetry(telemetry)
        try:
            # Replay resume mutes itself; the session closes the plant
            # (pod workers) on every way out, after any final checkpoint.
            with run_session(
                engine, plant, resume=checkpoint.doc if checkpoint else None
            ):
                if checkpoint is not None:
                    self.n_resumed += 1
                    logger.info(
                        "%s: resumed run %d at period %d/%d",
                        worker, run.id, engine.k, engine.n_periods,
                    )
                self.store.update_progress(
                    run.id, engine.k, n_periods=engine.n_periods,
                    event_log=str(log_path),
                )
                engine.run(
                    on_period=self._make_hook(job, engine, telemetry, log_path)
                )
                if job.outcome == "shutdown":
                    self._checkpoint(job, engine, telemetry, log_path)
                    self.store.requeue_run(run.id)
                    logger.info(
                        "%s: checkpointed and requeued run %d at period %d",
                        worker, run.id, engine.k,
                    )
                    return
                if job.outcome == "cancelled":
                    telemetry.close()
                    self.store.finish_run(run.id, "cancelled")
                    return
                result = plant.result()
            telemetry.close()  # final metrics record + flush/close
            digest, n_events = eventlog_hash(log_path)
            # Progress and audit land first: a client that sees "done"
            # can read both.
            self.store.update_progress(run.id, engine.k)
            self._audit(run.id, log_path)
            self.store.finish_run(
                run.id, "done",
                result=summarize_run_result(spec, result),
                event_hash=digest, n_events=n_events,
            )
            self.n_completed += 1
            logger.info("%s: run %d done (%d events, %s)",
                        worker, run.id, n_events, digest[:12])
        finally:
            set_telemetry(previous)
            telemetry.close()  # no-op when already closed

    def _make_hook(
        self, job: _Job, engine: ControlPlane, telemetry: Telemetry, log_path: Path
    ):
        checkpoint_every = self.config.checkpoint_every

        def on_period(eng: ControlPlane, ctx: PeriodContext):
            if self._stop.is_set():
                if not self._graceful:
                    raise _HardStop()
                job.outcome = "shutdown"
                return False
            if self.store.run_status(job.run.id) == "cancelling":
                job.outcome = "cancelled"
                return False
            if not eng.finished and eng.k % checkpoint_every == 0:
                self._checkpoint(job, eng, telemetry, log_path)
                crash_after = self.config.crash_after_checkpoints
                if crash_after is not None and job.n_checkpoints >= crash_after:
                    raise _HardStop()
            return True

        return on_period

    def _checkpoint(
        self, job: _Job, engine: ControlPlane, telemetry: Telemetry, log_path: Path
    ) -> None:
        """Snapshot the kernel + the event-log high-water mark."""
        telemetry.flush()
        offset = os.path.getsize(log_path)
        self.store.save_checkpoint(
            job.run.id, engine.k, engine.checkpoint(), offset
        )
        self.store.update_progress(job.run.id, engine.k)
        job.n_checkpoints += 1

    def _audit(self, run_id: int, log_path: Path) -> None:
        """Run the SLO/power audit over the finished log; store the report.

        A failing audit is logged, never raised: the run still ends
        ``done``, only without an audit row."""
        try:
            report = audit_run(RunLog.read(log_path), AuditConfig(
                violation_budget=self.config.audit_violation_budget,
            ))
            self.store.save_audit(run_id, report, bool(report["slo"]["passed"]))
        except Exception as exc:
            logger.warning("run %d: audit failed: %s", run_id, exc)
