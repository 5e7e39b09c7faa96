"""ExperimentRunner: golden hashes, kill-and-resume, sweeps, cancel.

The load-bearing claims pinned here:

* a run executed by the service hashes **bit-identical** to the same
  scenario run one-shot through ``spec.build()`` (and, for
  ``testbed-small``, to the repo-wide pinned golden hash);
* that stays true when the run is killed mid-flight (crash injection —
  SIGKILL semantics) or gracefully shut down, and later **resumed from
  its stored checkpoint** by a fresh runner;
* a >= 20-configuration grid sweep across 2 workers completes with
  every run, checkpoint, and audit report queryable from the store.
"""

import multiprocessing
import threading
import time

import pytest

from repro.engine.kernel import run_session
from repro.engine.scenario import ScenarioSpec, apply_overrides, builtin_registry
from repro.engine.sharded_backend import ShardedBackend
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.service.runner import (
    ExperimentRunner,
    RunnerConfig,
    eventlog_hash,
    eventlog_hash_records,
)
from repro.service.store import ResultsStore
from repro.service.sweep import expand_grid
from tests.goldens import TB_SMALL_SHA


def _oneshot_hash(spec_doc):
    """(sha256, n_events) of the scenario run uninterrupted, in memory."""
    spec = ScenarioSpec.from_dict(spec_doc)
    backend = InMemoryBackend()
    engine, plant = spec.build()
    with use_telemetry(Telemetry(backend)), run_session(engine, plant):
        engine.run()
        plant.result()
    return eventlog_hash_records(backend.records)


def _wait(predicate, timeout_s=60.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def store(tmp_path):
    s = ResultsStore(tmp_path / "svc.db")
    yield s
    s.close()


def _runner(store, tmp_path, **kw):
    kw.setdefault("data_dir", tmp_path / "data")
    kw.setdefault("workers", 1)
    kw.setdefault("poll_interval_s", 0.02)
    return ExperimentRunner(store, RunnerConfig(**kw))


def _small_doc(**overrides):
    doc = builtin_registry().get("testbed-small").to_dict()
    return apply_overrides(doc, overrides) if overrides else doc


class TestGoldenHash:
    def test_service_run_matches_pinned_oneshot_hash(self, store, tmp_path):
        runner = _runner(store, tmp_path, checkpoint_every=4)
        run, _ = store.submit_run(_small_doc())
        runner.start()
        try:
            assert runner.wait_idle(60.0)
        finally:
            runner.stop()
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert (row.event_hash, row.n_events) == (TB_SMALL_SHA, 25)
        # the summary carries the headline numbers
        assert row.result["harness"] == "testbed"
        assert row.result["power_w"]["mean"] > 0
        # checkpoints were taken at period boundaries
        periods = [c.period for c in store.list_checkpoints(run.id)]
        assert periods == [4, 8]
        # and the stored log re-hashes to the same digest
        assert eventlog_hash(row.event_log) == (TB_SMALL_SHA, 25)

    def test_pooled_sharded_run_matches_oneshot_and_leaves_no_workers(
        self, store, tmp_path, monkeypatch
    ):
        # sharded-small runs 2 pods on 2 pool workers: the runner must
        # close the pool itself (run_session), not leave it to the
        # __del__ safety net — which is disarmed here to prove it.
        monkeypatch.setattr(ShardedBackend, "__del__", lambda self: None)
        doc = builtin_registry().get("sharded-small").to_dict()
        expected = _oneshot_hash(doc)
        runner = _runner(store, tmp_path, checkpoint_every=2)
        run, _ = store.submit_run(doc)
        runner.start()
        try:
            assert runner.wait_idle(120.0)
        finally:
            runner.stop()
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert (row.event_hash, row.n_events) == expected
        assert row.result["info"]["workers"] == 2
        assert multiprocessing.active_children() == []

    def test_audit_and_progress_are_stored_before_done(
        self, store, tmp_path, monkeypatch
    ):
        # A client polling for "done" then fetching /audit must find it.
        seen = {}
        finish_run = store.finish_run

        def spy(run_id, status, **kw):
            if status == "done":
                seen["audit"] = store.get_audit(run_id)
                seen["periods_done"] = store.get_run(run_id).periods_done
            finish_run(run_id, status, **kw)

        monkeypatch.setattr(store, "finish_run", spy)
        runner = _runner(store, tmp_path)
        run, _ = store.submit_run(_small_doc())
        runner.start()
        try:
            assert runner.wait_idle(60.0)
        finally:
            runner.stop()
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert seen["audit"] is not None
        assert seen["periods_done"] == row.n_periods

    def test_failing_audit_still_ends_done(self, store, tmp_path, monkeypatch):
        def broken_audit(*args, **kwargs):
            raise KeyError("slo")

        monkeypatch.setattr("repro.service.runner.audit_run", broken_audit)
        runner = _runner(store, tmp_path)
        run, _ = store.submit_run(_small_doc())
        runner.start()
        try:
            assert runner.wait_idle(60.0)
        finally:
            runner.stop()
        assert store.get_run(run.id).status == "done"
        assert store.get_audit(run.id) is None

    def test_failed_spec_is_recorded_not_raised(self, store, tmp_path):
        doc = _small_doc()
        doc["params"]["n_servers"] = 0  # builds, but the harness rejects it
        runner = _runner(store, tmp_path)
        run, _ = store.submit_run(doc)
        runner.start()
        try:
            assert _wait(lambda: store.get_run(run.id).terminal)
        finally:
            runner.stop()
        row = store.get_run(run.id)
        assert row.status == "failed"
        assert row.error


class TestIdleRace:
    def test_a_claimed_run_is_never_idle(self, store, tmp_path, monkeypatch):
        # Hold the worker between its claim (the row reads 'running')
        # and the execute: the runner must not look idle in that window,
        # or a wait_idle() + stop() would requeue a run in flight.
        claimed, release = threading.Event(), threading.Event()
        claim = store.claim_run

        def held_claim(worker):
            run = claim(worker)
            if run is not None:
                claimed.set()
                release.wait(60.0)
            return run

        monkeypatch.setattr(store, "claim_run", held_claim)
        runner = _runner(store, tmp_path)
        run, _ = store.submit_run(_small_doc())
        runner.start()
        try:
            assert claimed.wait(60.0)
            assert store.get_run(run.id).status == "running"
            assert not runner.idle
            assert runner.busy_workers == 1
            assert not runner.wait_idle(0.2)
        finally:
            release.set()
        try:
            assert runner.wait_idle(60.0)
        finally:
            runner.stop()
        assert store.get_run(run.id).status == "done"
        assert runner.busy_workers == 0


class TestKillAndResume:
    def test_injected_crash_then_resume_matches_oneshot(self, store, tmp_path):
        # Worker dies right after the first checkpoint — no cleanup, the
        # run is left 'running' exactly as a SIGKILL would leave it.
        crasher = _runner(store, tmp_path, checkpoint_every=4,
                          crash_after_checkpoints=1)
        run, _ = store.submit_run(_small_doc())
        crasher.start()
        assert _wait(lambda: store.latest_checkpoint(run.id) is not None)
        assert _wait(lambda: crasher.busy_workers == 0)
        crasher.stop()
        assert store.run_status(run.id) == "running"  # stale, not requeued

        resumer = _runner(store, tmp_path, checkpoint_every=4)
        recovered = resumer.start()
        assert recovered == 1
        try:
            assert resumer.wait_idle(60.0)
        finally:
            resumer.stop()
        assert resumer.n_resumed == 1
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert (row.event_hash, row.n_events) == (TB_SMALL_SHA, 25)

    def test_graceful_stop_checkpoints_requeues_and_resumes(
        self, store, tmp_path
    ):
        # A longer run (40 periods) so the stop lands mid-flight.
        doc = _small_doc(**{"params.duration_s": 600.0})
        expected = _oneshot_hash(doc)
        runner = _runner(store, tmp_path, checkpoint_every=2)
        run, _ = store.submit_run(doc)
        runner.start()
        assert _wait(lambda: store.get_run(run.id).periods_done >= 2)
        runner.stop(graceful=True)
        row = store.get_run(run.id)
        assert row.status == "queued"  # checkpointed and requeued
        checkpoint = store.latest_checkpoint(run.id)
        assert checkpoint is not None
        assert checkpoint.period < 40  # genuinely interrupted

        resumer = _runner(store, tmp_path, checkpoint_every=2)
        resumer.start()
        try:
            assert resumer.wait_idle(120.0)
        finally:
            resumer.stop()
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert (row.event_hash, row.n_events) == expected

    def test_missing_log_restarts_from_scratch(self, store, tmp_path):
        crasher = _runner(store, tmp_path, checkpoint_every=4,
                          crash_after_checkpoints=1)
        run, _ = store.submit_run(_small_doc())
        crasher.start()
        assert _wait(lambda: store.latest_checkpoint(run.id) is not None)
        assert _wait(lambda: crasher.busy_workers == 0)
        crasher.stop()
        _, log_path = crasher.run_paths(run.id)
        log_path.unlink()  # the prefix is gone; resume must not try

        resumer = _runner(store, tmp_path, checkpoint_every=4)
        resumer.start()
        try:
            assert resumer.wait_idle(60.0)
        finally:
            resumer.stop()
        row = store.get_run(run.id)
        assert row.status == "done", row.error
        assert (row.event_hash, row.n_events) == (TB_SMALL_SHA, 25)
        assert resumer.n_resumed == 0  # restarted, not resumed


class TestSweep:
    def test_twenty_config_sweep_on_two_workers(self, store, tmp_path):
        # 10 seeds x 2 durations = 20 configurations; checkpoint every
        # period so even the 3-period runs leave checkpoint rows.
        base = _small_doc()
        grid = {
            "params.seed": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            "params.duration_s": [45.0, 60.0],
        }
        jobs = expand_grid(base, grid)
        assert len(jobs) == 20
        sweep = store.create_sweep("grid", base, grid, len(jobs))
        for doc, _overrides in jobs:
            store.submit_run(doc, sweep_id=sweep.id, dedupe=False)

        runner = _runner(store, tmp_path, workers=2, checkpoint_every=1)
        runner.start()
        try:
            assert runner.wait_idle(300.0)
        finally:
            runner.stop()

        progress = store.sweep_progress(sweep.id)
        assert progress["done"] == 20
        runs = store.list_runs(sweep_id=sweep.id)
        assert len(runs) == 20
        assert {r.worker for r in runs} == {"worker-0", "worker-1"}
        hashes = set()
        for row in runs:
            assert row.status == "done", row.error
            assert row.event_hash and row.n_events > 0
            assert row.result["harness"] == "testbed"
            assert store.list_checkpoints(row.id), f"run {row.id}: no checkpoint"
            audit = store.get_audit(row.id)
            assert audit is not None, f"run {row.id}: no audit report"
            assert "slo" in audit.report
            hashes.add(row.event_hash)
        # different seeds genuinely produce different runs
        assert len(hashes) == 20


class TestCancel:
    def test_cancel_running_run(self, store, tmp_path):
        doc = _small_doc(**{"params.duration_s": 600.0})
        runner = _runner(store, tmp_path, checkpoint_every=2)
        run, _ = store.submit_run(doc)
        runner.start()
        try:
            assert _wait(lambda: store.run_status(run.id) == "running")
            assert _wait(lambda: store.get_run(run.id).periods_done >= 1)
            store.request_cancel(run.id)
            assert _wait(lambda: store.run_status(run.id) == "cancelled")
        finally:
            runner.stop()
        assert store.get_run(run.id).result is None
