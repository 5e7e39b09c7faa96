"""Control-plane kernel: units, golden equivalence, checkpoint/resume.

The golden hashes pin the kernel's determinism contract: a kernel-driven
run emits byte-identical telemetry event logs to the legacy hand-wired
loops (captured on the pre-kernel harnesses), including under fault
injection — and a run resumed from a mid-run checkpoint finishes with
the same events, power series, and aggregates as an uninterrupted one.
"""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.control.arx import ARXModel
from repro.core.controller.response_time_controller import (
    ControllerConfig,
    ResponseTimeController,
)
from repro.engine import (
    CHECKPOINT_SCHEMA,
    PHASE_NAMES,
    CheckpointError,
    ControlPlane,
    PeriodContext,
    Phase,
    PlantBackend,
    run_session,
)
from repro.engine.checkpoint import encode_array, verify_snapshot
from repro.engine.largescale_backend import build_largescale_engine
from repro.engine.scenario import builtin_registry
from repro.engine.testbed_backend import build_testbed_engine
from repro.faults import FaultSchedule
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.service.runner import eventlog_hash_records as _eventlog_hash
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces.generator import TraceConfig, generate_trace


FAULTED_TB_SPEC = {
    "seed": 3,
    "events": [
        {"time_s": 45.0, "kind": "server_crash", "target": "T1",
         "duration_s": 60.0},
        {"time_s": 60.0, "kind": "thermal_throttle", "target": "T0",
         "duration_s": 45.0, "fraction": 0.6},
        {"time_s": 90.0, "kind": "sensor_dropout", "target": "app0",
         "duration_s": 30.0, "probability": 1.0},
    ],
}

FAULTED_LS_SPEC = {
    "seed": 11,
    "events": [
        {"time_s": 3600.0, "kind": "server_crash", "target": "S0009",
         "duration_s": 7200.0},
        {"time_s": 10800.0, "kind": "thermal_throttle", "target": "S0010",
         "duration_s": 7200.0, "fraction": 0.5},
        {"time_s": 14400.0, "kind": "migration_failure", "target": None,
         "duration_s": 21600.0, "probability": 0.5},
    ],
}

# Captured on the pre-kernel harness loops (same configs, same seeds).
_LS_FAULTED_GOLDEN = {
    "eventlog_sha": "440685fa88dccad2d695c7dfa875c130e4b949da44e2eb1bda0581a70731c766",
    "n_events": 122,
    "energy_wh": 14410.484465926129,
    "migrations": 6,
    "power_sha": "c808145a61f9c04f82be16ff81edb5f58c1da84e4962c550a759e068e2409d70",
}
_TB_FAULTED_GOLDEN = {
    "eventlog_sha": "a731f38538def6d068c06d2399aa5597d92e11d482788027d0bb3767f02f64b3",
    "n_events": 32,
    "power_mean": 112.70115962383106,
}
_TB_INTEGRATED_GOLDEN = {
    "eventlog_sha": "895d756c50c298b6ca7e1dd7120ad5ff63f741b1ae9ca80ff22caafd1583643d",
    "n_events": 38,
    "power_mean": 114.66230894310405,
}

_TB_MODEL = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)


def _tb_config(**overrides):
    # control_mode="scalar": these configs reproduce goldens captured on
    # the pre-kernel per-app loop; the fleet path is allclose, not
    # bit-identical (see tests/test_fleet.py for its equivalence gates).
    base = dict(
        n_servers=2, n_apps=2, duration_s=180.0, warmup_s=20.0,
        concurrency=10, initial_alloc_ghz=0.6, mpc_warm_start=False,
        control_mode="scalar", seed=77,
    )
    base.update(overrides)
    return TestbedConfig(**base)


def _ls_trace():
    return generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)


def _ls_config(**overrides):
    base = dict(n_vms=30, n_servers=50, seed=5)
    base.update(overrides)
    return LargeScaleConfig(**base)


# ---------------------------------------------------------------------------
# kernel units
# ---------------------------------------------------------------------------


class _Counter:
    """Minimal checkpointable component for kernel unit tests."""

    def __init__(self):
        self.value = 0

    def bump(self, ctx):
        self.value += 1

    def state_dict(self):
        return {"value": self.value}

    def load_state_dict(self, state):
        self.value = int(state["value"])


def _engine(n_periods=4, component=None, name="engine"):
    comp = component or _Counter()
    return ControlPlane(
        period_s=1.0,
        n_periods=n_periods,
        phases=[Phase("sense", comp.bump)],
        checkpointables={"counter": comp},
        name=name,
    ), comp


class TestKernelUnits:
    def test_phase_name_must_be_canonical(self):
        with pytest.raises(ValueError, match="unknown phase name"):
            Phase("warmup", lambda ctx: None)

    def test_phase_must_be_callable(self):
        with pytest.raises(TypeError):
            Phase("sense", None)

    def test_canonical_vocabulary_is_stable(self):
        assert PHASE_NAMES == (
            "faults", "sense", "sysid", "control", "arbitrate",
            "optimize", "actuate", "telemetry",
        )

    def test_duplicate_phases_rejected(self):
        comp = _Counter()
        with pytest.raises(ValueError, match="duplicate phase"):
            ControlPlane(1.0, 2, [Phase("sense", comp.bump), Phase("sense", comp.bump)])

    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError, match="at least one phase"):
            ControlPlane(1.0, 2, [])

    def test_non_checkpointable_component_rejected(self):
        with pytest.raises(TypeError, match="state_dict"):
            ControlPlane(
                1.0, 2, [Phase("sense", lambda ctx: None)],
                checkpointables={"bad": object()},
            )

    def test_step_and_run_semantics(self):
        engine, comp = _engine(n_periods=5)
        ctx = engine.step()
        assert (ctx.k, ctx.time_s, ctx.period_s) == (0, 0.0, 1.0)
        assert isinstance(ctx, PeriodContext)
        assert engine.k == 1 and engine.time_s == 1.0 and not engine.finished
        assert engine.run(until_period=3) == 2
        assert engine.run() == 2
        assert engine.finished and comp.value == 5
        with pytest.raises(RuntimeError, match="already ran"):
            engine.step()

    def test_checkpoint_document_shape(self):
        engine, _ = _engine()
        engine.run(until_period=2)
        doc = engine.checkpoint()
        assert doc["schema"] == CHECKPOINT_SCHEMA
        assert doc["engine"] == {
            "name": "engine", "period": 2, "period_s": 1.0, "n_periods": 4,
        }
        assert doc["components"] == {"counter": {"value": 2}}
        # JSON-safe by construction.
        assert json.loads(json.dumps(doc)) == doc

    def test_restore_continues_from_cursor(self):
        engine, _ = _engine()
        engine.run(until_period=3)
        doc = json.loads(json.dumps(engine.checkpoint()))
        fresh, comp = _engine()
        fresh.restore(doc)
        assert fresh.k == 3 and comp.value == 3
        fresh.run()
        assert comp.value == 4

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("schema"), "malformed"),
            (lambda d: d.update(schema=99), "schema"),
            (lambda d: d["engine"].update(name="other"), "engine 'other'"),
            (lambda d: d["engine"].update(period_s=2.0), "timing"),
            (lambda d: d["engine"].update(n_periods=9), "timing"),
            (lambda d: d["engine"].update(period=77), "out of range"),
            (lambda d: d["components"].pop("counter"), "lacks component"),
            (lambda d: d["components"].update(extra={}), "unknown components"),
        ],
    )
    def test_restore_rejects_bad_documents(self, mutate, message):
        engine, _ = _engine()
        engine.run(until_period=1)
        doc = engine.checkpoint()
        mutate(doc)
        fresh, _ = _engine()
        with pytest.raises(CheckpointError, match=message):
            fresh.restore(doc)

    def test_replay_resume_needs_fresh_engine(self):
        # Every resume replays the prefix, so every engine must be fresh.
        engine, _ = _engine()
        engine.run(until_period=2)
        doc = engine.checkpoint()
        used, _ = _engine()
        used.step()
        with pytest.raises(CheckpointError, match="freshly built"):
            used.restore(doc)

    def test_load_checkpoint_rejects_bad_files(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            ControlPlane.load_checkpoint(str(path))
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(CheckpointError, match="checkpoint object"):
            ControlPlane.load_checkpoint(str(path))

    def test_save_load_roundtrip(self, tmp_path):
        engine, _ = _engine()
        engine.run(until_period=2)
        path = tmp_path / "ck.json"
        engine.save_checkpoint(str(path))
        assert ControlPlane.load_checkpoint(str(path)) == engine.checkpoint()


class _FakeBackend:
    """Records the lifecycle calls run_session makes."""

    n_periods, period_s = 4, 1.0

    def __init__(self):
        self.calls = []

    def phases(self):
        return []

    def start(self):
        self.calls.append("start")

    def result(self):
        return None

    def close(self):
        self.calls.append("close")


class TestRunSession:
    def test_fresh_run_starts_then_closes(self):
        engine, comp = _engine()
        backend = _FakeBackend()
        with run_session(engine, backend):
            assert backend.calls == ["start"]
            engine.run()
        assert backend.calls == ["start", "close"] and comp.value == 4

    def test_close_runs_once_when_the_body_raises(self):
        engine, _ = _engine()
        backend = _FakeBackend()
        with pytest.raises(RuntimeError, match="boom"):
            with run_session(engine, backend):
                raise RuntimeError("boom")
        assert backend.calls == ["start", "close"]

    def test_close_runs_once_on_early_return(self):
        backend = _FakeBackend()

        def stop_early():
            engine, _ = _engine()
            with run_session(engine, backend):
                engine.run(until_period=1)
                return engine.k

        assert stop_early() == 1
        assert backend.calls == ["start", "close"]

    def test_resume_restores_instead_of_starting(self):
        first, _ = _engine()
        first.run(until_period=2)
        engine, comp = _engine()
        backend = _FakeBackend()
        with run_session(engine, backend, resume=first.checkpoint()):
            assert (engine.k, comp.value) == (2, 2)
        assert backend.calls == ["close"]

    def test_failed_restore_still_closes(self):
        engine, _ = _engine()
        backend = _FakeBackend()
        with pytest.raises(CheckpointError):
            with run_session(engine, backend, resume={"schema": -1}):
                pytest.fail("body must not run")
        assert backend.calls == ["close"]

    def test_every_backend_satisfies_the_protocol_and_close_is_idempotent(self):
        assert isinstance(_FakeBackend(), PlantBackend)
        for name in ("testbed-small", "largescale-small", "sharded-small"):
            _, backend = builtin_registry().get(name).build()
            assert isinstance(backend, PlantBackend), name
            backend.close()
            backend.close()


class TestFinishedRunsAreReleased:
    """A process that runs many scenarios (``repro serve`` workers, the
    benchmark's passes) must not carry finished runs along."""

    @staticmethod
    def _run():
        engine, backend = builtin_registry().get("testbed-small").build()
        with run_session(engine, backend):
            engine.run()
            backend.result()

    def test_closed_testbed_run_needs_no_cyclic_collection(self):
        """A DES app is one reference cycle (clients' generator frames ->
        app -> simulator -> event queue -> clients); ``close()`` takes
        it apart, so with the cyclic collector *off* a finished run
        leaves no object behind and six runs hold the memory of one.
        Before, each run left ~250 objects here (4,361 on
        ``testbed-fleet``, ~0.7 MiB of peak RSS per benchmark pass)."""
        self._run()  # imports, numpy/scipy caches
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            left, held, footprint = [], [], []
            for _ in range(6):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                n_objects = len(gc.get_objects())
                self._run()
                left.append(len(gc.get_objects()) - n_objects)
                current, peak = tracemalloc.get_traced_memory()
                held.append(current)
                footprint.append(peak - base)
        finally:
            tracemalloc.stop()
            gc.enable()
        assert max(left) <= 2, left
        # Flat from run 2 on.  The bound is a share of one run's working
        # set, not of the few KiB still held: numpy's small-buffer cache
        # alone moves those by more than 5 %.
        assert held[-1] - held[1] <= 0.10 * min(footprint), (held, footprint)


class TestCheckpointCodecs:
    def test_array_roundtrip(self):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        doc = json.loads(json.dumps(encode_array(arr)))
        out = np.asarray(doc["data"], dtype=doc["dtype"]).reshape(doc["shape"])
        assert out.dtype == arr.dtype and out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)

    def test_array_rejects_non_finite(self):
        with pytest.raises(ValueError):
            encode_array(np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "decode",
        [lambda: verify_snapshot({"a": 1, "b": 2}, {"a": 1}, "demo")],
        ids=["missing-field"],
    )
    def test_damaged_documents_are_refused_as_checkpoint_errors(self, decode):
        # repro sim turns a CheckpointError into "cannot resume" (exit 1).
        with pytest.raises(CheckpointError):
            decode()

    @pytest.mark.parametrize(
        "expected, path",
        [
            ({"n": 3, "pods": [{"peaks": "aa"}, {"peaks": "bb"}]}, None),
            ({"n": 3, "pods": [{"peaks": "aa"}, {"peaks": "zz"}]}, "pods[1].peaks"),
            ({"n": 3, "pods": [{"peaks": "aa"}]}, "pods"),
            ({"n": 3.0, "pods": [{"peaks": "aa"}, {"peaks": "bb"}]}, "n"),
            ({"n": None, "pods": "zz"}, "n"),
            ({"pods": [{"peaks": "aa"}, {}]}, "n"),
            ({"n": 3, "pods": [{"peaks": "aa"}, {"peaks": "bb"}], "x": 0}, "x"),
            ([], "(the whole snapshot)"),
        ],
        ids=["equal", "nested", "length", "type", "null", "missing", "extra", "root"],
    )
    def test_verifier_names_the_first_difference(self, expected, path):
        current = {"n": 3, "pods": [{"peaks": "aa"}, {"peaks": "bb"}]}
        if path is None:
            verify_snapshot(current, expected, "demo")
            return
        with pytest.raises(CheckpointError) as info:
            verify_snapshot(current, expected, "demo")
        message = str(info.value)
        assert f"at {path};" in message and "does not match" in message
        assert "resume with the same trace, config and seed" in message


# ---------------------------------------------------------------------------
# golden equivalence under fault injection
# ---------------------------------------------------------------------------


class TestGoldenFaulted:
    def test_largescale_faulted_matches_legacy_loop(self):
        backend = InMemoryBackend()
        engine, plant = build_largescale_engine(
            _ls_trace(),
            _ls_config(faults=FaultSchedule.from_spec(FAULTED_LS_SPEC)),
        )
        with use_telemetry(Telemetry(backend)):
            plant.start()
            engine.run()
            res = plant.result()
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _LS_FAULTED_GOLDEN["eventlog_sha"], _LS_FAULTED_GOLDEN["n_events"],
        )
        assert res.total_energy_wh == _LS_FAULTED_GOLDEN["energy_wh"]
        assert res.migrations == _LS_FAULTED_GOLDEN["migrations"]
        power_sha = hashlib.sha256(
            np.asarray(res.power_series_w).tobytes()
        ).hexdigest()
        assert power_sha == _LS_FAULTED_GOLDEN["power_sha"]

    def test_testbed_faulted_matches_legacy_loop(self):
        backend = InMemoryBackend()
        engine, plant = build_testbed_engine(
            config=_tb_config(faults=FaultSchedule.from_spec(FAULTED_TB_SPEC)),
            model=_TB_MODEL,
        )
        with use_telemetry(Telemetry(backend)):
            plant.start()
            engine.run()
            res = plant.result()
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _TB_FAULTED_GOLDEN["eventlog_sha"], _TB_FAULTED_GOLDEN["n_events"],
        )
        assert res.power_summary()["mean"] == _TB_FAULTED_GOLDEN["power_mean"]

    def test_testbed_integrated_matches_legacy_loop(self):
        from repro.apps.workload import StepWorkload

        backend = InMemoryBackend()
        engine, plant = build_testbed_engine(
            config=_tb_config(
                duration_s=240.0,
                optimize_at_s=(60.0, 180.0),
                workloads={1: StepWorkload(10, 20, 90.0, 180.0)},
            ),
            model=_TB_MODEL,
        )
        with use_telemetry(Telemetry(backend)):
            plant.start()
            engine.run()
            res = plant.result()
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _TB_INTEGRATED_GOLDEN["eventlog_sha"],
            _TB_INTEGRATED_GOLDEN["n_events"],
        )
        assert res.power_summary()["mean"] == _TB_INTEGRATED_GOLDEN["power_mean"]


# ---------------------------------------------------------------------------
# checkpoint / resume bit-identity
# ---------------------------------------------------------------------------


class TestLargeScaleResume:
    """Replay resume: muted re-execution, then snapshot verification."""

    def _build(self, provisioning="ewma_peak"):
        return build_largescale_engine(
            _ls_trace(),
            _ls_config(
                faults=FaultSchedule.from_spec(FAULTED_LS_SPEC),
                provisioning=provisioning,
            ),
        )

    # The forecaster's smoothing state is rebuilt by the replay, never
    # stored: "holt" and "ewma_peak" resume it, "current" has none.
    @pytest.mark.parametrize("provisioning", ["current", "ewma_peak", "holt"])
    def test_resume_matches_uninterrupted_run(self, provisioning):
        full = InMemoryBackend()
        engine, plant = self._build(provisioning)
        with use_telemetry(Telemetry(full)):
            plant.start()
            engine.run()
            res_full = plant.result()

        split = InMemoryBackend()
        engine1, plant1 = self._build(provisioning)
        with use_telemetry(Telemetry(split)):
            plant1.start()
            engine1.run(until_period=50)
            doc = json.loads(json.dumps(engine1.checkpoint()))
        engine2, plant2 = self._build(provisioning)
        with use_telemetry(Telemetry(split)):
            engine2.restore(doc)
            assert engine2.k == 50
            engine2.run()
            res = plant2.result()

        assert _eventlog_hash(split.records) == _eventlog_hash(full.records)
        assert res.total_energy_wh == res_full.total_energy_wh
        assert res.migrations == res_full.migrations
        np.testing.assert_array_equal(res.power_series_w, res_full.power_series_w)

    def test_resume_with_different_seed_rejected(self):
        engine, plant = self._build()
        plant.start()
        engine.run(until_period=10)
        doc = json.loads(json.dumps(engine.checkpoint()))
        other, _ = build_largescale_engine(
            _ls_trace(),
            _ls_config(
                seed=6,
                faults=FaultSchedule.from_spec(FAULTED_LS_SPEC),
                provisioning="ewma_peak",
            ),
        )
        with pytest.raises(CheckpointError, match="same trace"):
            other.restore(doc)


class TestTestbedResume:
    """Replay resume: muted re-execution, then verification."""

    def _build(self):
        return build_testbed_engine(
            config=_tb_config(faults=FaultSchedule.from_spec(FAULTED_TB_SPEC)),
            model=_TB_MODEL,
        )

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        full = InMemoryBackend()
        engine, plant = self._build()
        with use_telemetry(Telemetry(full)):
            plant.start()
            engine.run()
            res_full = plant.result()

        path = tmp_path / "tb.json"
        split = InMemoryBackend()
        engine1, plant1 = self._build()
        with use_telemetry(Telemetry(split)):
            plant1.start()
            engine1.run(until_period=7)
            engine1.save_checkpoint(str(path))
        engine2, plant2 = self._build()
        with use_telemetry(Telemetry(split)):
            # restore() replays the prefix muted (no duplicate events),
            # verifies the replayed state, and leaves the cursor at 7.
            engine2.restore(ControlPlane.load_checkpoint(str(path)))
            assert engine2.k == 7
            engine2.run()
            res = plant2.result()

        assert _eventlog_hash(split.records) == _eventlog_hash(full.records)
        assert res.power_summary() == res_full.power_summary()

    def test_resume_with_different_seed_rejected(self):
        engine, plant = self._build()
        plant.start()
        engine.run(until_period=5)
        doc = json.loads(json.dumps(engine.checkpoint()))
        other, _ = build_testbed_engine(
            config=_tb_config(
                seed=78, faults=FaultSchedule.from_spec(FAULTED_TB_SPEC)
            ),
            model=_TB_MODEL,
        )
        with pytest.raises(CheckpointError, match="does not match"):
            other.restore(doc)


# ---------------------------------------------------------------------------
# controller handover inside the engine (state_dict carries warm sets)
# ---------------------------------------------------------------------------


class TestControllerHandover:
    def test_warm_state_survives_handover(self):
        engine, plant = build_testbed_engine(
            config=_tb_config(mpc_warm_start=True), model=_TB_MODEL
        )
        plant.start()
        engine.run(until_period=6)
        old = plant.manager.controllers["app0"]
        assert old._mpc._warm_active  # the run has seeded warm sets

        # A fresh controller takes over mid-run from the old one's
        # state_dict; the warm working sets carry over with it.
        cfg = plant.config
        new = ResponseTimeController(
            _TB_MODEL,
            ControllerConfig(
                setpoint_ms=cfg.setpoint_ms,
                period_s=cfg.control_period_s,
            ),
            c_min=[cfg.min_alloc_ghz] * 2,
            c_max=[cfg.max_alloc_ghz] * 2,
            initial_alloc_ghz=[cfg.initial_alloc_ghz] * 2,
        )
        new.load_state_dict(old.state_dict())
        assert new._mpc._warm_active == old._mpc._warm_active
        baseline_hits = new._mpc.warm_hits
        plant.manager.register_controller("app0", new)

        engine.run()
        assert engine.finished
        # The adopted working sets actually warm-started solves after
        # the handover.
        assert new._mpc.solves > 0
        assert new._mpc.warm_hits > baseline_hits
        mean_power = plant.recorder.summary("power/total")["mean"]
        assert np.isfinite(mean_power) and mean_power > 0
