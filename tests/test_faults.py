"""Fault injection: models, schedules, injector, and degraded-mode control."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DataCenter, Server, VM
from repro.cluster.catalog import TESTBED_SERVER
from repro.cluster.migration import MigrationFailedError
from repro.control.arx import ARXModel
from repro.core import (
    ControllerConfig,
    PowerManager,
    ResponseTimeController,
)
from repro.core.optimizer.types import Migration, PlacementPlan, apply_plan, snapshot_datacenter
from repro.engine.testbed_backend import run_testbed
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpecError,
    validate_spec,
)
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.sim.testbed import TestbedConfig

MODEL = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)


def _dc(n_servers=3, active=None):
    dc = DataCenter()
    for i in range(n_servers):
        is_active = True if active is None else active[i]
        dc.add_server(Server(f"T{i}", TESTBED_SERVER, active=is_active))
    return dc


def _add_vm(dc, vm_id, server_id, demand=0.5):
    dc.add_vm(VM(vm_id, memory_mb=512, demand_ghz=demand))
    dc.place(vm_id, server_id)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(time_s=0.0, kind="meteor_strike", target="T0")

    def test_crash_requires_target(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(time_s=0.0, kind="server_crash")

    def test_throttle_fraction_range(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(time_s=0.0, kind="thermal_throttle", target="T0", fraction=0.0)
        with pytest.raises(FaultSpecError):
            FaultEvent(time_s=0.0, kind="thermal_throttle", target="T0", fraction=1.5)

    def test_recovery_is_instantaneous(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(time_s=5.0, kind="server_recovery", target="T0", duration_s=10.0)

    def test_end_time(self):
        ev = FaultEvent(time_s=10.0, kind="server_crash", target="T0", duration_s=5.0)
        assert ev.end_time_s == 15.0
        open_ended = FaultEvent(time_s=10.0, kind="server_crash", target="T0")
        assert open_ended.end_time_s is None

    def test_spec_roundtrip(self):
        ev = FaultEvent(
            time_s=3.0, kind="thermal_throttle", target="T1",
            duration_s=20.0, fraction=0.5,
        )
        assert FaultEvent(**ev.to_spec()) == ev


class TestValidateSpec:
    def test_valid_spec(self):
        assert validate_spec({"seed": 1, "events": []}) == []

    def test_collects_all_problems(self):
        spec = {
            "seed": "nope",
            "bogus": 1,
            "events": [
                {"time_s": -1.0, "kind": "server_crash", "target": "T0"},
                {"time_s": 0.0, "kind": "server_recovery", "target": "T9"},
                {"time_s": 0.0, "kind": "server_crash", "target": "T0", "zap": 2},
            ],
        }
        problems = validate_spec(spec)
        assert len(problems) == 5

    def test_recovery_after_crash_accepted(self):
        spec = {"events": [
            {"time_s": 0.0, "kind": "server_crash", "target": "T0"},
            {"time_s": 50.0, "kind": "server_recovery", "target": "T0"},
        ]}
        assert validate_spec(spec) == []

    def test_from_spec_raises_on_problems(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule.from_spec({"events": [{"time_s": 0.0, "kind": "nope"}]})


class TestFaultsCli:
    def test_generate_then_validate(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "faults.json")
        assert main(["faults", "generate", path, "--horizon", "7200", "--seed", "5"]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {path}: ")
        assert main(["faults", "validate", path]) == 0
        assert f"{path}: OK" in capsys.readouterr().out
        assert FaultSchedule.from_json(path) == FaultSchedule.random(
            7200.0, ["T0", "T1", "T2", "T3"], seed=5,
        )

    def test_validate_reports_every_problem_once_prefixed(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": "nope", "events": [{"kind": "meteor"}]}))
        assert main(["faults", "validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("repro faults:") == 1
        assert "seed must be an integer" in err and "events[0] needs" in err


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        s = FaultSchedule(events=(
            FaultEvent(time_s=50.0, kind="server_crash", target="T0"),
            FaultEvent(time_s=10.0, kind="thermal_throttle", target="T1", duration_s=5.0),
        ))
        assert [ev.time_s for ev in s.events] == [10.0, 50.0]

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="sensor_dropout"),
        ))

    def test_json_roundtrip(self, tmp_path):
        s = FaultSchedule.random(3600.0, ["T0", "T1"], app_ids=["a"], seed=11,
                                 sensor_rate_per_hour=2.0)
        path = str(tmp_path / "spec.json")
        s.to_json(path)
        assert FaultSchedule.from_json(path) == s

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_is_deterministic_and_roundtrips(self, seed):
        kwargs = dict(
            horizon_s=7200.0, server_ids=("s0", "s1", "s2"), app_ids=("a0",),
            seed=seed, crash_rate_per_hour=1.0, throttle_rate_per_hour=1.0,
            sensor_rate_per_hour=1.0,
        )
        a = FaultSchedule.random(**kwargs)
        b = FaultSchedule.random(**kwargs)
        assert a == b
        assert FaultSchedule.from_spec(a.to_spec()) == a

    def test_timeline_orders_begin_before_end(self):
        s = FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="server_crash", target="T0", duration_s=10.0),
            FaultEvent(time_s=10.0, kind="server_crash", target="T1", duration_s=10.0),
        ))
        cursor = s.cursor()
        first = cursor.advance(0.0)
        assert [(t.phase, t.event.target) for t in first] == [("begin", "T0")]
        second = cursor.advance(10.0)
        assert [(t.phase, t.event.target) for t in second] == [
            ("begin", "T1"), ("end", "T0"),
        ]
        assert not cursor.exhausted
        cursor.advance(20.0)
        assert cursor.exhausted


class TestServerFaultState:
    def test_fail_evicts_and_cuts_power(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        _add_vm(dc, "v2", "T0")
        evicted = dc.fail_server("T0")
        assert evicted == ["v1", "v2"]
        assert dc.servers["T0"].failed and not dc.servers["T0"].active
        assert dc.server_of("v1") is None
        assert dc.servers["T0"].power_w(0.0) == 0.0
        # Idempotent: a second crash evicts nothing new.
        assert dc.fail_server("T0") == []

    def test_recovered_server_rejoins_sleeping(self):
        dc = _dc(1)
        dc.fail_server("T0")
        dc.recover_server("T0")
        s = dc.servers["T0"]
        assert not s.failed and not s.active
        dc.wake_server("T0")
        assert s.active

    def test_failed_server_cannot_wake(self):
        dc = _dc(1)
        dc.fail_server("T0")
        with pytest.raises(ValueError):
            dc.wake_server("T0")

    def test_throttle_scales_capacity(self):
        dc = _dc(1)
        s = dc.servers["T0"]
        full = s.max_capacity_ghz
        s.throttle(0.5)
        assert s.max_capacity_ghz == pytest.approx(0.5 * full)
        s.unthrottle()
        assert s.max_capacity_ghz == pytest.approx(full)

    def test_snapshot_excludes_failed_servers(self):
        dc = _dc(3)
        dc.fail_server("T1")
        problem = snapshot_datacenter(dc)
        assert [s.server_id for s in problem.servers] == ["T0", "T2"]


class TestApplyPlanFaultTolerance:
    def test_migration_retry_succeeds(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        # Two disrupted attempts, third lands.
        calls = {"n": 0}

        def disruptor(vm, src, dst):
            calls["n"] += 1
            return calls["n"] <= 2

        dc.migration_disruptor = disruptor
        plan = PlacementPlan(migrations=[Migration("v1", "T0", "T1")])
        report = apply_plan(dc, plan, time_s=100.0, retry_backoff_s=5.0)
        assert dc.server_of("v1") == "T1"
        assert report.retries == 2
        assert report.failed_migrations == []
        assert len(report.records) == 1
        # Third attempt is stamped two backoffs after the first.
        assert report.records[0].time_s == pytest.approx(110.0)

    def test_migration_failure_is_atomic(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        dc.migration_disruptor = lambda vm, src, dst: True
        plan = PlacementPlan(
            migrations=[Migration("v1", "T0", "T1")], sleep=["T0"],
        )
        report = apply_plan(dc, plan)
        assert dc.server_of("v1") == "T0"  # rollback: still on source
        assert [m.vm_id for m in report.failed_migrations] == ["v1"]
        # The source cannot sleep while the stranded VM sits on it.
        assert report.skipped_sleep == ["T0"]
        assert dc.servers["T0"].active

    def test_wake_of_crashed_server_skipped(self):
        dc = _dc(2, active=[True, False])
        _add_vm(dc, "v1", "T0")
        dc.fail_server("T1")
        plan = PlacementPlan(
            wake=["T1"], migrations=[Migration("v1", "T0", "T1")],
        )
        report = apply_plan(dc, plan)
        assert report.skipped_wake == ["T1"]
        assert [m.vm_id for m in report.failed_migrations] == ["v1"]
        assert dc.server_of("v1") == "T0"

    def test_migration_record_carries_costs(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        plan = PlacementPlan(migrations=[Migration("v1", "T0", "T1")])
        report = apply_plan(dc, plan)
        assert report.total_duration_s > 0
        assert report.total_bytes_moved_mb > 0


class TestEmergencyEvacuation:
    def test_evicted_vms_replaced_on_survivors(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0", demand=0.5)
        _add_vm(dc, "v2", "T0", demand=0.5)
        _add_vm(dc, "v3", "T1", demand=0.5)
        mgr = PowerManager(dc)
        evicted = dc.fail_server("T0")
        plan = mgr.emergency_evacuate("T0", evicted, time_s=42.0)
        assert plan.unplaced == []
        assert dc.server_of("v1") == "T1"
        assert dc.server_of("v2") == "T1"
        assert dc.servers["T1"].active

    def test_evacuation_recruits_sleepers_when_survivors_full(self):
        dc = _dc(3, active=[True, True, False])
        _add_vm(dc, "v1", "T0", demand=2.0)
        _add_vm(dc, "v2", "T0", demand=2.0)
        _add_vm(dc, "v3", "T1", demand=3.0)
        mgr = PowerManager(dc)
        evicted = dc.fail_server("T0")
        plan = mgr.emergency_evacuate("T0", evicted, time_s=0.0)
        assert plan.unplaced == []
        assert dc.servers["T2"].active  # sleeper recruited
        hosts = {dc.server_of("v1"), dc.server_of("v2")}
        assert hosts <= {"T1", "T2"}

    def test_evacuation_never_sleeps_servers(self):
        dc = _dc(3)
        _add_vm(dc, "v1", "T0", demand=0.2)
        mgr = PowerManager(dc)
        evicted = dc.fail_server("T0")
        mgr.emergency_evacuate("T0", evicted)
        # T1/T2 hosted nothing, yet evacuation must not power them down.
        assert dc.servers["T1"].active and dc.servers["T2"].active


class TestControllerMissingPolicy:
    def _controller(self, **cfg):
        return ResponseTimeController(
            MODEL, ControllerConfig(util_band=None, **cfg),
            c_min=[0.2, 0.2], c_max=[3.0, 3.0], initial_alloc_ghz=[1.0, 1.0],
        )

    def test_hold_keeps_last_demands(self):
        ctrl = self._controller(missing_policy="hold")
        first = ctrl.update(1200.0)
        held = ctrl.update(float("nan"))
        np.testing.assert_allclose(held, first)
        assert ctrl.held_updates == 1

    def test_hold_escalates_after_max_periods(self):
        ctrl = self._controller(missing_policy="hold", max_hold_periods=2)
        ctrl.update(1000.0)
        before = ctrl.update(float("nan"))
        ctrl.update(float("nan"))
        escalated = ctrl.update(float("nan"))  # 3rd loss > max_hold_periods
        assert ctrl.held_updates == 2
        # Pessimistic substitution kicks in: demand moves up, not held.
        assert not np.allclose(escalated, before)

    def test_finite_sample_resets_hold_budget(self):
        ctrl = self._controller(missing_policy="hold", max_hold_periods=1)
        ctrl.update(1000.0)
        ctrl.update(float("nan"))
        ctrl.update(900.0)
        ctrl.update(float("nan"))  # budget refreshed: held again
        assert ctrl.held_updates == 2

    def test_pessimistic_default_unchanged(self):
        ctrl = self._controller()
        a = ctrl.update(float("nan"))
        clamped = self._controller().update(3000.0)
        np.testing.assert_allclose(a, clamped)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(missing_policy="wishful")


class TestFaultInjector:
    def test_crash_triggers_evacuation_hook(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        calls = []
        sched = FaultSchedule(events=(
            FaultEvent(time_s=30.0, kind="server_crash", target="T0", duration_s=60.0),
        ))
        inj = FaultInjector(dc, sched, on_evacuate=lambda sid, vms, t: calls.append((sid, vms, t)))
        assert inj.step(0.0) == []
        inj.step(30.0)
        assert calls == [("T0", ["v1"], 30.0)]
        assert dc.servers["T0"].failed
        inj.step(90.0)
        assert not dc.servers["T0"].failed
        assert inj.exhausted

    def test_throttle_applied_and_reverted(self):
        dc = _dc(1)
        sched = FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="thermal_throttle", target="T0",
                       duration_s=10.0, fraction=0.4),
        ))
        inj = FaultInjector(dc, sched)
        inj.step(0.0)
        assert dc.servers["T0"].capacity_fraction == 0.4
        inj.step(10.0)
        assert dc.servers["T0"].capacity_fraction == 1.0

    def test_migration_fault_installs_disruptor(self):
        dc = _dc(2)
        _add_vm(dc, "v1", "T0")
        sched = FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="migration_failure", duration_s=10.0,
                       probability=1.0),
        ), seed=3)
        inj = FaultInjector(dc, sched)
        inj.step(0.0)
        with pytest.raises(MigrationFailedError):
            dc.migrate("v1", "T1")
        inj.step(10.0)
        assert dc.migration_disruptor is None
        dc.migrate("v1", "T1")
        assert dc.server_of("v1") == "T1"

    def test_sensor_dropout_and_noise(self):
        dc = _dc(1)
        sched = FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="sensor_dropout", target="a",
                       duration_s=10.0, probability=1.0),
            FaultEvent(time_s=0.0, kind="sensor_noise", target="b",
                       duration_s=10.0, sigma_ms=25.0),
        ), seed=9)
        inj = FaultInjector(dc, sched)
        inj.step(0.0)
        out = inj.filter_measurements({"a": 500.0, "b": 500.0, "c": 500.0})
        assert math.isnan(out["a"])
        assert out["b"] != 500.0 and math.isfinite(out["b"])
        assert out["c"] == 500.0

    def test_filter_is_seed_deterministic(self):
        sched = FaultSchedule(events=(
            FaultEvent(time_s=0.0, kind="sensor_dropout", duration_s=100.0,
                       probability=0.5),
            FaultEvent(time_s=0.0, kind="sensor_noise", duration_s=100.0,
                       sigma_ms=10.0),
        ), seed=21)
        outs = []
        for _ in range(2):
            inj = FaultInjector(_dc(1), sched)
            inj.step(0.0)
            seq = [inj.filter_measurements({"a": 100.0, "b": 200.0}) for _ in range(20)]
            outs.append(seq)
        assert repr(outs[0]) == repr(outs[1])


def _crash_schedule():
    return FaultSchedule(events=(
        FaultEvent(time_s=45.0, kind="server_crash", target="T1", duration_s=60.0),
        FaultEvent(time_s=60.0, kind="sensor_dropout", target="app0",
                   duration_s=30.0, probability=1.0),
    ), seed=17)


def _chaos_config(**over):
    kw = dict(
        n_servers=2, n_apps=2, duration_s=180.0, warmup_s=20.0,
        concurrency=10, initial_alloc_ghz=0.6, faults=_crash_schedule(), seed=77,
    )
    kw.update(over)
    return TestbedConfig(**kw)


def _run_chaos(config):
    backend = InMemoryBackend()
    with use_telemetry(Telemetry(backend, record_spans=False), close=False):
        result = run_testbed(config, model=MODEL)
    events = [r for r in backend.records if r.get("kind") not in ("span", "metrics")]
    return result, events


class TestTestbedChaos:
    def test_crash_scenario_completes_with_fault_events(self):
        result, events = _run_chaos(_chaos_config())
        kinds = {e["kind"] for e in events}
        assert {"fault_injected", "evacuation", "fault_recovered"} <= kinds
        evac = next(e for e in events if e["kind"] == "evacuation")
        # Every evicted VM re-placed within the same control period.
        assert evac["unplaced"] == []
        assert sorted(evac["placed"]) == sorted(evac["vms"])
        # No response-time sample was lost to an unhandled exception:
        # every period produced a control_period event.
        n_periods = int(180.0 / 15.0)
        n_controls = sum(1 for e in events if e["kind"] == "control_period")
        assert n_controls == n_periods
        assert math.isfinite(result.power_summary()["mean"])

    def test_identical_spec_and_seed_give_identical_event_logs(self):
        _, events_a = _run_chaos(_chaos_config())
        _, events_b = _run_chaos(_chaos_config())
        dump_a = json.dumps(events_a, sort_keys=True, default=str)
        dump_b = json.dumps(events_b, sort_keys=True, default=str)
        assert dump_a.encode() == dump_b.encode()

    def test_no_faults_emits_no_fault_events(self):
        _, events = _run_chaos(_chaos_config(faults=None))
        kinds = {e["kind"] for e in events}
        assert kinds.isdisjoint({"fault_injected", "fault_recovered", "evacuation"})


class TestLargeScaleFaults:
    @pytest.fixture(scope="class")
    def small_trace(self):
        from repro.traces import TraceConfig, generate_trace

        return generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)

    def test_noop_schedule_matches_baseline(self, small_trace):
        from repro.engine.largescale_backend import run_largescale
        from repro.sim.largescale import LargeScaleConfig

        base = run_largescale(
            small_trace, LargeScaleConfig(n_vms=30, n_servers=50, seed=5)
        )
        # One event far past the trace end: the fault code path runs but
        # no transition ever fires -> results must match exactly.
        idle = FaultSchedule(events=(
            FaultEvent(time_s=1e9, kind="server_crash", target="S0000"),
        ))
        faulted = run_largescale(
            small_trace,
            LargeScaleConfig(n_vms=30, n_servers=50, seed=5, faults=idle),
        )
        assert faulted.total_energy_wh == base.total_energy_wh
        np.testing.assert_array_equal(faulted.power_series_w, base.power_series_w)

    def test_crash_evacuates_and_run_completes(self, small_trace):
        from repro.engine.largescale_backend import run_largescale
        from repro.sim.largescale import LargeScaleConfig

        # Find a server that hosts VMs at t=0 so the crash bites.
        backend = InMemoryBackend()
        cfg = LargeScaleConfig(n_vms=30, n_servers=50, seed=5)
        with use_telemetry(Telemetry(backend, record_spans=False), close=False):
            run_largescale(small_trace, cfg)
        on = [r["server"] for r in backend.records
              if r.get("kind") == "server_power" and r.get("state") == "on"]
        target = on[0]
        sched = FaultSchedule(events=(
            FaultEvent(time_s=3600.0, kind="server_crash", target=target,
                       duration_s=7200.0),
        ), seed=2)
        backend2 = InMemoryBackend()
        with use_telemetry(Telemetry(backend2, record_spans=False), close=False):
            res = run_largescale(
                small_trace,
                LargeScaleConfig(n_vms=30, n_servers=50, seed=5, faults=sched),
            )
        kinds = [r["kind"] for r in backend2.records]
        assert "fault_injected" in kinds and "evacuation" in kinds
        evac = next(r for r in backend2.records if r["kind"] == "evacuation")
        assert evac["unplaced"] == []
        assert res.unplaced_vm_steps == 0
        assert math.isfinite(res.total_energy_wh)
