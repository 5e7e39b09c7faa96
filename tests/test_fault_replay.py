"""One fault replay on every harness: the injector's contract and its
refusal of inputs a plant cannot apply.

The :class:`~repro.faults.FaultInjector` is the only code that turns a
schedule's transitions into effects and ``fault_injected`` /
``fault_recovered`` records, on the testbed's data center and on the
large-scale backend's arrays alike (the sharded harness runs one per
pod).  The property below checks, on both plants, that every transition
due by the last period gives exactly one record, in timeline order, and
that a server no pending transition names ends nominal.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.cluster import DataCenter, Server
from repro.cluster.catalog import TESTBED_SERVER
from repro.control.arx import ARXModel
from repro.engine.largescale_backend import build_largescale_engine
from repro.engine.sharded_backend import ShardedConfig, build_sharded_engine
from repro.engine.testbed_backend import build_testbed_engine
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, FaultSpecError
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.sim.largescale import LargeScaleConfig
from repro.sim.testbed import TestbedConfig
from repro.traces.generator import TraceConfig, generate_trace

MODEL = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)

_FAULT_KINDS = ("fault_injected", "fault_recovered")


@functools.lru_cache(maxsize=1)
def _trace():
    return generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)


def _ls_config(faults):
    return LargeScaleConfig(n_vms=30, n_servers=50, seed=5, faults=faults)


def _tb_config(faults):
    return TestbedConfig(
        n_servers=3, n_apps=2, duration_s=120.0, warmup_s=20.0,
        concurrency=10, initial_alloc_ghz=0.6, faults=faults, seed=77,
    )


def _run(engine, backend):
    memory = InMemoryBackend()
    with use_telemetry(Telemetry(memory, record_spans=False), close=False):
        backend.start()
        engine.run()
        backend.result()
        backend.close()
    return [
        (r["kind"], r["time_s"], r["fault"], r["target"])
        for r in memory.records if r.get("kind") in _FAULT_KINDS
    ]


def _due_records(schedule, period_s, n_periods):
    """The records a replay owes: one per transition due by the last
    period, stamped with the period it falls in, in timeline order."""
    timeline = schedule.cursor()
    owed = []
    for k in range(n_periods):
        now = k * period_s
        for tr in timeline.advance(now):
            ev = tr.event
            if tr.phase == "begin" and ev.kind != "server_recovery":
                owed.append(("fault_injected", now, ev.kind, ev.target))
            else:
                fault = "server_crash" if ev.kind == "server_recovery" else ev.kind
                owed.append(("fault_recovered", now, fault, ev.target))
    return owed


def _untouched_by_pending(injector, server_ids):
    pending = {tr.event.target for tr in injector.timeline.remaining()}
    return [sid for sid in server_ids if sid not in pending]


@st.composite
def _schedules(draw, server_ids, horizon_s, app_ids=()):
    """``FaultSchedule.random`` crashes and throttles (and sensor
    dropouts when *app_ids* are given) plus explicit throttle and
    migration-failure windows, so every draw has a window to close."""
    hours = horizon_s / 3600.0
    seed = draw(st.integers(0, 2**16))
    drawn = FaultSchedule.random(
        horizon_s, server_ids, app_ids, seed=seed,
        crash_rate_per_hour=draw(st.floats(0.0, 4.0)) / hours,
        throttle_rate_per_hour=draw(st.floats(0.0, 4.0)) / hours,
        sensor_rate_per_hour=draw(st.floats(0.0, 3.0)) / hours,
        mean_duration_s=horizon_s / 6,
    )
    windows = draw(st.lists(
        st.tuples(
            st.sampled_from(("thermal_throttle", "migration_failure")),
            st.floats(0.0, 0.6 * horizon_s),
            st.floats(1.0, 0.3 * horizon_s),
            st.sampled_from(list(server_ids)),
            st.floats(0.3, 1.0),
        ),
        min_size=1, max_size=3,
    ))
    extra = tuple(
        FaultEvent(time_s=t, kind="thermal_throttle", target=sid,
                   duration_s=d, fraction=p)
        if kind == "thermal_throttle"
        else FaultEvent(time_s=t, kind="migration_failure", duration_s=d,
                        probability=p)
        for kind, t, d, sid, p in windows
    )
    return FaultSchedule(events=drawn.events + extra, seed=seed)


_LS_SERVERS = tuple(f"S{i:04d}" for i in range(50))
_LS_HORIZON_S = 86400.0
_TB_SERVERS = ("T0", "T1", "T2")

_replay_settings = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOneRecordPerDueTransition:
    @_replay_settings
    @given(schedule=_schedules(_LS_SERVERS, _LS_HORIZON_S))
    def test_largescale(self, schedule):
        engine, backend = build_largescale_engine(_trace(), _ls_config(schedule))
        records = _run(engine, backend)
        assert records == _due_records(
            schedule, backend.period_s, backend.n_periods
        )
        for sid in _untouched_by_pending(backend.injector, _LS_SERVERS):
            i = backend.sid_to_idx[sid]
            assert backend.srv_frac[i] == 1.0 and not backend.srv_failed[i], sid

    @_replay_settings
    @given(schedule=_schedules(_TB_SERVERS, 120.0, app_ids=("app0", "app1")))
    def test_testbed(self, schedule):
        engine, backend = build_testbed_engine(_tb_config(schedule), model=MODEL)
        records = _run(engine, backend)
        assert records == _due_records(
            schedule, backend.period_s, backend.n_periods
        )
        for sid in _untouched_by_pending(backend.injector, _TB_SERVERS):
            server = backend.dc.servers[sid]
            assert server.capacity_fraction == 1.0 and not server.failed, sid

    @settings(max_examples=4, deadline=None)
    @given(schedule=_schedules(_LS_SERVERS, _LS_HORIZON_S))
    def test_one_pod_sharded_run_replays_as_the_plain_run(self, schedule):
        cfg = _ls_config(schedule)
        plain = _run(*build_largescale_engine(_trace(), cfg))
        sharded = _run(*build_sharded_engine(
            _trace(), ShardedConfig(base=cfg, n_pods=1, workers=1)
        ))
        assert sharded == plain


def _crash(target):
    return {"time_s": 30.0, "kind": "server_crash", "target": target,
            "duration_s": 60.0}


class TestRefusedAtBuild:
    @pytest.mark.parametrize(
        "scenario", ["testbed-small", "largescale-small", "sharded-small"]
    )
    def test_unknown_server_target_exits_1_before_period_0(
        self, scenario, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "events": [_crash("NOPE")]}))
        assert cli_main(["sim", "--scenario", scenario, "--faults", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # no period ran: no report
        assert err == (
            f"repro sim: scenario {scenario!r} cannot run its faults: "
            "server_crash at t=30s targets 'NOPE', which names no server "
            "of the plant\n"
        )

    def test_injector_checks_targets_against_its_plant(self):
        sched = FaultSchedule.from_spec({"events": [
            {"time_s": 0.0, "kind": "thermal_throttle", "target": "T7",
             "duration_s": 5.0, "fraction": 0.5},
        ]})
        dc = DataCenter()
        dc.add_server(Server("T0", TESTBED_SERVER))
        with pytest.raises(FaultSpecError, match="thermal_throttle at t=0s targets 'T7'"):
            FaultInjector(dc, sched)

    @pytest.mark.parametrize("kind", ["sensor_dropout", "sensor_noise"])
    def test_trace_harness_refuses_sensor_faults(self, kind):
        sched = FaultSchedule(events=(
            FaultEvent(time_s=60.0, kind=kind, duration_s=30.0),
        ))
        with pytest.raises(
            FaultSpecError,
            match=f"{kind} at t=60s: the trace-driven harness has no "
            "response-time sensor",
        ):
            _ls_config(sched)
