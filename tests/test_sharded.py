"""ShardedBackend: determinism contract, pool plumbing, scenarios."""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine.kernel import ControlPlane
from repro.engine.largescale_backend import LargeScaleBackend, build_largescale_engine
from repro.engine.scenario import builtin_registry
from repro.engine.sharded_backend import (
    ShardedConfig,
    _filter_faults,
    build_sharded_engine,
    partition_pods,
    run_sharded,
)
from repro.faults import FaultEvent, FaultSchedule
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.service.runner import eventlog_hash_records as _events_hash
from repro.sim.largescale import LargeScaleConfig
from repro.traces.generator import TraceConfig, generate_trace


def _trace(n_series=40, seed=13):
    return generate_trace(TraceConfig(n_servers=n_series, n_days=1), rng=seed)


def _base_config(**overrides):
    params = dict(n_vms=24, n_servers=40, seed=5)
    params.update(overrides)
    return LargeScaleConfig(**params)


_FAULTS = FaultSchedule(
    events=(
        FaultEvent(time_s=3600.0, kind="server_crash", target="S0005",
                   duration_s=7200.0),
        FaultEvent(time_s=10800.0, kind="thermal_throttle", target="S0025",
                   duration_s=7200.0, fraction=0.5),
        FaultEvent(time_s=14400.0, kind="migration_failure", target=None,
                   duration_s=21600.0, probability=0.5),
    ),
    seed=11,
)


def _run_observed(build):
    """Run an engine/backend pair under an in-memory telemetry scope."""
    backend_mem = InMemoryBackend()
    with use_telemetry(Telemetry(backend_mem)):
        engine, backend = build()
        try:
            backend.start()
            engine.run()
            result = backend.result()
        finally:
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()
    return result, backend_mem.records


class TestSingleProcessIdentity:
    def test_one_pod_bit_identical_to_plain_backend(self):
        trace = _trace()
        cfg = _base_config(attribute_power=True)
        plain_res, plain_records = _run_observed(
            lambda: build_largescale_engine(trace, cfg)
        )
        sharded_res, sharded_records = _run_observed(
            lambda: build_sharded_engine(
                trace, ShardedConfig(base=cfg, n_pods=1, workers=1)
            )
        )
        assert _events_hash(plain_records) == _events_hash(sharded_records)
        assert plain_res.total_energy_wh == sharded_res.total_energy_wh
        assert np.array_equal(plain_res.power_series_w, sharded_res.power_series_w)
        assert np.array_equal(plain_res.active_series, sharded_res.active_series)

    def test_two_pods_match_podwise_single_process_runs(self):
        trace = _trace()
        cfg = _base_config(attribute_power=True, faults=_FAULTS)
        scfg = ShardedConfig(base=cfg, n_pods=2, workers=1)

        sharded_res, _ = _run_observed(
            lambda: build_sharded_engine(trace, scfg)
        )
        engine, backend = build_sharded_engine(trace, scfg)
        try:
            backend.start()
            engine.run()
            backend.result()
            sharded_ledger = backend.vm_energy_ledger()
        finally:
            backend.close()

        # Reference: each pod's slice through a plain backend.
        pod_power = []
        pod_ledgers = []
        pod_energy = 0.0
        for spec in partition_pods(trace, scfg):
            pb = LargeScaleBackend(
                spec.trace,
                spec.config,
                servers=spec.servers,
                vm_peaks=spec.vm_peaks,
                vm_memories=spec.vm_memories,
                vm_id_start=spec.vm_id_start,
            )
            pe = ControlPlane(
                period_s=pb.period_s,
                n_periods=pb.n_periods,
                phases=pb.phases(),
                checkpointables={"plant": pb},
                name="largescale",
            )
            pb.start()
            pe.run()
            pres = pb.result()
            pod_energy += pres.total_energy_wh
            pod_power.append(pres.power_series_w)
            pod_ledgers.append(pb.vm_energy_wh)

        assert sharded_res.total_energy_wh == pod_energy
        assert np.array_equal(sharded_res.power_series_w, sum(pod_power))
        assert np.array_equal(sharded_ledger, np.concatenate(pod_ledgers))

    def test_pod_faults_follow_their_servers(self):
        trace = _trace()
        cfg = _base_config(faults=_FAULTS)
        specs = partition_pods(trace, ShardedConfig(base=cfg, n_pods=2))
        kinds = [
            sorted(ev.kind for ev in spec.config.faults.events)
            for spec in specs
        ]
        # Crash (S0005) stays in pod 0, throttle (S0025) in pod 1; the
        # untargeted migration failure lands in both.
        assert kinds[0] == ["migration_failure", "server_crash"]
        assert kinds[1] == ["migration_failure", "thermal_throttle"]
        for spec in specs:
            assert spec.config.faults.seed == _FAULTS.seed

    def test_filter_faults_preserves_none(self):
        assert _filter_faults(None, ["S0000"]) is None


class TestWorkerPool:
    def test_pooled_run_bit_identical_to_inline(self):
        trace = _trace()
        cfg = _base_config(attribute_power=True, faults=_FAULTS)
        inline_res, inline_records = _run_observed(
            lambda: build_sharded_engine(
                trace, ShardedConfig(base=cfg, n_pods=2, workers=1)
            )
        )
        pooled_res, pooled_records = _run_observed(
            lambda: build_sharded_engine(
                trace, ShardedConfig(base=cfg, n_pods=2, workers=2)
            )
        )
        assert _events_hash(inline_records) == _events_hash(pooled_records)
        assert inline_res.total_energy_wh == pooled_res.total_energy_wh
        assert np.array_equal(inline_res.power_series_w, pooled_res.power_series_w)

    def test_pooled_ledger_matches_inline(self):
        trace = _trace()
        cfg = _base_config(attribute_power=True)
        ledgers = {}
        for workers in (1, 2):
            engine, backend = build_sharded_engine(
                trace, ShardedConfig(base=cfg, n_pods=2, workers=workers)
            )
            try:
                backend.start()
                engine.run()
                backend.result()
                ledgers[workers] = backend.vm_energy_ledger()
            finally:
                backend.close()
        assert np.array_equal(ledgers[1], ledgers[2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_before_telemetry_scope_still_traces_pods(self, workers):
        # The repro sim CLI builds the engine first and enters its
        # telemetry scope afterwards; pod telemetry state must be
        # captured lazily at first pod build, not at backend __init__.
        engine, backend = build_sharded_engine(
            _trace(), ShardedConfig(base=_base_config(), n_pods=2, workers=workers)
        )
        mem = InMemoryBackend()
        with use_telemetry(Telemetry(mem)):
            try:
                backend.start()
                engine.run(until_period=1)
            finally:
                backend.close()
        assert any("pod" in r for r in mem.records)

    def test_closed_pool_refuses_further_work(self):
        trace = _trace()
        engine, backend = build_sharded_engine(
            _trace(), ShardedConfig(base=_base_config(), n_pods=2, workers=2)
        )
        backend.start()
        engine.run(until_period=1)
        backend.close()
        with pytest.raises(RuntimeError):
            engine.run()

    def test_closed_inline_backend_drops_its_pods(self):
        engine, backend = build_sharded_engine(
            _trace(), ShardedConfig(base=_base_config(), n_pods=2, workers=1)
        )
        backend.start()
        engine.run(until_period=1)
        backend.close()
        assert backend._pods == [] and backend.specs == []
        with pytest.raises(RuntimeError, match="closed"):
            engine.run()


def _counters(spec):
    """The closing ``metrics`` record's counters of one run of *spec*."""
    _, records = _run_observed(spec.build)
    (metrics,) = [r for r in records if r["kind"] == "metrics"]
    return metrics["metrics"]["counters"]


def _with_params(spec, **params):
    return dataclasses.replace(spec, params={**spec.params, **params})


class TestPodCounters:
    """Pods hand their counters to the parent at every barrier."""

    @pytest.mark.parametrize("name", ["largescale-small", "largescale-faulted"])
    def test_one_pod_counts_what_the_plain_run_counts(self, name):
        spec = builtin_registry().get(name)
        plain = _counters(spec)
        assert plain["minslack.searches"] > 0
        one_pod = _with_params(
            dataclasses.replace(spec, harness="sharded"), n_pods=1, workers=1
        )
        assert _counters(one_pod) == plain

    def test_pooled_counters_match_inline(self):
        spec = builtin_registry().get("sharded-small")
        inline = _counters(_with_params(spec, workers=1))
        assert inline["minslack.searches"] > 0
        assert _counters(_with_params(spec, workers=2)) == inline


class TestCheckpointResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_reproduces_straight_run(self, workers):
        trace = _trace()
        cfg = _base_config(attribute_power=True, faults=_FAULTS)
        scfg = ShardedConfig(base=cfg, n_pods=2, workers=workers)

        full = InMemoryBackend()
        engine, backend = build_sharded_engine(trace, scfg)
        with use_telemetry(Telemetry(full)):
            try:
                backend.start()
                engine.run()
                ref = backend.result()
                ref_ledger = backend.vm_energy_ledger()
            finally:
                backend.close()

        split = InMemoryBackend()
        engine, backend = build_sharded_engine(trace, scfg)
        with use_telemetry(Telemetry(split)):
            try:
                backend.start()
                engine.run(until_period=2)
                doc = json.loads(json.dumps(engine.checkpoint()))
            finally:
                backend.close()

        # Built before its telemetry scope is entered, as repro sim does:
        # the pods are first built during the muted replay and must
        # still trace the resumed suffix.
        fresh_engine, fresh_backend = build_sharded_engine(trace, scfg)
        with use_telemetry(Telemetry(split)):
            try:
                fresh_engine.restore(doc)
                fresh_engine.run()
                res = fresh_backend.result()
                ledger = fresh_backend.vm_energy_ledger()
            finally:
                fresh_backend.close()

        assert _events_hash(split.records) == _events_hash(full.records)
        assert res.total_energy_wh == ref.total_energy_wh
        assert np.array_equal(res.power_series_w, ref.power_series_w)
        assert np.array_equal(ledger, ref_ledger)


class TestConfigAndScenarios:
    def test_config_validation(self):
        base = _base_config()
        with pytest.raises(ValueError):
            ShardedConfig(base=base, n_pods=0)
        with pytest.raises(ValueError):
            ShardedConfig(base=base, n_pods=2, workers=0)
        with pytest.raises(ValueError):
            ShardedConfig(base=base, n_pods=2, sync_every_steps=0)
        with pytest.raises(ValueError):
            ShardedConfig(base=base, n_pods=base.n_vms + 1)
        with pytest.raises(ValueError):
            ShardedConfig(base=base, n_pods=base.n_servers + 1)

    def test_partition_requires_enough_trace_series(self):
        trace = _trace(n_series=8)
        with pytest.raises(ValueError):
            partition_pods(trace, ShardedConfig(base=_base_config(), n_pods=2))

    def test_run_sharded_returns_merged_result(self):
        result = run_sharded(
            _trace(), ShardedConfig(base=_base_config(), n_pods=2, workers=1)
        )
        assert result.info["n_pods"] == 2
        assert result.info["workers"] == 1
        assert np.all(np.isfinite(result.power_series_w))

    def test_sharded_small_scenario_builds_and_steps(self):
        spec = builtin_registry().get("sharded-small")
        engine, backend = spec.build()
        try:
            backend.start()
            engine.run(until_period=1)
            assert engine.k == 1
            engine.run()
            assert backend.result().total_energy_wh > 0
        finally:
            backend.close()

    def test_sharded_paper_scenario_registered(self):
        spec = builtin_registry().get("sharded-paper")
        assert spec.harness == "sharded"
        assert spec.params["n_vms"] == 20000
        assert spec.params["n_servers"] == 5415
